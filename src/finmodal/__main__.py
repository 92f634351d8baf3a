"""`python -m finmodal`: the same front door as the `finmodal` script."""

from .cli import main

if __name__ == "__main__":
    main()
