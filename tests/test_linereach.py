import importlib.util
from pathlib import Path


def _linereach():
    """tools/linereach.py, loaded by path: tools/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "linereach.py"
    spec = importlib.util.spec_from_file_location("linereach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_lines_of_functions_only():
    source = (
        "import os\n"                            # 1: module body
        "class C:\n"                             # 2: class body
        "    size = 1\n"                         # 3
        "    def f(self, x):\n"                  # 4: reached by a call
        "        if x:\n"                        # 5
        "            return [y for y in x]\n"    # 6: a comprehension too
        "        return None\n"                  # 7
        "@staticmethod\n"                        # 8: g's first line
        "def g():\n"                             # 9
        "    pass\n")                            # 10
    assert _linereach().executable_lines(source) == {4, 5, 6, 7, 8, 10}


def test_ranges_join_consecutive_lines():
    assert _linereach()._ranges({7, 1, 2, 3, 5, 8}) == "1-3, 5, 7-8"


def test_lines_are_read_before_the_run(tmp_path):
    # an edit made to a module while the traced run goes on does not
    # shift the report: its lines are those of the source at the start
    path = tmp_path / "mod.py"
    path.write_text("def f(x):\n"       # 1
                    "    if x:\n"       # 2
                    "        return 1\n"  # 3
                    "    return 2\n")   # 4
    linereach = _linereach()

    def run():
        spec = importlib.util.spec_from_file_location("mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path.write_text("\n" * 5 + path.read_text())
        return module.f(1)

    result, report = linereach.traced(tmp_path, run)
    assert result == 1
    assert report == {path: ({1, 2, 3, 4}, {4})}
