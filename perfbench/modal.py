"""Propositional modal formulas owned by the benchmark.

A tuple AST, a renderer to finmodal's concrete syntax, a seeded generator
of fixed-shape formulas, the six correspondence schemas, and a small
evaluator over explicit Kripke models. The evaluator shares no code with
finmodal; it re-checks the countermodels finmodal returns.
"""

from __future__ import annotations

UNARY = {"not": "~", "box": "[]", "dia": "<>"}
BINARY = {"imp": "->", "and": "&", "or": "|"}


def atom(name: str) -> tuple:
    return ("atom", name)


def imp(a, b) -> tuple:
    return ("imp", a, b)


def box(a) -> tuple:
    return ("box", a)


def dia(a) -> tuple:
    return ("dia", a)


P, Q = ("meta", "P"), ("meta", "Q")

# The correspondence schemas over the metavariables P and Q.
SCHEMAS = {
    "T": imp(box(P), P),
    "B": imp(P, box(dia(P))),
    "4": imp(box(P), box(box(P))),
    "5": imp(dia(P), box(dia(P))),
    "D": imp(box(P), dia(P)),
    "K": imp(box(imp(P, Q)), imp(box(P), box(Q))),
}

# Correspondence theory: the schemas valid on every frame of each class
# (K: all frames, KB: symmetric frames, S5: the total relation).
VALID_SCHEMAS = {
    "K": ("K",),
    "KB": ("B", "K"),
    "S5": ("T", "B", "4", "5", "D", "K"),
}


def substitute(f: tuple, mapping: dict) -> tuple:
    if f[0] == "meta":
        return mapping[f[1]]
    if f[0] == "atom":
        return f
    return (f[0],) + tuple(substitute(c, mapping) for c in f[1:])


def atoms_of(f: tuple) -> set:
    if f[0] == "atom":
        return {f[1]}
    out = set()
    for c in f[1:]:
        out |= atoms_of(c)
    return out


def render(f: tuple) -> str:
    op = f[0]
    if op == "atom":
        return f[1]
    if op in UNARY:
        return UNARY[op] + _wrap(f[1])
    return f"{_wrap(f[1])} {BINARY[op]} {_wrap(f[2])}"


def _wrap(f: tuple) -> str:
    return f"({render(f)})" if f[0] in BINARY else render(f)


# Operator skeletons m1(m2(l1) b l2) for seeded formulas. Each has two
# modal operators, so formulas built on one skeleton cost about the same
# to evaluate whatever literals the seed puts in.
SKELETONS = (("box", "and", "dia"), ("dia", "or", "box"),
             ("box", "imp", "box"), ("dia", "and", "dia"))


def fixed_shape(rng, atoms, skeleton) -> tuple:
    """The skeleton filled with literals (an atom or its negation) by rng."""
    def literal():
        a = atom(rng.choice(atoms))
        return a if rng.random() < 0.5 else ("not", a)
    m1, b, m2 = skeleton
    return (m1, (b, (m2, literal()), literal()))


def holds(f: tuple, succ, val: dict, w: int) -> bool:
    """Truth at world w; succ[w] lists the successors of w, val maps each
    atom to a bitmask over worlds."""
    op = f[0]
    if op == "atom":
        return bool((val[f[1]] >> w) & 1)
    if op == "not":
        return not holds(f[1], succ, val, w)
    if op == "box":
        return all(holds(f[1], succ, val, v) for v in succ[w])
    if op == "dia":
        return any(holds(f[1], succ, val, v) for v in succ[w])
    left = holds(f[1], succ, val, w)
    right = holds(f[2], succ, val, w)
    if op == "imp":
        return (not left) or right
    if op == "and":
        return left and right
    if op == "or":
        return left or right
    raise ValueError(f"unknown operator {op!r}")


def in_frame_class(logic: str, n: int, access) -> bool:
    pairs = set(access)
    if logic == "K":
        return all(0 <= w < n and 0 <= v < n for w, v in pairs)
    if logic == "KB":
        return all((v, w) in pairs for w, v in pairs)
    if logic == "S5":
        return pairs == {(w, v) for w in range(n) for v in range(n)}
    raise ValueError(f"unknown frame class {logic!r}")


def refutes(f: tuple, n: int, access, val: dict) -> bool:
    """The model falsifies f at some world."""
    succ = [[v for v in range(n) if (w, v) in access] for w in range(n)]
    return any(not holds(f, succ, val, w) for w in range(n))


def frames_count(logic: str, n: int) -> int:
    """Closed-form number of frames with n worlds in the class."""
    if logic == "K":
        return 1 << (n * n)
    if logic == "KB":
        return 1 << (n * (n + 1) // 2)
    if logic == "S5":
        return 1
    raise ValueError(f"unknown frame class {logic!r}")


def model_count(logic: str, max_worlds: int, n_atoms: int) -> int:
    """sum over n of frames(n) * 2^(n * atoms)."""
    return sum(frames_count(logic, n) << (n * n_atoms)
               for n in range(1, max_worlds + 1))



# The reference unit: K with substituted formulas, at every world of four
# fixed 3-world frames under twelve fixed valuations (about 3 ms).
_REFERENCE_FORMULA = imp(box(imp(box(("and", dia(atom("p")), ("not", atom("q")))),
                                 dia(("or", box(atom("q")), atom("p"))))),
                         imp(box(box(("and", dia(atom("p")), ("not", atom("q"))))),
                             box(dia(("or", box(atom("q")), atom("p"))))))
_REFERENCE_FRAMES = [
    [[v for v in range(3) if (bits >> (3 * w + v)) & 1] for w in range(3)]
    for bits in (0b111111111, 0b011101110, 0b100010001, 0b010001100)
]


def reference_work() -> int:
    """A fixed unit of pure-Python work shaped like the program's own
    (recursive evaluation of a modal formula), independent of finmodal."""
    n = 0
    for succ in _REFERENCE_FRAMES:
        for bits in range(12):
            val = {"p": bits & 7, "q": bits >> 1}
            for w in range(3):
                n += holds(_REFERENCE_FORMULA, succ, val, w)
    return n
