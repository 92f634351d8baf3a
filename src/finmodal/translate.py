"""Standard translation to a world-explicit meta-language, and the
multi-sorted first-order export.

The meta-language is simply typed and beta-normal: predicates take an extra
world argument, necessity becomes a guarded world quantifier, and the whole
translation is wrapped in one world abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formulas import (
    INDIVIDUAL, PROPOSITION,
    Actually, Box, Const, Exemplify, Forall, Formula, Implies, Not, Var,
    beta_normalize,
)
from .kripke import (
    ColumnSpace, EvalError, KripkeInterpretation, compile_mask, frames_for,
    lowest_bit,
)
from .macros import expand_derived
from .signature import LogicTag


class TranslationError(Exception):
    """The formula uses a construct the translation does not cover."""


ACTUAL = "<actual>"


@dataclass(frozen=True)
class MAtom:
    pred: str
    args: tuple  # individual variable/constant names
    world: str


@dataclass(frozen=True)
class MAccess:
    w: str
    v: str


@dataclass(frozen=True)
class MNot:
    body: object


@dataclass(frozen=True)
class MImplies:
    left: object
    right: object


@dataclass(frozen=True)
class MForallWorld:
    var: str
    body: object


@dataclass(frozen=True)
class MForallInd:
    var: str
    body: object


@dataclass(frozen=True)
class MetaTerm:
    world: str
    body: object

    def __str__(self):
        return f"\\{self.world}. {_mstr(self.body)}"


def _mstr(n) -> str:
    if isinstance(n, MAtom):
        args = " ".join((*n.args, n.world))
        return f"{n.pred} {args}" if args else n.pred
    if isinstance(n, MAccess):
        return f"R {n.w} {n.v}"
    if isinstance(n, MNot):
        return f"~({_mstr(n.body)})"
    if isinstance(n, MImplies):
        return f"({_mstr(n.left)} -> {_mstr(n.right)})"
    if isinstance(n, MForallWorld):
        return f"forall {n.var}. ({_mstr(n.body)})"
    if isinstance(n, MForallInd):
        return f"forall {n.var}. ({_mstr(n.body)})"
    raise TypeError(n)


def standard_translation(f: Formula) -> MetaTerm:
    f = beta_normalize(expand_derived(f))
    counter = {"w": 0, "x": 0}

    def fresh_world():
        counter["w"] += 1
        return f"v{counter['w']}"

    def fresh_ind():
        counter["x"] += 1
        return f"i{counter['x']}"

    def tr(g: Formula, w: str, env: dict):
        if isinstance(g, Exemplify):
            head = g.rel
            if isinstance(head, (Const, Var)):
                names = []
                for arg in g.args:
                    if isinstance(arg, Var):
                        names.append(env.get(arg.name, arg.name))
                    elif isinstance(arg, Const):
                        names.append(arg.name)
                    else:
                        raise TranslationError("complex individual argument")
                return MAtom(head.name, tuple(names), w)
            raise TranslationError("unreduced relation term")
        if isinstance(g, Not):
            return MNot(tr(g.body, w, env))
        if isinstance(g, Implies):
            return MImplies(tr(g.left, w, env), tr(g.right, w, env))
        if isinstance(g, Box):
            v = fresh_world()
            return MForallWorld(v, MImplies(MAccess(w, v), tr(g.body, v, env)))
        if isinstance(g, Actually):
            return tr(g.body, ACTUAL, env)
        if isinstance(g, Forall):
            if g.var.sort != INDIVIDUAL:
                raise TranslationError("relation quantifiers are not translated")
            x = fresh_ind()
            env = dict(env)
            env[g.var.name] = x
            return MForallInd(x, tr(g.body, w, env))
        raise TranslationError(f"unsupported construct {type(g).__name__}")

    top = "w"
    return MetaTerm(top, tr(f, top, {}))


def meta_evaluate(mt: MetaTerm, m: KripkeInterpretation, w: int) -> bool:
    """Evaluate the world-explicit translation directly over m."""

    def ev(n, env) -> bool:
        if isinstance(n, MAtom):
            world = m.actual if n.world == ACTUAL else env[n.world]
            value = None
            if n.pred in m.denot:
                value = m.denot[n.pred]
            args = []
            for name in n.args:
                if name in env:
                    args.append(env[name])
                elif name in m.denot:
                    args.append(m.denot[name])
                else:
                    raise EvalError(f"unbound meta variable {name!r}")
            if value is None:
                raise EvalError(f"uninterpreted predicate {n.pred!r}")
            if not args:
                return bool((value >> world) & 1)
            if len(args) == 1:
                return bool((value >> (args[0] * m.n_worlds + world)) & 1)
            return bool((value[tuple(args)] >> world) & 1)
        if isinstance(n, MAccess):
            w1 = m.actual if n.w == ACTUAL else env[n.w]
            w2 = m.actual if n.v == ACTUAL else env[n.v]
            return (w1, w2) in m.access
        if isinstance(n, MNot):
            return not ev(n.body, env)
        if isinstance(n, MImplies):
            return (not ev(n.left, env)) or ev(n.right, env)
        if isinstance(n, MForallWorld):
            return all(ev(n.body, {**env, n.var: v}) for v in range(m.n_worlds))
        if isinstance(n, MForallInd):
            return all(ev(n.body, {**env, n.var: d}) for d in range(m.n_individuals))
        raise TypeError(n)

    return ev(mt.body, {mt.world: w})


# ---------------------------------------------------------------------------
# Multi-sorted first-order export

def export_first_order(schema: Formula) -> str:
    """Render a propositional modal schema in sorted first-order syntax,
    with sortal predicates Proposition/Point, a distinguished point W, and
    a truth predicate True(x,y)."""
    schema = beta_normalize(expand_derived(schema))
    names: dict = {}   # atom -> x, x1, ... in order of first occurrence
    point_names = ["y", "z", "u"]

    def tr(g: Formula, point: str, depth: int) -> str:
        if isinstance(g, Exemplify):
            if g.args or not isinstance(g.rel, (Const, Var)):
                raise TranslationError("export covers propositional schemas only")
            if g.rel.name not in names:
                names[g.rel.name] = f"x{len(names)}" if names else "x"
            return f"True({names[g.rel.name]},{point})"
        if isinstance(g, Not):
            return f"-({tr(g.body, point, depth)})"
        if isinstance(g, Implies):
            return f"({tr(g.left, point, depth)} -> {tr(g.right, point, depth)})"
        if isinstance(g, Box):
            v = point_names[depth] if depth < len(point_names) else f"y{depth}"
            return f"all {v} (Point({v}) -> {tr(g.body, v, depth + 1)})"
        raise TranslationError(f"export does not cover {type(g).__name__}")

    body = tr(schema, "W", 0)
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    out = body
    for x in reversed(names.values()):
        out = f"all {x} (Proposition({x}) -> ({out}))"
    return out


# ---------------------------------------------------------------------------
# Exhaustive agreement between evaluation and the translation
#
# Both sides are computed over one ColumnSpace per world count, a column
# per (K frame, valuation), so the full space of K models with up to three
# worlds stays cheap. The evaluation side is compile_mask itself, whose Box
# spreads each world's bit to its predecessors; the meta side expands its
# explicit world quantifiers over the space's slots, and reads R w v off
# the same predecessor masks.

@dataclass
class AgreementReport:
    n_formulas: int = 0
    n_models: int = 0
    n_pairs: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def generate_formulas(atoms, depth: int) -> list:
    """Every formula up to depth built from the atoms by Not, Box, Actually
    and Implies, each once. A level adds the unary forms of the last level's
    formulas and the implications with an operand from the last level: the
    rest were added before."""
    formulas = [Exemplify(Const(a, PROPOSITION), ()) for a in atoms]
    last = 0  # formulas[last:] is the last level
    for _ in range(depth):
        fresh = formulas[last:]
        new = [U(f) for f in fresh for U in (Not, Box, Actually)]
        new += [Implies(a, b) for i, a in enumerate(formulas)
                for b in (formulas if i >= last else fresh)]
        last = len(formulas)
        formulas += new
    return formulas


def exhaustive_agreement(max_depth: int = 3, max_worlds: int = 3,
                         atoms=("p", "q")) -> AgreementReport:
    report = AgreementReport()
    formulas = generate_formulas(atoms, max_depth)
    report.n_formulas = len(formulas)

    spaces = [ColumnSpace.product(n, frames_for(LogicTag.K, n), atoms,
                                  range(1 << n))
              for n in range(1, max_worlds + 1)]
    report.n_models = sum(space.n_columns for space in spaces)
    report.n_pairs = report.n_models * len(formulas)

    for f in formulas:
        holds = compile_mask(f)
        meta = standard_translation(f)
        for space in spaces:
            ev = holds(space, {})
            mv = mvec(space, meta.body, {meta.world: None})
            if ev != mv:
                c, w = divmod(lowest_bit(ev ^ mv), space.n_worlds)
                frame, values = space.column(c)
                report.mismatches.append((f, space.n_worlds, (frame, *values), w))
                if len(report.mismatches) > 5:
                    return report
    return report


def mvec(space: ColumnSpace, n, env) -> int:
    """The translation's meta-language term over the columns of space.
    env maps world variables to a slot index, or to None for the column's
    own world."""
    if isinstance(n, MAtom):
        s = space.actual if n.world == ACTUAL else env[n.world]
        base = space.denot[n.pred]
        return base if s is None else space.spread(base, s)
    if isinstance(n, MAccess):
        s1 = space.actual if n.w == ACTUAL else env[n.w]
        s2 = space.actual if n.v == ACTUAL else env[n.v]
        if s2 is None:
            raise TranslationError("unexpected access shape")
        into = space.into[s2]
        return into if s1 is None else space.spread(into, s1)
    if isinstance(n, MNot):
        return space.all_worlds ^ mvec(space, n.body, env)
    if isinstance(n, MImplies):
        return (space.all_worlds ^ mvec(space, n.left, env)) \
            | mvec(space, n.right, env)
    if isinstance(n, MForallWorld):
        out = space.all_worlds
        for s in range(space.n_worlds):
            out &= mvec(space, n.body, {**env, n.var: s})
        return out
    raise TranslationError(type(n).__name__)
