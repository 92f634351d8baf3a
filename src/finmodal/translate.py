"""Standard translation to a world-explicit meta-language, and the
multi-sorted first-order export.

The meta-language is simply typed and beta-normal: predicates take an extra
world argument, necessity becomes a guarded world quantifier, and the whole
translation is wrapped in one world abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formulas import (
    INDIVIDUAL,
    Actually, Box, Const, Exemplify, Forall, Formula, Implies, Not, Var,
    beta_normalize,
)
from .kripke import (
    EvalError, KripkeInterpretation, column_values, frames_for, product_columns,
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


def meta_evaluate(mt: MetaTerm, m: KripkeInterpretation, w: int,
                  assignment: dict | None = None) -> bool:
    """Evaluate the world-explicit translation directly over m."""
    base = dict(assignment or {})

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
                elif name in base:
                    args.append(base[name])
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
            if m.logic is LogicTag.S5TOTAL:
                return True
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
    atoms: list = []

    def scan(g: Formula):
        if isinstance(g, Exemplify):
            if g.args or not isinstance(g.rel, (Const, Var)):
                raise TranslationError("export covers propositional schemas only")
            if g.rel.name not in atoms:
                atoms.append(g.rel.name)
            return
        if isinstance(g, Not):
            scan(g.body)
            return
        if isinstance(g, Implies):
            scan(g.left)
            scan(g.right)
            return
        if isinstance(g, Box):
            scan(g.body)
            return
        raise TranslationError(f"export does not cover {type(g).__name__}")

    scan(schema)
    names = {a: ("x" if i == 0 else f"x{i}") for i, a in enumerate(atoms)}
    point_names = ["y", "z", "u"]

    def tr(g: Formula, point: str, depth: int) -> str:
        if isinstance(g, Exemplify):
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
    for a in reversed(atoms):
        out = f"all {names[a]} (Proposition({names[a]}) -> ({out}))"
    return out


# ---------------------------------------------------------------------------
# Exhaustive agreement between evaluation and the translation
#
# Both sides are computed over packed bit columns (one bit per model/world
# pair) so the full space of K models with up to three worlds stays cheap.
# The recursion shapes differ: evaluation gathers over accessibility
# successors, while the meta side expands its explicit world quantifiers.

@dataclass
class AgreementReport:
    n_formulas: int = 0
    n_models: int = 0
    n_pairs: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def generate_formulas(atoms, depth: int, unary=(Not, Box, Actually)) -> list:
    from .formulas import Exemplify, PROPOSITION
    level = [Exemplify(Const(a, PROPOSITION), ()) for a in atoms]
    seen = set(level)
    for _ in range(depth):
        new = []
        for f in level:
            for U in unary:
                g = U(f)
                if g not in seen:
                    seen.add(g)
                    new.append(g)
        for a in level:
            for b in level:
                g = Implies(a, b)
                if g not in seen:
                    seen.add(g)
                    new.append(g)
        level = level + new
    return level


def exhaustive_agreement(max_depth: int = 3, max_worlds: int = 3,
                         atoms=("p", "q")) -> AgreementReport:
    report = AgreementReport()
    formulas = generate_formulas(atoms, max_depth)
    report.n_formulas = len(formulas)
    metas = {id(f): standard_translation(f) for f in formulas}

    for n_worlds in range(1, max_worlds + 1):
        frames = frames_for(LogicTag.K, n_worlds)
        vals = range(1 << n_worlds)
        n_vals = len(vals) ** len(atoms)
        # (frame, value of each atom), the first atom outermost
        models = [(R, *column_values(vals, len(atoms), c))
                  for R in frames for c in range(n_vals)]
        report.n_models += len(models)
        report.n_pairs += len(models) * len(formulas)

        n_cols = len(models) * n_worlds
        full = (1 << n_cols) - 1
        slot = []
        for w in range(n_worlds):
            mask = 0
            for mi in range(len(models)):
                mask |= 1 << (mi * n_worlds + w)
            slot.append(mask)

        # one frame's valuation columns, repeated for every frame
        per_frame = n_vals * n_worlds
        repeat = sum(1 << (i * per_frame) for i in range(len(frames)))
        atom_cols = {a: word * repeat for a, word in zip(
            atoms, product_columns(vals, len(atoms), n_worlds))}

        # edge[w][v]: bit at column (m, w) iff R_m(w, v)
        edge = [[0] * n_worlds for _ in range(n_worlds)]
        for mi, (R, *_) in enumerate(models):
            for (w, v) in R:
                edge[w][v] |= 1 << (mi * n_worlds + w)
        # edge_at[s1][s2]: bit at every column of model m iff R_m(s1, s2)
        edge_at = [[0] * n_worlds for _ in range(n_worlds)]
        for mi, (R, *_) in enumerate(models):
            stamp = ((1 << n_worlds) - 1) << (mi * n_worlds)
            for (s1, s2) in R:
                edge_at[s1][s2] |= stamp

        def spread_slot(x: int, s: int) -> int:
            base = (x & slot[s]) >> s
            out = 0
            for w in range(n_worlds):
                out |= base << w
            return out

        memo: dict = {}

        def evec(f: Formula) -> int:
            key = id(f)
            if key in memo:
                return memo[key]
            if isinstance(f, Exemplify):
                r = atom_cols[f.rel.name]
            elif isinstance(f, Not):
                r = full ^ evec(f.body)
            elif isinstance(f, Implies):
                r = (full ^ evec(f.left)) | evec(f.right)
            elif isinstance(f, Actually):
                r = spread_slot(evec(f.body), 0)
            elif isinstance(f, Box):
                b = evec(f.body)
                r = 0
                for w in range(n_worlds):
                    acc = slot[w]
                    for v in range(n_worlds):
                        bv = (b & slot[v]) >> v << w
                        acc &= (full ^ edge[w][v]) | bv
                    r |= acc & slot[w]
            else:
                raise TranslationError(type(f).__name__)
            memo[key] = r
            return r

        def mvec(n, env) -> int:
            # env maps world variables to a slot index, or to None for the
            # column's own world position.
            if isinstance(n, MAtom):
                s = 0 if n.world == ACTUAL else env[n.world]
                base = atom_cols[n.pred]
                return base if s is None else spread_slot(base, s)
            if isinstance(n, MAccess):
                s1 = 0 if n.w == ACTUAL else env[n.w]
                s2 = 0 if n.v == ACTUAL else env[n.v]
                if s1 is None:
                    return _edge_own(s2)
                if s2 is None:
                    raise TranslationError("unexpected access shape")
                return edge_at[s1][s2]
            if isinstance(n, MNot):
                return full ^ mvec(n.body, env)
            if isinstance(n, MImplies):
                return (full ^ mvec(n.left, env)) | mvec(n.right, env)
            if isinstance(n, MForallWorld):
                out = full
                for s in range(n_worlds):
                    out &= mvec(n.body, {**env, n.var: s})
                return out
            raise TranslationError(type(n).__name__)

        def _edge_own(s2: int) -> int:
            out = 0
            for w in range(n_worlds):
                out |= edge[w][s2]
            return out

        for f in formulas:
            ev = evec(f)
            mv = mvec(metas[id(f)].body, {metas[id(f)].world: None})
            if ev != mv:
                diff = ev ^ mv
                pos = (diff & -diff).bit_length() - 1
                mi, w = divmod(pos, n_worlds)
                report.mismatches.append((f, n_worlds, models[mi], w))
                if len(report.mismatches) > 5:
                    return report
    return report
