"""Canonical ASCII rendering of terms and formulas.

The grammar is the one parser.py reads: `[]`/`<>`/`@` for the modal and
actuality operators, `x[F]` for encoding, `[\\x ...]` for lambda terms,
`(the x: ...)` for definite descriptions, and `all`/`exists` quantifiers
with parenthesized bodies.
"""

from __future__ import annotations

from .formulas import (
    INDIVIDUAL, REL1, Sort,
    Actually, And, Box, Const, Description, Diamond, Encode, Exemplify,
    Exists, Forall, Formula, Iff, Implies, Lambda, MacroFormula, MacroTerm,
    Not, Or, PrimitiveEq, SOAtom, Term, Var, Xor,
)

_IFF = 10
_IMPL = 20
_OR = 30
_AND = 40
_EQ = 45
_UNARY = 50
_APP = 55
_ATOM = 60


def default_sort(name: str) -> Sort:
    return REL1 if name[:1].isupper() else INDIVIDUAL


def _binder_decl(v: Var) -> str:
    if v.sort == default_sort(v.name):
        return v.name
    if v.sort == INDIVIDUAL:
        return f"{v.name}:ind"
    if v.sort.kind == "rel":
        if v.sort.arity == 0:
            return f"{v.name}:prop"
        if v.sort.arity == 1:
            return f"{v.name}:rel"
        return f"{v.name}:rel {v.sort.arity}"
    return f"{v.name}:{v.sort}"


def print_term(t: Term) -> str:
    return _pt(t, 0)


def _pt(t: Term, ctx: int) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, Lambda):
        if not t.params:
            # else a body that starts with a name reads as a parameter
            return f"[\\ ({_pf(t.body, 0)})]"
        binders = "".join(f"\\{p.name} " for p in t.params)
        return f"[{binders}{_pf(t.body, 0)}]"
    if isinstance(t, Description):
        return f"(the {t.var.name}: {_pf(t.body, 0)})"
    if isinstance(t, MacroTerm):
        if not t.args:
            return t.name
        s = t.name + "".join(" " + _pt(a, _ATOM) for a in t.args)
        return f"({s})" if ctx > _APP else s
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    return _pf(f, 0)


def _wrap(s: str, level: int, ctx: int) -> str:
    return f"({s})" if level < ctx else s


def _pf(f: Formula, ctx: int) -> str:
    if isinstance(f, Exemplify):
        if not f.args:
            return _pt(f.rel, _ATOM)
        s = _pt(f.rel, _ATOM) + "".join(" " + _pt(a, _ATOM) for a in f.args)
        return _wrap(s, _APP, ctx)
    if isinstance(f, Encode):
        return f"{_pt(f.obj, _ATOM)}[{_pt(f.rel, 0)}]"
    if isinstance(f, SOAtom):
        s = f"{_pt(f.op, _ATOM)} {_pt(f.arg, _ATOM)}"
        return _wrap(s, _APP, ctx)
    if isinstance(f, PrimitiveEq):
        s = f"{_pt(f.left, _ATOM)} = {_pt(f.right, _ATOM)}"
        return _wrap(s, _EQ, ctx)
    if isinstance(f, MacroFormula):
        if f.name == "id":
            s = f"{_pt(f.args[0], _ATOM)} = {_pt(f.args[1], _ATOM)}"
            return _wrap(s, _EQ, ctx)
        s = f.name + "".join(" " + _pt(a, _ATOM) for a in f.args)
        return _wrap(s, _APP, ctx)
    if isinstance(f, Not):
        return _wrap("~" + _pf(f.body, _UNARY), _UNARY, ctx)
    if isinstance(f, Box):
        return _wrap("[]" + _pf(f.body, _UNARY), _UNARY, ctx)
    if isinstance(f, Diamond):
        return _wrap("<>" + _pf(f.body, _UNARY), _UNARY, ctx)
    if isinstance(f, Actually):
        return _wrap("@" + _pf(f.body, _UNARY), _UNARY, ctx)
    if isinstance(f, Implies):
        s = f"{_pf(f.left, _IMPL + 1)} -> {_pf(f.right, _IMPL)}"
        return _wrap(s, _IMPL, ctx)
    if isinstance(f, And):
        s = f"{_pf(f.left, _AND)} & {_pf(f.right, _AND + 1)}"
        return _wrap(s, _AND, ctx)
    if isinstance(f, Or):
        s = f"{_pf(f.left, _OR)} | {_pf(f.right, _OR + 1)}"
        return _wrap(s, _OR, ctx)
    if isinstance(f, Iff):
        s = f"{_pf(f.left, _IFF)} <-> {_pf(f.right, _IFF + 1)}"
        return _wrap(s, _IFF, ctx)
    if isinstance(f, Xor):
        s = f"{_pf(f.left, _IFF)} xor {_pf(f.right, _IFF + 1)}"
        return _wrap(s, _IFF, ctx)
    if isinstance(f, Forall):
        return f"all {_binder_decl(f.var)} ({_pf(f.body, 0)})"
    if isinstance(f, Exists):
        return f"exists {_binder_decl(f.var)} ({_pf(f.body, 0)})"
    raise TypeError(f"not a formula: {f!r}")
