import random
from dataclasses import fields

import pytest
from hypothesis import strategies as st

from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1,
    Actually, And, Box, Const, Description, Diamond, Encode, Exemplify,
    Exists, Forall, Formula, Iff, Implies, Lambda, MacroFormula, MacroTerm,
    Not, Or, PrimitiveEq, Term, Var, Xor,
)
from finmodal.signature import LogicTag, Mode, Signature


@pytest.fixture
def classical_sig():
    return Signature(Mode.CLASSICAL, LogicTag.K, {
        "p": PROPOSITION, "q": PROPOSITION, "S": REL1, "c": INDIVIDUAL,
    })


@pytest.fixture
def aot_sig():
    return Signature(Mode.AOT, LogicTag.S5TOTAL, {
        "p": PROPOSITION, "k": INDIVIDUAL,
    })


def fresh(x):
    """x rebuilt bottom-up from new objects, binder variables included, so
    nothing is stored on it yet."""
    if isinstance(x, tuple):
        return tuple(map(fresh, x))
    if isinstance(x, (Term, Formula)):
        return type(x)(*(fresh(getattr(x, f.name)) for f in fields(x)))
    return x


def random_formula(rng: random.Random, sig: Signature, depth: int,
                   scope=None, allow_encode=False, quantifiers=True,
                   terms=False, first_order=False):
    """A well-sorted random formula over the signature's constants. With
    terms, atoms may also apply lambdas and term macros, hold definite
    descriptions, or be formula macros. With first_order, quantifiers range
    over individuals only, and atoms may be equalities of individuals."""
    scope = list(scope or [])
    prop_consts = [n for n, s in sig.consts.items()
                   if s.kind == "rel" and s.arity == 0]
    ind_terms = [Const(n, INDIVIDUAL) for n, s in sig.consts.items()
                 if s.kind == "ind"]
    ind_terms += [v for v in scope if v.sort == INDIVIDUAL]
    rel_terms = [Const(n, REL1) for n, s in sig.consts.items()
                 if s.kind == "rel" and s.arity == 1]
    rel_terms += [v for v in scope if v.sort == REL1]

    def inner(d, scope):
        return random_formula(rng, sig, d, scope, allow_encode, quantifiers,
                              terms, first_order)

    def ind_term():
        if terms and depth > 0 and rng.random() < 0.25:
            v = Var(f"x{len(scope)}", INDIVIDUAL)
            return Description(v, inner(depth - 1, scope + [v]))
        return rng.choice(ind_terms)

    def rel_term():
        if terms and rng.random() < 0.4:
            kind = rng.choice(["lam", "neg", "O!"] if depth > 0
                              else ["neg", "O!"])
            if kind == "lam":
                v = Var(f"x{len(scope)}", INDIVIDUAL)
                return Lambda((v,), inner(depth - 1, scope + [v]))
            if kind == "neg":
                return MacroTerm("neg", (rng.choice(rel_terms),))
            return MacroTerm("O!")
        return rng.choice(rel_terms)

    def atom():
        choices = []
        if prop_consts:
            choices.append("p")
        if rel_terms and ind_terms:
            choices.append("exem")
            if allow_encode:
                choices.append("encode")
            if terms:
                choices += ["dn", "id", "ent"]
        if first_order and ind_terms:
            choices.append("eq")
        kind = rng.choice(choices)
        if kind == "p":
            return Exemplify(Const(rng.choice(prop_consts), PROPOSITION), ())
        if kind == "encode":
            return Encode(ind_term(), rel_term())
        if kind == "dn":
            return MacroFormula("dn", (rng.choice([ind_term, rel_term])(),))
        if kind == "id":
            term = rng.choice([ind_term, rel_term])
            return MacroFormula("id", (term(), term()))
        if kind == "ent":
            return MacroFormula("ent", (rel_term(), rel_term()))
        if kind == "eq":
            return PrimitiveEq(ind_term(), ind_term())
        return Exemplify(rel_term(), (ind_term(),))

    if depth == 0:
        return atom()
    ops = ["not", "box", "dia", "act", "imp", "and", "or", "iff", "xor",
           "atom"]
    if quantifiers and ind_terms:
        ops += ["all_i", "ex_i"]
    if quantifiers and (rel_terms or prop_consts) and not first_order:
        ops += ["all_r"]
    if terms:
        ops += ["atom"] * 3  # so that lambdas and descriptions nest
    op = rng.choice(ops)
    sub = lambda: inner(depth - 1, scope)
    if op == "atom":
        return atom()
    if op == "not":
        return Not(sub())
    if op == "box":
        return Box(sub())
    if op == "dia":
        return Diamond(sub())
    if op == "act":
        return Actually(sub())
    if op in ("imp", "and", "or", "iff", "xor"):
        cls = {"imp": Implies, "and": And, "or": Or,
               "iff": Iff, "xor": Xor}[op]
        return cls(sub(), sub())
    if op in ("all_i", "ex_i"):
        v = Var(f"x{len(scope)}", INDIVIDUAL)
        body = inner(depth - 1, scope + [v])
        return (Forall if op == "all_i" else Exists)(v, body)
    v = Var(f"Y{len(scope)}", REL1)
    return Forall(v, inner(depth - 1, scope + [v]))


def propositional_formulas(atoms, depth=3):
    """A Hypothesis strategy: formulas over the proposition constants atoms
    built with the connectives, Box, Diamond and Actually."""
    leaves = st.sampled_from(
        [Exemplify(Const(a, PROPOSITION), ()) for a in atoms])
    if depth == 0:
        return leaves
    sub = propositional_formulas(atoms, depth - 1)
    unary = st.sampled_from([Not, Box, Diamond, Actually])
    binary = st.sampled_from([Implies, And, Or, Iff, Xor])
    return st.one_of(
        leaves,
        st.builds(lambda op, f: op(f), unary, sub),
        st.builds(lambda op, f, g: op(f, g), binary, sub, sub))
