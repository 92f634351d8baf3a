import random

import pytest
from hypothesis import strategies as st

from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1,
    Actually, And, Box, Const, Diamond, Encode, Exemplify, Exists, Forall,
    Iff, Implies, Not, Or, Var, Xor,
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


def random_formula(rng: random.Random, sig: Signature, depth: int,
                   scope=None, allow_encode=False, quantifiers=True):
    """A well-sorted random formula over the signature's constants."""
    scope = list(scope or [])
    prop_consts = [n for n, s in sig.consts.items()
                   if s.kind == "rel" and s.arity == 0]
    ind_terms = [Const(n, INDIVIDUAL) for n, s in sig.consts.items()
                 if s.kind == "ind"]
    ind_terms += [v for v in scope if v.sort == INDIVIDUAL]
    rel_terms = [Const(n, REL1) for n, s in sig.consts.items()
                 if s.kind == "rel" and s.arity == 1]
    rel_terms += [v for v in scope if v.sort == REL1]

    def atom():
        choices = []
        if prop_consts:
            choices.append("p")
        if rel_terms and ind_terms:
            choices.append("exem")
            if allow_encode:
                choices.append("encode")
        kind = rng.choice(choices)
        if kind == "p":
            return Exemplify(Const(rng.choice(prop_consts), PROPOSITION), ())
        if kind == "encode":
            return Encode(rng.choice(ind_terms), rng.choice(rel_terms))
        return Exemplify(rng.choice(rel_terms), (rng.choice(ind_terms),))

    if depth == 0:
        return atom()
    ops = ["not", "box", "dia", "act", "imp", "and", "or", "iff", "xor",
           "atom"]
    if quantifiers and ind_terms:
        ops += ["all_i", "ex_i"]
    if quantifiers and (rel_terms or prop_consts):
        ops += ["all_r"]
    op = rng.choice(ops)
    sub = lambda: random_formula(rng, sig, depth - 1, scope, allow_encode,
                                 quantifiers)
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
        body = random_formula(rng, sig, depth - 1, scope + [v],
                              allow_encode, quantifiers)
        return (Forall if op == "all_i" else Exists)(v, body)
    v = Var(f"Y{len(scope)}", REL1)
    body = random_formula(rng, sig, depth - 1, scope + [v],
                          allow_encode, quantifiers)
    return Forall(v, body)


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
