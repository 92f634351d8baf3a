import collections
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from finmodal.formulas import (
    INDIVIDUAL, PROPOSITION, REL1, SECOND_ORDER, Relation,
    Actually, And, Box, Const, Description, Diamond, Encode, Exemplify,
    Exists, Forall, Iff, Implies, Lambda, MacroFormula, MacroTerm, Not, Or,
    PrimitiveEq, SOAtom, Var, Xor, beta_normalize, free_names, subnodes,
)
from finmodal.kripke import (
    RELSPACE_LIMIT, ColumnSpace, EvalError, KripkeInterpretation, Validity,
    compile_mask, compile_masks, compile_world, evaluate, frame_check,
    frames_for, full_relspace, is_rigid_value, proposition_of, total_access,
    validity,
)
from finmodal.macros import expand_derived
from finmodal.modelfind import (
    _MissingBit, _PartialDenot, _PartialTable, count_frames,
)
from finmodal.parser import parse_formula
from finmodal.signature import LogicTag, Mode, Signature

from conftest import fresh, propositional_formulas, random_formula


SIG2 = Signature(Mode.CLASSICAL, LogicTag.K,
                 {"p": PROPOSITION, "q": PROPOSITION})
S5SIG = Signature(Mode.CLASSICAL, LogicTag.S5TOTAL,
                  {"p": PROPOSITION, "q": PROPOSITION})


def k_models(n_worlds, sig=SIG2):
    for bits in range(1 << (n_worlds * n_worlds)):
        R = frozenset((w, v) for w in range(n_worlds) for v in range(n_worlds)
                      if (bits >> (w * n_worlds + v)) & 1)
        for pv in range(1 << n_worlds):
            for qv in range(1 << n_worlds):
                yield KripkeInterpretation(sig, n_worlds, 1, R,
                                           {"p": pv, "q": qv})


def s5_models(max_worlds, sig=S5SIG):
    for n in range(1, max_worlds + 1):
        for pv in range(1 << n):
            for qv in range(1 << n):
                yield KripkeInterpretation(sig, n, 1, total_access(n),
                                           {"p": pv, "q": qv})


def test_one_world_box_is_identity():
    f = parse_formula("[]p <-> p", S5SIG)
    for pv in (0, 1):
        m = KripkeInterpretation(S5SIG, 1, 1, total_access(1),
                                 {"p": pv, "q": 0})
        assert evaluate(f, m, {}, 0)


def test_kdia_lemma_valid_on_all_small_s5_models():
    f = parse_formula("[](p -> q) -> (<>p -> <>q)", S5SIG)
    count = 0
    for m in s5_models(3):
        for w in range(m.n_worlds):
            assert evaluate(f, m, {}, w)
            count += 1
    assert count == (4 * 1) + (16 * 2) + (64 * 3)


def test_five_axiom_fails_on_some_two_world_k_model():
    # oracle: brute force over every 2-world frame and valuation
    f = parse_formula("<>p -> []<>p", SIG2)
    failures = [
        (m, w) for m in k_models(2)
        for w in range(2) if not evaluate(f, m, {}, w)
    ]
    assert failures
    m, w = failures[0]
    assert not frame_check(m, LogicTag.S5TOTAL)


def test_proposition_of_top_and_actually():
    top = parse_formula("p -> p", S5SIG)
    m = KripkeInterpretation(S5SIG, 2, 1, total_access(2), {"p": 0b10, "q": 0})
    assert proposition_of(top, m, {}) == (True, True)
    act = parse_formula("@p", S5SIG)
    assert proposition_of(act, m, {}) == (False, False)  # p false at w0


def test_box_vector_matches_definition_unfolding():
    rng = random.Random(5)
    f = Box(Exemplify(Const("p", PROPOSITION), ()))
    for _ in range(50):
        n = rng.randint(1, 3)
        R = frozenset((w, v) for w in range(n) for v in range(n)
                      if rng.random() < 0.5)
        pv = rng.randrange(1 << n)
        m = KripkeInterpretation(SIG2, n, 1, R, {"p": pv, "q": 0})
        vec = proposition_of(f, m, {})
        for w in range(n):
            want = all((pv >> v) & 1 for v in range(n) if (w, v) in R)
            assert vec[w] == want


def test_validity_modes():
    p = parse_formula("p", S5SIG)
    m = KripkeInterpretation(S5SIG, 2, 1, total_access(2), {"p": 0b01, "q": 0})
    assert validity(p, m, Validity.ACTUAL)
    assert not validity(p, m, Validity.NECESSARY)
    top = parse_formula("p -> p", S5SIG)
    assert validity(top, m, Validity.NECESSARY)


def test_necessary_implies_actual():
    rng = random.Random(9)
    for m in itertools.islice(k_models(2), 0, 200, 7):
        f = random_formula(rng, SIG2, 2, quantifiers=False)
        from finmodal.formulas import free_vars
        if free_vars(f):
            continue
        if validity(f, m, Validity.NECESSARY):
            assert validity(f, m, Validity.ACTUAL)


def test_open_formula_rejected():
    f = Exemplify(Const("S", REL1), (Var("x", INDIVIDUAL),))
    sig = Signature(Mode.CLASSICAL, LogicTag.K, {"S": REL1})
    m = KripkeInterpretation(sig, 1, 1, frozenset(), {"S": 0})
    with pytest.raises(EvalError):
        validity(f, m, Validity.ACTUAL)


def test_frame_check_examples():
    m_total = KripkeInterpretation(SIG2, 2, 1, total_access(2),
                                   {"p": 0, "q": 0})
    assert frame_check(m_total, LogicTag.S5TOTAL)
    assert frame_check(m_total, LogicTag.KB)
    m_one_way = KripkeInterpretation(SIG2, 2, 1, frozenset({(0, 1)}),
                                     {"p": 0, "q": 0})
    assert not frame_check(m_one_way, LogicTag.KB)
    assert frame_check(m_one_way, LogicTag.K)
    rng = random.Random(2)
    for _ in range(30):
        pairs = {(w, v) for w in range(3) for v in range(3)
                 if rng.random() < 0.4}
        sym = frozenset(pairs | {(v, w) for (w, v) in pairs})
        m = KripkeInterpretation(SIG2, 3, 1, sym, {"p": 0, "q": 0})
        assert frame_check(m, LogicTag.KB) == all(
            (v, w) in sym for (w, v) in sym)


def test_interpretation_and_frame_guards():
    with pytest.raises(EvalError, match="must be non-empty"):
        KripkeInterpretation(SIG2, 0, 1, frozenset(), {"p": 0, "q": 0})
    with pytest.raises(EvalError, match="total accessibility"):
        KripkeInterpretation(S5SIG, 2, 1, frozenset({(0, 1)}),
                             {"p": 0, "q": 0})
    with pytest.raises(EvalError, match=f"limit is {RELSPACE_LIMIT}"):
        full_relspace(1, RELSPACE_LIMIT + 1)
    m = KripkeInterpretation(SIG2, 1, 1, frozenset(), {"p": 0, "q": 0})
    with pytest.raises(ValueError):
        frame_check(m, "T")


def test_stored_attribute_keeps_its_doc_on_the_class():
    # read on the class, a stored attribute is its descriptor, which
    # carries the method's doc for help()
    assert KripkeInterpretation.successor_lists.__doc__ == (
        "Per world, the tuple of `successors(w)`.")


def test_zero_place_lambda_denotes_its_body():
    # [\ ~~p] is the proposition p, so it equals q exactly where p and q
    # have one value, by each evaluator
    f = parse_formula("[\\ ~~p] = q", SIG2)
    holds_mask, holds_world = compile_mask(f), compile_world(f)
    for m in k_models(2):
        want = m.denot["p"] == m.denot["q"]
        assert holds_mask(m, {}) == (0b11 if want else 0)
        for w in range(2):
            assert evaluate(f, m, {}, w) == want
            assert holds_world(m, {}, w) == want


def frames_by_filter(logic, n_worlds):
    """The frame class by its defining filter: every subset of the pairs in
    increasing order of its bits (w * n_worlds + v), K keeping all, KB the
    symmetric ones and S5 only the total relation."""
    if logic is LogicTag.S5TOTAL:
        return [total_access(n_worlds)]
    pairs = [(w, v) for w in range(n_worlds) for v in range(n_worlds)]
    out = []
    for bits in range(1 << len(pairs)):
        R = frozenset(p for k, p in enumerate(pairs) if (bits >> k) & 1)
        if logic is LogicTag.KB and any((v, w) not in R for (w, v) in R):
            continue
        out.append(R)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("logic", list(LogicTag))
def test_frames_for_lists_the_class_in_bit_order(logic, n):
    frames = frames_for(logic, n)
    assert list(frames) == frames_by_filter(logic, n)
    assert count_frames(logic, n) == len(frames)
    again = pickle.loads(pickle.dumps(frames))
    assert again == frames and again.generators == frames.generators


def into_by_edges(space):
    """space.into by one shift-or per edge of every frame."""
    n, per_block = space.n_worlds, space.n_columns // len(space.frames)
    block = space.slots[0] & ((1 << (per_block * n)) - 1)
    out = [0] * n
    for i, R in enumerate(space.frames):
        first = block << (i * per_block * n)
        for w, v in R:
            out[v] |= first << w
    return tuple(out)


@pytest.mark.parametrize("logic", list(LogicTag))
def test_cube_into_matches_per_edge_loop(logic):
    # a class listing is laid out by doubling over its generators, the
    # same frames as a plain tuple one cube per frame
    for n in (1, 2, 3):
        frames = frames_for(logic, n)
        for k in (0, 1, 2):
            names = ("p", "q")[:k]
            for actual in range(n):
                space = ColumnSpace.product(n, frames, names, range(1 << n),
                                            actual)
                assert space.frames is frames
                want = into_by_edges(space)
                assert space.into == want
                plain = ColumnSpace.product(n, list(frames), names,
                                            range(1 << n), actual)
                assert plain.into == want


def test_k_space_at_four_worlds_lays_out_at_once():
    # 65 536 frames: one shift per edge per frame took seconds
    start = time.perf_counter()
    space = ColumnSpace.product(4, frames_for(LogicTag.K, 4), (), range(16))
    assert len(space.into) == 4
    assert time.perf_counter() - start < 0.5


def test_monotone_frame_hierarchy():
    # anything necessary on every 2-world K model stays so on KB and S5
    rng = random.Random(13)
    formulas = [random_formula(rng, SIG2, 2, quantifiers=False) for _ in range(40)]
    from finmodal.formulas import free_vars
    formulas = [f for f in formulas if not free_vars(f)]
    k_all = list(k_models(2))
    for f in formulas:
        if all(validity(f, m, Validity.NECESSARY) for m in k_all):
            for m in k_all:
                if frame_check(m, LogicTag.KB):
                    assert validity(f, m, Validity.NECESSARY)
            for m in s5_models(2):
                assert validity(f, m, Validity.NECESSARY)


def test_necessitation_semantically_sound():
    rng = random.Random(17)
    for m in itertools.islice(k_models(2), 0, 256, 5):
        f = random_formula(rng, SIG2, 2, quantifiers=False)
        from finmodal.formulas import free_vars
        if free_vars(f):
            continue
        if all(evaluate(f, m, {}, w) for w in range(m.n_worlds)):
            assert all(evaluate(Box(f), m, {}, w) for w in range(m.n_worlds))


def test_substitution_lemma_against_eval():
    # eval(f[x := t]) equals eval(f) with x assigned t's value
    sig = Signature(Mode.CLASSICAL, LogicTag.K,
                    {"S": REL1, "c": INDIVIDUAL, "p": PROPOSITION})
    rng = random.Random(23)
    x = Var("x", INDIVIDUAL)
    t = Const("c", INDIVIDUAL)
    from finmodal.formulas import substitute
    from finmodal.kripke import term_value
    for _ in range(60):
        n_w = rng.randint(1, 3)
        n_d = rng.randint(1, 2) if n_w < 3 else 1
        R = frozenset((w, v) for w in range(n_w) for v in range(n_w)
                      if rng.random() < 0.5)
        m = KripkeInterpretation(
            sig, n_w, n_d, R,
            {"S": rng.randrange(1 << (n_d * n_w)),
             "c": rng.randrange(n_d), "p": rng.randrange(1 << n_w)},
            relspace=full_relspace(n_d, n_w))
        f = random_formula(rng, sig, 2, scope=[x])
        g = substitute(f, x, t)
        for w in range(n_w):
            lhs = evaluate(g, m, {}, w)
            rhs = evaluate(f, m, {"x": term_value(t, m, {})}, w)
            assert lhs == rhs


def test_rigid_value_counts():
    # at two individuals over two worlds exactly 2^2 values are rigid
    rigid = [v for v in full_relspace(2, 2) if is_rigid_value(v, 2, 2)]
    assert len(rigid) == 4


# ---------------------------------------------------------------------------
# The compiled world-mask evaluator against the per-world one

P = Exemplify(Const("p", PROPOSITION), ())
Q = Exemplify(Const("q", PROPOSITION), ())


@st.composite
def modal_formulas(draw, depth=4, scope=()):
    """Closed formulas over p and q; individual variables in scope may be
    compared with primitive equality."""
    atoms = [P, Q] + [PrimitiveEq(u, v) for u in scope for v in scope]
    if depth == 0:
        return draw(st.sampled_from(atoms))
    ops = ["atom", "not", "box", "dia", "act", "imp", "and", "or", "iff",
           "xor", "all", "ex", "lam0"] + (["lam1"] if scope else [])
    op = draw(st.sampled_from(ops))
    sub = lambda sc=scope: draw(modal_formulas(depth - 1, sc))
    if op == "atom":
        return draw(st.sampled_from(atoms))
    unary = {"not": Not, "box": Box, "dia": Diamond, "act": Actually}
    if op in unary:
        return unary[op](sub())
    binary = {"imp": Implies, "and": And, "or": Or, "iff": Iff, "xor": Xor}
    if op in binary:
        return binary[op](sub(), sub())
    v = Var(f"x{len(scope)}", INDIVIDUAL)
    if op in ("all", "ex"):
        return (Forall if op == "all" else Exists)(v, sub(scope + (v,)))
    if op == "lam0":
        return Exemplify(Lambda((), sub()), ())
    arg = draw(st.sampled_from(scope))
    return Exemplify(Lambda((v,), sub(scope + (v,))), (arg,))


K_MODELS_2 = [
    KripkeInterpretation(SIG2, n, 2, R, {"p": pv, "q": qv}, actual=act)
    for n in (1, 2) for R in frames_for(LogicTag.K, n)
    for pv in range(1 << n) for qv in range(1 << n) for act in range(n)
]


@settings(max_examples=60, deadline=None)
@given(modal_formulas())
def test_compiled_mask_matches_evaluate(f):
    g = beta_normalize(expand_derived(f))
    holds = compile_mask(g)
    for m in K_MODELS_2:
        mask = holds(m, {})
        assert mask >> m.n_worlds == 0
        for w in range(m.n_worlds):
            assert bool((mask >> w) & 1) == evaluate(g, m, {}, w)


SIG3 = Signature(Mode.CLASSICAL, LogicTag.K,
                 {"p": PROPOSITION, "q": PROPOSITION, "r": PROPOSITION})


@settings(max_examples=80, deadline=None)
@given(propositional_formulas(("p", "q", "r")), st.integers(1, 3), st.data())
def test_column_space_matches_each_column(f, n, data):
    # one block of columns per frame, each block the same valuations; each
    # column is checked world by world against evaluate's walk over
    # successors, which shares no code with the space's box
    worlds = st.integers(0, n - 1)
    frames = data.draw(st.lists(
        st.frozensets(st.tuples(worlds, worlds)), min_size=1, max_size=3))
    actual = data.draw(worlds)
    values = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                                min_size=1, max_size=4))
    names = ("p", "q", "r")
    space = ColumnSpace.product(n, frames, names, values, actual)
    g = beta_normalize(expand_derived(f))
    mask = compile_mask(g)(space, {})
    assert mask >> (space.n_columns * n) == 0
    # the columns in itertools.product's order: the first name outermost
    columns = list(itertools.product(frames, itertools.product(values, repeat=3)))
    assert space.n_columns == len(columns)
    for c, (access, column) in enumerate(columns):
        assert space.column(c) == (access, column)
        m = KripkeInterpretation(SIG3, n, 1, access, dict(zip(names, column)),
                                 actual=actual)
        for w in range(n):
            assert bool((mask >> (c * n + w)) & 1) == evaluate(g, m, {}, w)


SIG_SP = Signature(Mode.CLASSICAL, LogicTag.K, {"S": REL1, "p": PROPOSITION})


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 2), st.integers(1, 2),
       st.data())
def test_first_order_column_space_matches_each_column(rng, n, n_d, data):
    # S's word holds one block of width bits per individual; each column,
    # under every assignment of the free individual variables, is checked
    # world by world against evaluate on that column's own interpretation
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    f = random_formula(rng, SIG_SP, 3, scope=[x, y], first_order=True)
    g = beta_normalize(expand_derived(f))
    worlds = st.integers(0, n - 1)
    frames = data.draw(st.lists(
        st.frozensets(st.tuples(worlds, worlds)), min_size=1, max_size=3))
    actual = data.draw(worlds)
    valuations = data.draw(st.lists(
        st.tuples(st.integers(0, (1 << (n_d * n)) - 1),
                  st.integers(0, (1 << n) - 1)), min_size=1, max_size=4))
    columns = list(itertools.product(frames, valuations))
    width, one = len(columns) * n, (1 << n) - 1
    S = p = 0
    for c, (_, (sval, pval)) in enumerate(columns):
        p |= pval << (c * n)
        for d in range(n_d):
            S |= ((sval >> (d * n)) & one) << (d * width + c * n)
    space = ColumnSpace(n, tuple(frames), len(columns), {"S": S, "p": p},
                        actual, n_individuals=n_d)
    assert space.width == width
    holds = compile_mask(g)
    fv = sorted(free_names(g))
    for ds in itertools.product(range(n_d), repeat=len(fv)):
        a = dict(zip(fv, ds))
        mask = holds(space, a)
        assert mask >> width == 0
        for c, (access, (sval, pval)) in enumerate(columns):
            m = KripkeInterpretation(SIG_SP, n, n_d, access,
                                     {"S": sval, "p": pval}, actual=actual)
            for w in range(n):
                assert bool((mask >> (c * n + w)) & 1) == evaluate(g, m, a, w)


def _shared_formulas():
    """Formulas over S x, S y, p, x = y and a falsum by ~, ->, [], @ and
    all over x or y, with a few leaves that raise (an uninterpreted q, a
    derived And) and one outside the ColumnSpace fragment (a lambda). A
    falsum to the left of -> leaves its right side unread."""
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    S, p = Const("S", REL1), Exemplify(Const("p", PROPOSITION), ())
    Sx, Sy = Exemplify(S, (x,)), Exemplify(S, (y,))
    atoms = st.sampled_from([Sx, Sy, p, PrimitiveEq(x, y),
                             Not(Implies(p, p))])
    odd = st.sampled_from([Exemplify(Const("q", PROPOSITION), ()),
                           And(p, Sx),
                           Exemplify(Lambda((x,), Box(Sx)), (y,))])
    leaves = st.one_of(atoms, atoms, atoms, odd)
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Actually, sub),
        st.builds(Implies, sub, sub),
        st.builds(Forall, st.sampled_from([x, y]), sub)), max_leaves=8)


def _sp_space(data, n, n_d):
    """A random ColumnSpace over S and p: a few frames, each with the
    same few valuations, as in the first-order column-space test."""
    worlds = st.integers(0, n - 1)
    frames = data.draw(st.lists(
        st.frozensets(st.tuples(worlds, worlds)), min_size=1, max_size=2))
    valuations = data.draw(st.lists(
        st.tuples(st.integers(0, (1 << (n_d * n)) - 1),
                  st.integers(0, (1 << n) - 1)), min_size=1, max_size=3))
    columns = list(itertools.product(frames, valuations))
    width, one = len(columns) * n, (1 << n) - 1
    S = p = 0
    for c, (_, (sval, pval)) in enumerate(columns):
        p |= pval << (c * n)
        for d in range(n_d):
            S |= ((sval >> (d * n)) & one) << (d * width + c * n)
    return ColumnSpace(n, tuple(frames), len(columns), {"S": S, "p": p},
                       data.draw(worlds), n_individuals=n_d)


def _mask_or_error(fn, m, a):
    try:
        return fn(m, a)
    except EvalError as e:
        return f"EvalError: {e}"


@settings(max_examples=100, deadline=None)
@given(st.lists(_shared_formulas(), min_size=1, max_size=6), st.data())
def test_compile_masks_matches_compile_mask(roots, data):
    # every root answers as compile_mask does, raising the same EvalError
    # where it raises, whatever the other roots, spaces and assignments
    # the shared program has seen; copies of roots share their nodes
    roots += [fresh(r) for r in data.draw(st.lists(st.sampled_from(roots),
                                                   max_size=2))]
    programs = compile_masks(roots)
    assert len(programs) == len(roots)
    n_d = data.draw(st.integers(1, 2))
    spaces = [_sp_space(data, data.draw(st.integers(1, 2)), n_d)
              for _ in range(2)]
    assignment = st.dictionaries(st.sampled_from("xy"),
                                 st.integers(0, n_d - 1), max_size=2)
    calls = data.draw(st.lists(st.tuples(
        st.integers(0, len(roots) - 1), st.sampled_from(spaces), assignment),
        min_size=1, max_size=12))
    for i, m, a in calls:
        assert _mask_or_error(programs[i], m, a) == _mask_or_error(
            compile_mask(roots[i]), m, a)


def test_compile_masks_evaluates_each_node_once(monkeypatch):
    # each distinct node is worked out once per space and values of its
    # free variables, under any root, assignment and bound value
    from finmodal import kripke
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    S, p = Const("S", REL1), Exemplify(Const("p", PROPOSITION), ())
    Sx, Sy = Exemplify(S, (x,)), Exemplify(S, (y,))
    inner = Forall(y, Implies(Sy, Box(Sx)))
    roots = [Implies(Forall(x, inner), inner), Not(Box(Sx)),
             Implies(p, fresh(inner)), Forall(x, Implies(p, Box(Sx)))]
    spaces = [ColumnSpace(n, (frozenset({(0, n - 1)}),), 1,
                          {"S": 0b0110, "p": 1}, n_individuals=2)
              for n in (1, 2)]
    calls = [(m, i, dict(zip(sorted(free_names(root)), ds)))
             for m in spaces for i, root in enumerate(roots)
             for ds in itertools.product(range(2),
                                         repeat=len(free_names(root)))]
    want = [compile_mask(roots[i])(m, a) for m, i, a in calls]
    evaluations = collections.Counter()
    real = kripke._mask_node

    def counted(f, sub):
        fn, names = real(f, sub), sorted(free_names(f))

        def run(m, a):
            evaluations[f, id(m), tuple(a[n] for n in names)] += 1
            return fn(m, a)
        return run
    monkeypatch.setattr(kripke, "_mask_node", counted)
    programs = compile_masks(roots)
    assert [programs[i](m, a) for m, i, a in calls] == want
    distinct = {n for r in roots for n in subnodes(r)
                if not isinstance(n, (Var, Const))}
    assert {f for f, _, _ in evaluations} == distinct
    assert set(evaluations.values()) == {1}


def test_block_reads_the_columns_of_one_frame():
    # bits c * n .. c * n + n - 1 of block(x, i) are column
    # i * per_block + c of x, over a FrameCube and over a plain tuple
    cube = frames_for(LogicTag.K, 2)
    for frames in (cube, tuple(reversed(cube))):
        space = ColumnSpace.product(2, frames, ("p", "q"), (0b01, 0b10, 0b11))
        assert space.per_block == 9
        for i, frame in enumerate(frames):
            blocks = [space.block(word, i) for word in space.denot.values()]
            assert all(b >> (9 * 2) == 0 for b in blocks)
            for c in range(9):
                assert space.column(i * 9 + c) == (
                    frame, tuple((b >> (c * 2)) & 0b11 for b in blocks))
    m = KripkeInterpretation(SIG2, 2, 1, frozenset({(0, 1)}),
                             {"p": 0b01, "q": 0b10})
    assert m.per_block == 1
    assert m.block(0b10, 0) == 0b10


def test_compilers_reject_derived_constructs():
    # the compilers take only beta_normalize(expand_derived(f))
    m = KripkeInterpretation(SIG2, 2, 1, frozenset({(0, 1)}),
                             {"p": 0b01, "q": 0b10})
    p, q = (Exemplify(Const(a, PROPOSITION), ()) for a in ("p", "q"))
    x = Var("x", INDIVIDUAL)
    for f, name in [(And(p, q), "And"), (Diamond(p), "Diamond"),
                    (Exists(x, p), "Exists"),
                    (MacroFormula("dn", (Const("p", PROPOSITION),)),
                     "MacroFormula"),
                    (Exemplify(MacroTerm("O!"), (x,)), "term MacroTerm")]:
        holds = compile_mask(f)  # building never raises; calling does
        with pytest.raises(EvalError, match=f"cannot evaluate {name}"):
            holds(m, {})
        with pytest.raises(EvalError, match=f"cannot evaluate {name}"):
            compile_world(f)(m, {}, 0)


def test_unsupported_constructs_raise_from_both_evaluators():
    sig = Signature(Mode.CLASSICAL, LogicTag.K,
                    {"S": REL1, "c": INDIVIDUAL, "p": PROPOSITION})
    m = KripkeInterpretation(sig, 2, 1, frozenset({(0, 1)}),
                             {"S": 0b01, "c": 0, "p": 0b10})
    x, y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL)
    S, c = Const("S", REL1), Const("c", INDIVIDUAL)
    cases = [
        Encode(c, S),
        Exemplify(S, (Description(x, Exemplify(S, (x,))),)),
        Exemplify(Lambda((x, y), PrimitiveEq(x, y)), (c, c)),
        Forall(Var("R", Relation(2)), P),
        Forall(Var("Y", REL1), P),  # m has no relation space
        Exemplify(S, (x,)),
        # a constant-free lambda, whose compiled value is kept per
        # assignment of its free variables, with one unassigned
        PrimitiveEq(Lambda((), Exemplify(Var("r", PROPOSITION), ())),
                    Const("p", PROPOSITION)),
        Exemplify(Const("r", PROPOSITION), ()),
        SOAtom(Const("G", SECOND_ORDER), S),
    ]
    for f in cases:
        holds = compile_mask(f)  # building never raises; calling does
        with pytest.raises(EvalError) as per_world:
            evaluate(f, m, {}, 0)
        with pytest.raises(EvalError) as masked:
            holds(m, {})
        assert str(masked.value) == str(per_world.value)
        with pytest.raises(EvalError) as compiled:
            compile_world(f)(m, {}, 0)
        assert str(compiled.value) == str(per_world.value)


def test_out_of_table_second_order_atom_reads_false():
    sig = Signature(Mode.CLASSICAL, LogicTag.K,
                    {"G": SECOND_ORDER, "S": REL1})
    f = SOAtom(Const("G", SECOND_ORDER), Const("S", REL1))
    m = KripkeInterpretation(sig, 2, 1, frozenset(), {"G": {0: 0b11}, "S": 1})
    assert compile_mask(f)(m, {}) == 0
    assert not any(evaluate(f, m, {}, w) for w in range(2))
    m.denot["S"] = 0
    assert compile_mask(f)(m, {}) == 0b11


# ---------------------------------------------------------------------------
# The compiled per-world evaluator against the reference, on complete and on
# partially assigned interpretations

G = Const("G", SECOND_ORDER)
S1 = Const("S", REL1)
R2 = Const("R", Relation(2))
C = Const("c", INDIVIDUAL)
SIG_SO = Signature(Mode.CLASSICAL, LogicTag.K,
                   {"G": SECOND_ORDER, "S": REL1, "R": Relation(2),
                    "c": INDIVIDUAL, "p": PROPOSITION})


@st.composite
def so_formulas(draw, depth=3, inds=(), rels=()):
    """Closed formulas with second-order atoms over relation constants,
    relation variables and 1-place lambdas, modal operators, and individual
    and relation quantifiers; rarely an uninterpretable construct."""
    ind_terms = [C, *inds]
    rel_terms = [S1, *rels]

    def atom():
        kind = draw(st.sampled_from(
            ["prop", "unary", "binary", "eq", "so", "so", "unsupported"]))
        if kind == "prop":
            return P
        if kind == "unary":
            return Exemplify(draw(st.sampled_from(rel_terms)),
                             (draw(st.sampled_from(ind_terms)),))
        if kind == "binary":
            return Exemplify(R2, (draw(st.sampled_from(ind_terms)),
                                  draw(st.sampled_from(ind_terms))))
        if kind == "eq":
            return PrimitiveEq(draw(st.sampled_from(ind_terms)),
                               draw(st.sampled_from(ind_terms)))
        if kind == "so":
            return SOAtom(G, draw(st.sampled_from(rel_terms)))
        return draw(st.sampled_from([
            Encode(C, S1),
            Exemplify(S1, (Description(Var("z", INDIVIDUAL), P),)),
        ]))

    if depth == 0:
        return atom()
    op = draw(st.sampled_from(
        ["atom", "not", "box", "dia", "act", "imp", "and", "or", "iff",
         "xor", "all", "ex", "allrel", "exrel", "lam0", "lam1", "so_lam"]))
    def sub(inds=inds, rels=rels):
        return draw(so_formulas(depth - 1, inds, rels))

    if op == "atom":
        return atom()
    unary = {"not": Not, "box": Box, "dia": Diamond, "act": Actually}
    if op in unary:
        return unary[op](sub())
    binary = {"imp": Implies, "and": And, "or": Or, "iff": Iff, "xor": Xor}
    if op in binary:
        return binary[op](sub(), sub())
    x = Var(f"x{len(inds)}", INDIVIDUAL)
    y = Var(f"Y{len(rels)}", REL1)
    if op in ("all", "ex"):
        return (Forall if op == "all" else Exists)(x, sub(inds + (x,)))
    if op in ("allrel", "exrel"):
        return (Forall if op == "allrel" else Exists)(y, sub(rels=rels + (y,)))
    if op == "lam0":
        return Exemplify(Lambda((), sub()), ())
    if op == "lam1":
        return Exemplify(Lambda((x,), sub(inds + (x,))),
                         (draw(st.sampled_from(ind_terms)),))
    return SOAtom(G, Lambda((x,), sub(inds + (x,))))


class _Reads:
    """A denotation dict that records each read in its log."""

    def __getitem__(self, key):
        self.log.append((self.label, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.append((self.label, key))
        return super().get(key, default)


class _ReadDict(_Reads, dict):
    pass


class _ReadDenot(_Reads, _PartialDenot):
    pass


class _ReadTable(_Reads, _PartialTable):
    pass


def _random_interpretation(rng, n_worlds, n_individuals, partial, log):
    """An interpretation of SIG_SO on a random K frame whose denotations
    record every read in log. Some rows of G are left out; under partial,
    so are some scalar constants and rows of R, and a missing entry reads as
    unassigned rather than out of domain."""
    relspace = full_relspace(n_individuals, n_worlds)
    access = rng.choice(frames_for(LogicTag.K, n_worlds))
    denot = _ReadDenot() if partial else _ReadDict()
    g = _ReadTable("G") if partial else _ReadDict()
    r = _ReadTable("R") if partial else _ReadDict()
    for d, label in ((denot, "denot"), (g, "G"), (r, "R")):
        d.log, d.label = log, label
    for v in relspace:
        if rng.random() < (0.6 if partial else 0.9):
            g[v] = rng.randrange(1 << n_worlds)
    for ds in itertools.product(range(n_individuals), repeat=2):
        if not partial or rng.random() < 0.7:
            r[ds] = rng.randrange(1 << n_worlds)
    denot["G"], denot["R"] = g, r
    scalars = {"S": rng.randrange(1 << (n_individuals * n_worlds)),
               "c": rng.randrange(n_individuals),
               "p": rng.randrange(1 << n_worlds)}
    for name, value in scalars.items():
        if not partial or rng.random() < 0.7:
            denot[name] = value
    return KripkeInterpretation(SIG_SO, n_worlds, n_individuals, access,
                                denot, relspace,
                                actual=rng.randrange(n_worlds))


def _outcome(run, log):
    """What an evaluation does: its value, the missing bit it stops on, or
    the message it fails with; and the reads it made on the way."""
    log.clear()
    try:
        result = ("value", run())
    except _MissingBit as e:
        result = ("missing", e.args[0])
    except EvalError as e:
        result = ("error", str(e))
    return result, tuple(log)


@settings(max_examples=150, deadline=None)
@given(so_formulas(), st.randoms(use_true_random=False))
def test_compiled_world_matches_evaluate(f, rng):
    # the same value, missing bit or error, after the same reads in the
    # same order
    log = []
    g = beta_normalize(expand_derived(f))
    holds = compile_world(g)
    for n_worlds, n_individuals in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for partial in (False, True):
            m = _random_interpretation(rng, n_worlds, n_individuals,
                                       partial, log)
            for w in range(n_worlds):
                want = _outcome(lambda: evaluate(g, m, {}, w), log)
                got = _outcome(lambda: holds(m, {}, w), log)
                assert got == want



def _kept_constructs():
    """so_formulas with their derived connectives expanded and their
    lambdas left unreduced, alone or under a proposition quantifier: second-
    order atoms, relation and proposition quantifiers, 0- and 1-place
    lambdas and n-ary exemplification, which no ColumnSpace holds."""
    var = Var("P", PROPOSITION)
    prop = Exemplify(var, ())
    return st.one_of(
        so_formulas().map(expand_derived),
        so_formulas().map(lambda f: Forall(var, Implies(
            Box(prop), Not(Implies(expand_derived(f), prop))))))


@settings(max_examples=100, deadline=None)
@given(st.lists(_kept_constructs(), min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.data())
def test_compile_masks_matches_compile_mask_on_interpretations(roots, rng,
                                                               data):
    # on complete interpretations every node is kept, whatever its
    # construct: every root answers as compile_mask does, raising the same
    # EvalError where it raises, across repeated calls and interpretations
    roots += [fresh(r) for r in data.draw(st.lists(st.sampled_from(roots),
                                                   max_size=2))]
    programs = compile_masks(roots)
    models = [_random_interpretation(rng, n_w, n_d, False, [])
              for n_w, n_d in ((1, 1), (2, 1), (1, 2), (2, 2))]
    calls = data.draw(st.lists(st.tuples(
        st.integers(0, len(roots) - 1), st.sampled_from(models)),
        min_size=1, max_size=12))
    for i, m in calls:
        assert _mask_or_error(programs[i], m, {}) == _mask_or_error(
            compile_mask(roots[i]), m, {})


def _redenote(rng, m):
    """Set or clear one denotation entry of a partial interpretation from
    _random_interpretation in place, as model search does between calls."""
    n_w, n_d = m.n_worlds, m.n_individuals
    which = rng.choice(["p", "c", "S", "G", "R"])
    if which == "G":
        target, key = m.denot["G"], rng.choice(m.relspace)
    elif which == "R":
        target, key = m.denot["R"], (rng.randrange(n_d), rng.randrange(n_d))
    else:
        target, key = m.denot, which
    if key in target and rng.random() < 0.5:
        del target[key]
    else:
        target[key] = rng.randrange(
            n_d if which == "c" else 1 << (n_d * n_w if which == "S" else n_w))


@st.composite
def constant_free_lambdas(draw):
    """G applied to a lambda whose body reads no denotation, only the
    variables Y and y bound outside it, under quantifiers over both."""
    x, y, Y = Var("x", INDIVIDUAL), Var("y", INDIVIDUAL), Var("Y", REL1)
    body = draw(st.recursive(
        st.sampled_from([Exemplify(Y, (x,)), Exemplify(Y, (y,)),
                         PrimitiveEq(x, y)]),
        lambda sub: st.one_of(st.builds(Not, sub), st.builds(Box, sub),
                              st.builds(Actually, sub),
                              st.builds(Implies, sub, sub)),
        max_leaves=4))
    inner = SOAtom(G, Lambda((x,), body))
    quantifier = draw(st.sampled_from([Forall, Exists]))
    rest = draw(so_formulas(1, (y,), (Y,)))
    return Forall(Y, quantifier(y, Implies(inner, rest)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(so_formulas(), constant_free_lambdas()),
       st.randoms(use_true_random=False))
def test_compiled_world_follows_denotation_changes(f, rng):
    # one closure called again and again on one partial interpretation
    # whose denotation changes between the calls: the lambda values it
    # keeps on the interpretation never stand in for a changed denotation
    log = []
    g = beta_normalize(expand_derived(f))
    holds = compile_world(g)
    for n_worlds, n_individuals in ((2, 1), (1, 2), (2, 2)):
        m = _random_interpretation(rng, n_worlds, n_individuals, True, log)
        for _ in range(5):
            for w in range(n_worlds):
                want = _outcome(lambda: evaluate(g, m, {}, w), log)
                got = _outcome(lambda: holds(m, {}, w), log)
                assert got == want
            _redenote(rng, m)


X = Var("x", INDIVIDUAL)


def test_constant_free_lambda_value_is_kept_per_interpretation():
    # G applied to "x has a successor world", a lambda that reads no
    # denotation: two interpretations that differ only in frame each get
    # their own value, through one closure
    g = beta_normalize(expand_derived(
        SOAtom(G, Lambda((X,), Diamond(PrimitiveEq(X, X))))))
    holds = compile_world(g)
    table = {0b00: 0b01, 0b11: 0b10, 0b01: 0b00, 0b10: 0b11}
    for access, lam_value in ((frozenset(), 0b00),
                              (total_access(2), 0b11),
                              (frozenset({(1, 0)}), 0b10)):
        m = KripkeInterpretation(SIG_SO, 2, 1, access, {"G": table},
                                 full_relspace(1, 2))
        for w in range(2):
            assert holds(m, {}, w) == evaluate(g, m, {}, w)
            assert holds(m, {}, w) == bool((table[lam_value] >> w) & 1)
        assert list(m.lambda_values.values()) == [lam_value]


def test_lambda_reading_a_constant_is_not_kept():
    g = beta_normalize(expand_derived(
        SOAtom(G, Lambda((X,), Not(Exemplify(S1, (X,)))))))
    denot = _PartialDenot({"G": {v: v for v in range(4)}})
    m = KripkeInterpretation(SIG_SO, 2, 1, frozenset(), denot,
                             full_relspace(1, 2))
    holds = compile_world(g)
    with pytest.raises(_MissingBit):
        holds(m, {}, 0)
    for s in range(4):
        denot["S"] = s
        assert [holds(m, {}, w) for w in range(2)] == [
            bool(((3 ^ s) >> w) & 1) for w in range(2)]
    assert m.lambda_values == {}
