"""Term algebra: grading, canonical indexing, text forms, dual evaluation."""

import copy
import dataclasses
import gc
import itertools
import json
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import gates, terms
from qarith.gates import GateKind, GateProgram, GateStep
from qarith.logic import eval_with_gates
from qarith.states import Ket
from qarith.terms import (
    FREE,
    MAX_TERM_DEPTH,
    MAX_WALK_DEPTH,
    ArityError,
    BinOp,
    EvalReport,
    FreeVar,
    Node,
    TermDepthError,
    TermSyntaxError,
    arity,
    bijection_report,
    class_of,
    class_size,
    compile_term,
    cumulative_size,
    decompose_index,
    enumerate_class,
    evaluate_gates,
    evaluate_oracle,
    index_of,
    parse_term,
    render_infix,
    render_term,
    term_of,
)

P, T = BinOp.PLUS, BinOp.TIMES


def node(op, left, right):
    return Node(op, left, right)


ELEM_PLUS = node(P, FREE, FREE)
ELEM_TIMES = node(T, FREE, FREE)


def test_class_sizes_closed_form():
    # next class: 2 * (723^2 - 19^2)
    assert class_size(3) == 2 * (723**2 - 19**2)


def test_class_of():
    assert class_of(FREE) == 0
    assert class_of(ELEM_PLUS) == 0
    assert class_of(ELEM_TIMES) == 0
    assert class_of(node(P, FREE, ELEM_PLUS)) == 1
    assert class_of(node(T, ELEM_TIMES, ELEM_PLUS)) == 1
    assert class_of(node(P, FREE, node(P, node(P, FREE, FREE), FREE))) == 2
    assert class_of(node(P, node(P, FREE, ELEM_PLUS), FREE)) == 2
    assert class_of(term_of(10000)) == 3


def test_arity():
    assert arity(FREE) == 1
    assert arity(ELEM_PLUS) == 2
    assert arity(node(P, ELEM_PLUS, ELEM_TIMES)) == 4
    assert arity(term_of(18)) == 4


def _shape(term):
    """(arity, depth) by walking the tree: the reference for the stored values."""
    if term is FREE:
        return 1, 0
    (la, ld), (ra, rd) = _shape(term.left), _shape(term.right)
    return la + ra, 1 + max(ld, rd)


def _shape_sample():
    """Every term of class <= 2, and a seeded sample of 2,000 class-3 ones."""
    rng = np.random.default_rng(11)
    lo, hi = cumulative_size(2), cumulative_size(3)
    sample = [int(d) for d in rng.integers(lo, hi, size=2000)]
    return [term_of(d) for d in [*range(lo), *sample]]


def test_stored_shape_matches_a_walk():
    for term in _shape_sample():
        for built in (term, parse_term(render_term(term)), parse_term(render_infix(term))):
            assert (built.arity, built.depth) == _shape(term)
            assert arity(built) == built.arity
            assert class_of(built) == max(built.depth - 1, 0)


def test_shape_of_a_deep_chain():
    # Built node by node, so no walk is needed to make it; reading its
    # shape must not need one either.
    term = FREE
    for _ in range(5000):
        term = Node(P, term, FREE)
    assert arity(term) == 5001
    assert class_of(term) == 4999


def test_stored_shape_leaves_identity_alone():
    assert repr(term_of(18)) == (
        "Node(op=<BinOp.TIMES: 2>, left=Node(op=<BinOp.TIMES: 2>, left=FreeVar(), "
        "right=FreeVar()), right=Node(op=<BinOp.TIMES: 2>, left=FreeVar(), right=FreeVar()))"
    )
    twin = node(T, node(T, FREE, FREE), node(T, FREE, FREE))
    assert twin == term_of(18) and hash(twin) == hash(term_of(18))
    assert hash(twin) == hash((twin.op, twin.left, twin.right))
    assert node(P, FREE, FREE) != node(T, FREE, FREE)


def test_elementary_indices():
    assert term_of(0) == FREE
    assert term_of(1) == ELEM_PLUS
    assert term_of(2) == ELEM_TIMES
    assert decompose_index(0) is None
    assert decompose_index(1) == (1, 0, 0)
    assert decompose_index(2) == (2, 0, 0)


def test_enumerate_class0():
    assert list(enumerate_class(0)) == [(0, FREE), (1, ELEM_PLUS), (2, ELEM_TIMES)]
    assert [delta for delta, _ in enumerate_class(1, limit=3)] == [3, 4, 5]
    assert [class_of(term) for _, term in enumerate_class(1)] == [1] * 16
    # The class is checked on the call, before any pair is drawn.
    with pytest.raises(ValueError):
        enumerate_class(-1)


def test_enumerate_class_is_lazy():
    # Three pairs of a 100,000-term class-12 listing build those three
    # terms and their sub-terms, not the whole listing first.
    before = term_of.cache_info().currsize
    pairs = list(itertools.islice(enumerate_class(12, 100_000), 3))
    assert [delta for delta, _ in pairs] == [cumulative_size(11) + r for r in range(3)]
    assert all(class_of(term) == 12 for _, term in pairs)
    assert term_of.cache_info().currsize - before < 100


def test_roundtrip_via_structure():
    term = node(P, node(T, ELEM_PLUS, FREE), node(P, FREE, ELEM_TIMES))
    assert term_of(index_of(term)) == term
    assert class_of(term) == 2


def test_term_of_validation():
    with pytest.raises(ValueError):
        term_of(-1)
    with pytest.raises(ValueError):
        term_of(1.5)  # type: ignore[arg-type]


def test_bool_index_never_reaches_the_table():
    # The table is keyed by int, where True would find the entry of 1.
    assert term_of(1) == ELEM_PLUS and term_of(0) is FREE
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"non-negative integer, got {flag!r}$"):
            term_of(flag)

    class Index(int):
        """An int subclass: accepted as an index."""

    assert term_of(Index(1)) == term_of(1)
    assert term_of(Index(5000)) == term_of(5000)
    with pytest.raises(ValueError):
        term_of(Index(-1))


def _pickled(term):
    return pickle.loads(pickle.dumps(term))


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("delta", [50, 50_000])
def test_terms_copy_before_and_after_their_memos_fill(copier, delta):
    term = term_of(delta)
    for _ in ("memos unset", "memos filled"):
        dup = copier(term)
        assert dup is not term and dup == term and hash(dup) == hash(term)
        assert index_of(dup) == index_of(term) == delta
        assert render_term(dup) == render_term(term)
        assert compile_term(dup) == compile_term(term)
        evaluate_gates(term, (2,) * term.arity).to_json()


def test_cache_clear_drops_what_tabled_terms_keep():
    term = term_of(500)
    compile_term(term), index_of(term), render_term(term)
    assert compile_term.cache_info().currsize >= 1 and index_of.cache_info().currsize >= 1
    compile_term.cache_clear()
    index_of.cache_clear()
    assert compile_term.cache_info() == index_of.cache_info() == (0, 0, 723, 0)
    assert term_of(500) is term
    ones = (1,) * term.arity
    assert index_of(term) == 500 and compile_term(term).run(ones) == evaluate_oracle(term, ones)
    assert compile_term.cache_info()[:2] == (0, 1) and index_of.cache_info().misses > 0
    term_of.cache_clear()
    assert term_of.cache_info() == (0, 0, 723, 0)
    fresh = term_of(500)
    assert fresh is not term and fresh == term
    assert compile_term.cache_info().currsize == index_of.cache_info().currsize == 0


def test_class3_evaluation_keeps_no_term():
    # Only the 723 terms of class <= 2 stay in the table; a class-3 term,
    # with its index, text and circuit, goes when its caller drops it.
    rng = np.random.default_rng(28)
    lo, hi = cumulative_size(2), cumulative_size(3)
    for delta in rng.integers(lo, hi, size=2000):
        term = term_of(int(delta))
        evaluate_gates(term, tuple(int(v) for v in rng.integers(-9, 10, size=term.arity))).to_json()
    del term
    gc.collect()
    assert term_of.cache_info().currsize <= 723
    assert [obj for obj in gc.get_objects() if type(obj) is Node and obj.depth > 3] == []


def test_bijection_report_class2():
    assert bijection_report(2) == ()
    assert [class_size(k) for k in range(3)] == [3, 16, 704]
    assert cumulative_size(2) == 723


def test_bijection_report_sees_a_skipped_term(monkeypatch):
    # An enumeration one term short in every class: every index it gives
    # round-trips, so only the index sequence shows the lost terms.
    monkeypatch.setattr(terms, "enumerate_class", lambda k: enumerate_class(k, class_size(k) - 1))
    assert bijection_report(2) == (
        {"kind": "gap", "expected_index": 2, "index": 3},
        {"kind": "gap", "expected_index": 18, "index": 19},
        {"kind": "gap", "expected_index": 722, "index": None},
    )


def test_render_prefix():
    assert render_term(FREE) == "M0"
    assert render_term(ELEM_PLUS) == "P(M0,M0)"
    assert render_term(term_of(7)) == "P(P(M0,M0),T(M0,M0))"


def test_parse_prefix_and_infix():
    assert parse_term("M0") == FREE
    assert parse_term("P(M0,M0)") == ELEM_PLUS
    assert parse_term("P(P(M0,M0),T(M0,M0))") == term_of(7)
    assert parse_term("n+(mk)") == term_of(4)
    assert parse_term("(n+m)k") == term_of(13)
    assert parse_term(" n + ( m k ) ") == term_of(4)
    # upper-case letters not followed by ( are ordinary variables
    assert parse_term("Pq") == ELEM_TIMES


@pytest.mark.parametrize("delta", [0, 1, 2, 5, 7, 18, 100, 722, 723, 5000, 10000])
def test_render_parse_roundtrip(delta):
    term = term_of(delta)
    assert parse_term(render_term(term)) == term
    assert parse_term(render_infix(term)) == term


# Indices of class <= 12, the deepest whose text still parses back: most
# draws are thousand-digit indices of terms with thousands of nodes.
@settings(derandomize=True, max_examples=15, database=None, deadline=None)
@given(st.integers(0, cumulative_size(MAX_TERM_DEPTH - 1) - 1))
def test_index_and_text_roundtrips(delta):
    term = term_of(delta)
    assert index_of(term) == delta
    assert parse_term(render_term(term)) == term
    assert parse_term(render_infix(term)) == term


@pytest.mark.parametrize("bad", ["", "  ", "P(M0", "n+", "(n", "P(M0,M0,M0)", "n)", "+n", "3"])
def test_parse_rejects(bad):
    with pytest.raises(TermSyntaxError):
        parse_term(bad)


def test_oracle_evaluation():
    assert evaluate_oracle(term_of(2), (3, 4)) == 12
    with pytest.raises(ValueError):
        evaluate_oracle(FREE, (1.5,))  # type: ignore[arg-type]


def test_equal_valued_terms_stay_distinct():
    # n+(m+k) and (n+m)+k agree on every input yet are different trees;
    # the enumeration keeps them apart.
    left = term_of(3)
    right = term_of(5)
    assert left != right
    assert index_of(left) != index_of(right)
    for args in itertools.product(range(-3, 4), repeat=3):
        assert evaluate_oracle(left, args) == evaluate_oracle(right, args)


def test_equal_terms_compile_to_equal_programs():
    # Built node by node, apart from term_of's table: equal trees, distinct
    # objects.  Each hash is stored at construction and equals the hash of
    # the (op, left, right) tuple the dataclass would compute.
    def build(depth):
        if depth == 0:
            return ELEM_PLUS
        return node(T, build(depth - 1), node(P, FREE, build(depth - 1)))

    first, second = build(4), build(4)
    assert first is not second and first.left is not second.left
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash((first.op, first.left, first.right))
    assert first != node(P, first.left, first.right)
    assert repr(ELEM_PLUS) == "Node(op=<BinOp.PLUS: 1>, left=FreeVar(), right=FreeVar())"
    # Each term keeps its own circuit: the twin compiles an equal program
    # of its own, and neither, being outside term_of's table, is counted
    # as held by the cache.
    compile_term.cache_clear()
    compiled = compile_term(first)
    twin = compile_term(second)
    assert twin is not compiled and twin == compiled
    assert compile_term(first) is compiled and compile_term(second) is twin
    info = compile_term.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 0)
    assert index_of(second) == index_of(first)
    # hashing never walks the tree, so it works far below the recursion limit
    deep = FREE
    for _ in range(5000):
        deep = node(P, deep, FREE)
    assert hash(deep) == hash((P, deep.left, FREE))


def test_compiled_structure():
    compiled = compile_term(term_of(7))
    assert compiled.arity == 4
    assert compiled.registers == 5  # one ancilla for the single times node
    assert compiled.result_register == 4
    compiled = compile_term(term_of(18))
    assert isinstance(compiled, gates.Circuit) and compiled.constants == (0, 0, 0)
    assert compiled.registers == 7  # three times nodes
    assert compiled.result_register == 6
    assert compiled.run((2, -1, 3, 2)) == -12
    compiled = compile_term(FREE)
    assert compiled.registers == 1 and len(compiled.program) == 0


def test_circuit_checks_its_roles_once(monkeypatch):
    # A circuit sweeps its program's roles once, when built; a bare program
    # run on labels has no layout, so run_basis sweeps on every call.
    sweeps = []
    real = gates._valid_steps
    monkeypatch.setattr(gates, "_valid_steps", lambda *a: sweeps.append(a) or real(*a))
    term = term_of(500)
    compile_term.cache_clear()
    circuit = compile_term(term)
    assert len(sweeps) == 1 and len(circuit.program) > 0
    assert sweeps[0] == (circuit.registers, circuit.program.steps)
    args = tuple(range(1, term.arity + 1))
    for _ in range(100):
        circuit.run(args)
    assert len(sweeps) == 1
    for _ in range(2):
        gates.run_basis(circuit.program, circuit.initial_labels(args))
    assert len(sweeps) == 3


def reference_compile(term):
    """The emitter as recursive closures over shared counters: the reference
    for compile_term's module-level walk."""
    n = arity(term)
    steps = []
    next_leaf = [0]
    next_ancilla = [n]

    def emit(t):
        if isinstance(t, FreeVar):
            reg = next_leaf[0]
            next_leaf[0] += 1
            return reg
        lhs = emit(t.left)
        rhs = emit(t.right)
        if t.op is BinOp.PLUS:
            steps.append(GateStep(GateKind.PLUS, (lhs, rhs)))
            return rhs
        out = next_ancilla[0]
        next_ancilla[0] += 1
        steps.append(GateStep(GateKind.TIMES_REVERSIBLE, (lhs, rhs, out)))
        return out

    result = emit(term)
    return gates.Circuit(GateProgram(tuple(steps)), n, (0,) * (next_ancilla[0] - n), result)


def test_compile_matches_reference():
    compile_term.cache_clear()
    for term in _shape_sample():
        compiled, expected = compile_term(term), reference_compile(term)
        assert compiled.program.steps == expected.program.steps
        assert all(type(step) is GateStep for step in compiled.program.steps)
        assert (compiled.arity, compiled.constants, compiled.result_register) == (
            expected.arity, expected.constants, expected.result_register,
        )


def test_cold_evaluation_leaves_no_reference_cycles():
    # Every tree walk is a module-level function, so a call frees all it
    # made without the cyclic collector.
    rng = np.random.default_rng(15)
    lo, hi = cumulative_size(2), cumulative_size(3)
    cases = []
    for delta in rng.integers(lo, hi, size=200):
        term = term_of(int(delta))
        cases.append((term, tuple(int(v) for v in rng.integers(-9, 10, size=term.arity))))
    compile_term.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for term, args in cases:
            evaluate_gates(term, args).to_json()
        for term, _ in cases[:50]:
            render_infix(term)
        assert gc.collect() == 0
    finally:
        gc.enable()


def plus_chain(depth):
    term = FREE
    for _ in range(depth):
        term = node(P, term, FREE)
    return term


def test_deep_terms_raise_a_named_error():
    # A term built directly with Node can nest past the recursion limit.
    # Each recursive walk refuses it by its stored depth before walking;
    # index_of is not guarded (a chain's index doubles its bit length per
    # level, so no walk could compute it).
    deep = plus_chain(5_000)
    assert arity(deep) == 5_001 and class_of(deep) == 4_999
    walks = (render_term, render_infix, compile_term, lambda t: evaluate_oracle(t, (1,) * t.arity))
    for walk in walks:
        with pytest.raises(TermDepthError, match=r"^term is 5000 deep, past MAX_WALK_DEPTH = 200$"):
            walk(deep)
    assert issubclass(TermDepthError, ValueError)
    assert repr(deep) == "Node(<5000 deep, arity 5001>)"
    # exactly at the bound every walk still answers
    edge = plus_chain(MAX_WALK_DEPTH)
    ones = (1,) * (MAX_WALK_DEPTH + 1)
    assert render_term(edge) == "P(" * MAX_WALK_DEPTH + "M0" + ",M0)" * MAX_WALK_DEPTH
    assert render_infix(edge).count("+") == MAX_WALK_DEPTH
    assert evaluate_oracle(edge, ones) == compile_term(edge).run(ones) == MAX_WALK_DEPTH + 1
    assert repr(edge).startswith("Node(op=<BinOp.PLUS: 1>, left=Node(op=")
    assert repr(edge).count("FreeVar()") == MAX_WALK_DEPTH + 1
    with pytest.raises(TermDepthError):
        render_term(node(P, edge, FREE))


def test_deep_terms_compare_without_recursion():
    # Two equal chains built apart share no nodes, so equality walks all
    # 5,000 levels; it must not need the call stack to do so.
    first, second = plus_chain(5_000), plus_chain(5_000)
    assert first is not second and first == second and not first != second
    assert len({first, second}) == 1 and {first: 1, second: 2} == {first: 2}
    assert first != plus_chain(4_999) and first != node(P, plus_chain(4_999), ELEM_PLUS)
    assert first != node(T, first.left, first.right)
    # equal stored hashes and depths still leave the ops and leaves to compare
    forged = node(T, first.left, first.right)
    object.__setattr__(forged, "_hash", hash(first))
    assert first != forged and forged != second
    swapped = node(P, ELEM_PLUS, FREE)
    object.__setattr__(swapped, "_hash", hash(node(P, FREE, ELEM_PLUS)))
    assert swapped != node(P, FREE, ELEM_PLUS)
    assert first != FREE and first != "P(M0,M0)"
    with pytest.raises(TermDepthError):
        compile_term(second)


def test_dual_evaluation_examples():
    doc = json.loads(evaluate_gates(term_of(7), (1, 2, 3, 4)).to_json())
    assert doc == {
        "term": "P(P(M0,M0),T(M0,M0))",
        "index": 7,
        "args": [1, 2, 3, 4],
        "gates": 15,
        "oracle": 15,
        "agree": True,
    }
    assert evaluate_gates(FREE, (9,)).gate_result == 9
    with pytest.raises(ArityError):
        evaluate_gates(term_of(7), (1, 2))
    assert ArityError is gates.ArityError
    # A report is a frozen, slotted record that dataclasses.replace still copies.
    report = evaluate_gates(term_of(7), (1, 2, 3, 4))
    assert not hasattr(report, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.gate_result = 16
    wrong = dataclasses.replace(report, gate_result=16)
    assert (wrong.gate_result, wrong.oracle_result, wrong.agree) == (16, 15, False)
    assert report.agree and wrong.args is report.args


def _signed_big(rng):
    return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 40))


class _Loud(int):
    """An int whose own text forms are not its value."""

    def __str__(self):
        return "loud"

    __repr__ = __str__


def _same_json(report):
    text = report.to_json()
    assert text == json.dumps(report.to_json_dict()), text
    return text


def test_report_json_is_the_encoders_bytes():
    # to_json writes its document itself; it must match the encoder's
    # output byte for byte, with arguments up to 40 digits and either sign.
    rng = random.Random(25)
    warm = range(cumulative_size(2))
    cold = rng.sample(range(cumulative_size(2), cumulative_size(3)), 2_000)
    assert len(warm) == 723
    for delta in itertools.chain(warm, cold):
        term = term_of(delta)
        _same_json(evaluate_gates(term, tuple(_signed_big(rng) for _ in range(term.arity))))
    # results that differ
    text = _same_json(EvalReport(term_of(7), (1, 2, 3, -4), gate_result=16, oracle_result=-9))
    assert text.endswith('"gates": 16, "oracle": -9, "agree": false}')
    # int subclasses print their value, not their own text forms
    loud = tuple(map(_Loud, (1, 2, -3, 10**30)))
    for report in (
        evaluate_gates(term_of(7), loud),
        EvalReport(term_of(7), loud, gate_result=_Loud(5), oracle_result=_Loud(5)),
    ):
        assert "loud" not in _same_json(report)


def test_report_json_past_int_text_limit_raises():
    # A result with more digits than Python writes raises ValueError from
    # both forms, as the encoder does.
    limit = sys.get_int_max_str_digits()
    half = 10 ** (limit // 2 + 1)
    report = evaluate_gates(ELEM_TIMES, (half, half))
    assert report.gate_result == report.oracle_result >= 10**limit  # past `limit` digits
    for write in (report.to_json, lambda: json.dumps(report.to_json_dict())):
        with pytest.raises(ValueError, match="integer string conversion"):
            write()


def test_dual_evaluation_builds_no_ket(monkeypatch):
    # Gate programs on basis states run on label tuples.
    def no_ket(self, *args, **kwargs):
        raise AssertionError("a Ket was built")

    monkeypatch.setattr(Ket, "__init__", no_ket)
    assert evaluate_gates(term_of(13), (2, 3, 4)).gate_result == 20
    assert eval_with_gates("or", 0, 1) == 1


def test_dual_evaluation_exhaustive_class1():
    # all class <= 1 operations over arguments from {-3..3}
    rng_args = range(-3, 4)
    import itertools

    for k in (0, 1):
        for delta, term in enumerate_class(k):
            n = arity(term)
            for args in itertools.product(rng_args, repeat=n):
                report = evaluate_gates(term, args)
                assert report.agree, (delta, args)


@pytest.mark.parametrize("seed", range(3))
def test_dual_evaluation_sampled_class2(seed):
    rng = np.random.default_rng(seed)
    deltas = rng.integers(19, 723, size=20)
    for delta in deltas:
        term = term_of(int(delta))
        n = arity(term)
        for _ in range(10):
            args = tuple(int(v) for v in rng.integers(-8, 9, size=n))
            assert evaluate_gates(term, args).agree
