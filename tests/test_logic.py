"""Boolean layer: input domain, compiled shapes and the truth table.

The connective values on both routes and De Morgan's law are checks of
``qarith verify logic``, asserted by tests/test_verify.py."""

import itertools

import pytest

from qarith.gates import GateKind
from qarith.logic import (
    and_,
    compiled_op,
    eval_with_gates,
    not_,
    or_,
    truth_table,
    truth_table_text,
)


@pytest.mark.parametrize("value", [2, -1, 7, "x", 1.0, None, True])
def test_domain_rejection(value):
    with pytest.raises(ValueError):
        not_(value)
    with pytest.raises(ValueError):
        and_(value, 0)
    with pytest.raises(ValueError):
        or_(1, value)


@pytest.mark.parametrize("p", [0, 1])
def test_not(p):
    assert not_(p) == (0 if p else 1)
    assert eval_with_gates("not", p) == not_(p)


@pytest.mark.parametrize("p,q", list(itertools.product((0, 1), repeat=2)))
def test_and_or_against_bool_oracle(p, q):
    assert and_(p, q) == int(bool(p) and bool(q))
    assert or_(p, q) == int(bool(p) or bool(q))
    assert eval_with_gates("and", p, q) == and_(p, q)
    assert eval_with_gates("or", p, q) == or_(p, q)


def test_compiled_shapes():
    op = compiled_op("not")
    assert op.arity == 1 and op.constants == (1,) and op.registers == 2
    assert [s.kind for s in op.program.steps] == [GateKind.MINUS]
    op = compiled_op("and")
    assert op.constants == (0,) and op.result_register == 2
    op = compiled_op("or")
    assert len(op.program) == 3 and op.result_register == 1
    with pytest.raises(ValueError):
        compiled_op("xor")
    with pytest.raises(ValueError):
        compiled_op("not").initial_state((0, 1))


def test_truth_table_rows():
    assert truth_table("or") == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert truth_table("and") == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert truth_table("not") == [(0, 1), (1, 0)]


def test_truth_table_text_layout():
    text = truth_table_text("and")
    lines = text.splitlines()
    assert lines[0].split() == ["p", "q", "result"]
    assert len(lines) == 5
    assert lines[-1].split() == ["1", "1", "1"]
    assert truth_table_text("not").splitlines()[0].split() == ["p", "result"]
