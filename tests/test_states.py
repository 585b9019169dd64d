"""State-layer tests against a dense-vector oracle.

The sparse implementation is compared with plain numpy arrays over a
fixed label window, so every algebraic identity is checked against an
independent computation.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith.states import Ket, basis_ket, superposition

WINDOW = 64  # dense oracle covers labels -64..64


def dense(ket: Ket) -> np.ndarray:
    """Dense single-register copy of a sparse ket (oracle representation)."""
    assert ket.registers == 1
    vec = np.zeros(2 * WINDOW + 1, dtype=complex)
    for (label,), amp in ket.items():
        assert -WINDOW <= label <= WINDOW
        vec[label + WINDOW] = amp
    return vec


def random_ket(rng: np.random.Generator, support: int) -> Ket:
    labels = rng.choice(np.arange(-50, 51), size=support, replace=False)
    amps = {int(l): complex(rng.normal(), rng.normal()) for l in labels}
    return superposition(amps)


def test_basis_ket_shape():
    ket = basis_ket(5)
    assert ket.registers == 1
    assert ket.amplitude(5) == 1.0
    assert ket.amplitude(4) == 0.0
    assert len(ket) == 1
    pair = basis_ket(3, -2)
    assert pair.registers == 2
    assert pair.amplitude((3, -2)) == 1.0


def test_orthonormal_basis():
    for i in range(-6, 7):
        for j in range(-6, 7):
            expected = 1.0 if i == j else 0.0
            assert basis_ket(i).inner(basis_ket(j)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_algebra_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    a = random_ket(rng, int(rng.integers(1, 30)))
    b = random_ket(rng, int(rng.integers(1, 30)))
    da, db = dense(a), dense(b)
    assert a.norm() == pytest.approx(np.linalg.norm(da), abs=1e-12)
    assert a.inner(b) == pytest.approx(np.vdot(da, db), abs=1e-12)
    assert a.distance(b) == pytest.approx(np.linalg.norm(da - db), abs=1e-12)
    alpha = complex(rng.normal(), rng.normal())
    combo = a.add_scaled(alpha, b)
    assert dense(combo) == pytest.approx(da + alpha * db, abs=1e-12)
    scaled = a.scaled(alpha)
    assert dense(scaled) == pytest.approx(alpha * da, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_tensor_matches_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    a = random_ket(rng, int(rng.integers(1, 12)))
    b = random_ket(rng, int(rng.integers(1, 12)))
    prod = a.tensor(b)
    assert prod.registers == 2
    outer = np.outer(dense(a), dense(b))
    for (la, lb), amp in prod.items():
        assert amp == pytest.approx(outer[la + WINDOW, lb + WINDOW], abs=1e-12)
    assert prod.norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)
    # inner factorizes across the product
    c = random_ket(rng, 5)
    d = random_ket(rng, 5)
    lhs = a.tensor(c).inner(b.tensor(d))
    assert lhs == pytest.approx(a.inner(b) * c.inner(d), abs=1e-12)


def test_normalized():
    ket = superposition({0: 3.0, 4: 4.0})
    unit = ket.normalized()
    assert abs(unit.norm() - 1.0) <= 1e-12
    assert unit.amplitude(0) == pytest.approx(0.6)
    assert unit.amplitude(4) == pytest.approx(0.8)


def test_pruning_threshold():
    mixed = Ket(1, {(0,): 1.0, (1,): 1e-17})
    assert mixed.support() == {(0,)}


def test_construction_validation():
    with pytest.raises(ValueError):
        Ket(0, {})
    # a bool is no register count: from_json would reject the document
    with pytest.raises(ValueError, match="register count must be a positive integer, got True"):
        Ket(True, {(1,): 1.0})
    with pytest.raises(ValueError):
        Ket(1, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        Ket(1, {(0.5,): 1.0})  # type: ignore[dict-item]
    with pytest.raises(ValueError):
        Ket(1, {(True,): 1.0})  # type: ignore[dict-item]
    with pytest.raises(ValueError):
        Ket(1, {(0,): complex("nan")})
    with pytest.raises(ValueError):
        Ket(1, {(0,): complex(0.0, math.inf)})
    # int subclasses other than bool are labels too
    class Label(int):
        pass

    assert Ket(1, {(Label(3),): 1.0}).amplitude(3) == 1.0
    with pytest.raises(ValueError):
        basis_ket()
    with pytest.raises(ValueError):
        basis_ket(1).inner(basis_ket(1, 2))
    with pytest.raises(TypeError):
        basis_ket(1).inner(3)  # type: ignore[arg-type]


def test_labels_never_wrap():
    big = 10**30
    ket = basis_ket(big)
    assert ket.amplitude(big) == 1.0
    shifted = superposition({big: 1.0}).tensor(basis_ket(big))
    assert shifted.amplitude((big, big)) == 1.0


def test_json_labels_bounded_by_int_text_limit():
    # Labels past Python's int-to-text limit cannot be written; the error
    # names the register, the digit count and the limit.
    limit = sys.get_int_max_str_digits()
    widest = basis_ket(1, -(10**limit - 1))
    assert Ket.from_json(widest.to_json()) == widest
    too_long = basis_ket(1, 10**limit)
    with pytest.raises(ValueError) as exc:
        too_long.to_json()
    assert str(exc.value).startswith(
        f"label in register 1 has {limit + 1} digits, past the {limit}-digit limit"
    )
    assert too_long.to_json_dict()["terms"][0]["labels"] == [1, 10**limit]
    # Reading one back names the register too, not Python's own advice.
    text = '{"registers": 2, "terms": [{"labels": [1, 1%s], "re": 1.0}]}' % ("0" * limit)
    with pytest.raises(ValueError) as exc:
        Ket.from_json(text)
    assert str(exc.value).startswith(
        f"label in register 1 has {limit + 1} digits, past the {limit}-digit limit"
    )


def test_json_roundtrip_single_register():
    ket = superposition({2: 0.6, -1: complex(0.0, 0.8)})
    text = ket.to_json()
    doc = json.loads(text)
    assert doc["registers"] == 1
    assert doc["terms"][0]["label"] == -1  # ascending label order
    back = Ket.from_json(text)
    assert back == ket
    assert back.to_json() == text


def test_json_roundtrip_two_register():
    ket = superposition({(1, 2): 0.5, (0, -3): 0.5, (1, -2): complex(0.5, 0.5)})
    doc = ket.to_json_dict()
    assert [t["labels"] for t in doc["terms"]] == [[0, -3], [1, -2], [1, 2]]
    assert Ket.from_json_dict(doc) == ket


# Short labels of either sign, and labels of about 4,000 digits (below
# the int-to-text limit of 4,300) of either sign.
_LABELS = st.one_of(
    st.integers(-1000, 1000),
    st.builds(
        lambda sign, digits, low: sign * (10 ** digits + low),
        st.sampled_from((1, -1)),
        st.integers(3900, 4100),
        st.integers(0, 10**6),
    ),
)
_PARTS = st.one_of(st.just(-0.0), st.floats(-2.0, 2.0))


@st.composite
def json_kets(draw):
    registers = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(*[_LABELS] * registers), max_size=5, unique=True))
    return Ket(registers, {key: complex(draw(_PARTS), draw(_PARTS)) for key in keys})


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(json_kets())
def test_json_roundtrip_property(ket):
    text = ket.to_json()
    back = Ket.from_json(text)
    assert back == ket
    assert back.to_json() == text  # byte-identical, signs of zero included


@pytest.mark.parametrize(
    "bad",
    [
        "[]",
        '{"registers": 0, "terms": []}',
        '{"registers": 1}',
        '{"registers": 1, "terms": [{"re": 1.0, "im": 0.0}]}',
        '{"registers": 1, "terms": [{"label": 1.5, "re": 1.0, "im": 0.0}]}',
        '{"registers": 1, "terms": [{"label": true, "re": 1.0, "im": 0.0}]}',
        '{"registers": 2, "terms": [{"labels": [1], "re": 1.0, "im": 0.0}]}',
        '{"registers": 1, "terms": [{"label": 1, "re": "x", "im": 0.0}]}',
        '{"registers": 1, "terms": [{"label": 1, "re": 1.0, "im": 0.0},'
        ' {"label": 1, "re": 0.0, "im": 0.0}]}',
        "not json at all",
    ],
)
def test_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Ket.from_json(bad)


def test_equality_is_structural():
    a = superposition({1: 0.5, 2: 0.5})
    b = superposition({2: 0.5, 1: 0.5})
    assert a == b
    assert a != superposition({1: 0.5, 2: 0.5000001})
    assert a.distance(superposition({1: 0.5, 2: 0.5 + 1e-14})) <= 1e-12


def test_basis_distance_is_constant():
    # every pair of distinct basis vectors sits at the same distance
    expected = math.sqrt(2.0)
    for n in range(-6, 7):
        for m in range(-6, 7):
            if n == m:
                assert basis_ket(n).distance(basis_ket(m)) == 0.0
            else:
                assert basis_ket(n).distance(basis_ket(m)) == expected


def test_sum_of_shifted_parts_never_reassembles_the_whole():
    # |n+m> is not the vector sum of |(n-k)+m> and |k+m> for any k != 0:
    # splitting the label does not split the state.
    for n in range(-4, 5):
        for m in range(-4, 5):
            for k in range(-4, 5):
                if k == 0:
                    continue
                whole = basis_ket(n + m)
                parts = basis_ket((n - k) + m).add_scaled(1.0, basis_ket(k + m))
                assert whole.distance(parts) > 0.0
                if (n - k) + m == k + m and k + m != n + m:
                    # both parts land on one label; amplitudes stack
                    assert parts.norm() == 2.0
                    assert parts.norm() != 1.0
