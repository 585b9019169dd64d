"""The ``qarith verify`` catalogue, asserted check by check.

One ``verify all --seed 0`` run per module consumes the seeded generator
exactly as the command line does; each check then becomes its own test
case, named after its function, that prints the check's detail.  Each
check also has a planted fault that makes it fail (``FAULTS``).
"""

import __future__

import dataclasses
import inspect
import re
import sys
import textwrap
from collections.abc import Callable

import numpy as np
import pytest

from qarith import dynamics, gates, logic, terms
from qarith.config import SUITE_NAMES, Config
from qarith.states import Ket
from qarith.terms import MAX_CLASS_BOUND, compile_term, cumulative_size, render_term, term_of
from qarith.verify import (
    CHURCH_BUDGET,
    STOP_FINE_STEP,
    SUITES,
    check_church_correspondence,
    check_norm_algebra,
    check_state_json,
    check_stop_near_unit,
    church_sweep,
    run_suite,
)

CHECKS = SUITES["all"]


def test_suite_names_match_the_catalogue():
    # The CLI offers SUITE_NAMES without importing verify (and numpy).
    assert list(SUITES) == [*SUITE_NAMES, "all"]


@pytest.fixture(scope="module")
def report():
    return run_suite("all", Config(), seed=0)


@pytest.mark.parametrize(
    "index", range(len(CHECKS)), ids=[fn.__name__.removeprefix("check_") for fn in CHECKS]
)
def test_check(report, index):
    check = report["checks"][index]
    print(f"{check['name']}: {check['detail']}")
    assert check["ok"], check["detail"]


# The passing detail of each check that lists its problems, at seed 0.
# These hold counts only, so they read the same on every platform.
PASSING_DETAILS = {
    "state_json": "40 round trips",
    "zero_and_pruning": "as specified",
    "gate_window_exhaustive": "4225 label pairs per gate",
    "iterate_matches_times": "171 pairs",
    "gate_errors": "as specified",
    "stop_near_unit": "36 runs stop at the first grid time past the fidelity crossing",
    "truth_tables_dual": "12 cases, both paths",
    "bit_domain": "as specified",
    "elementary_indices": "sizes 3/16/704",
    "golden_class1_table": "16 composed operations",
    "index_roundtrip": "indices 0..10000, class-major",
    "parse_render": "round trips stable",
    "dual_eval_examples": "5 fixed cases",
}


def test_problem_list_checks_pass_with_their_counts(report):
    details = {check["name"]: check["detail"] for check in report["checks"]}
    assert {name: details[name] for name in PASSING_DETAILS} == PASSING_DETAILS


def _adding_terms(class_bound):
    return [
        delta
        for delta in range(cumulative_size(class_bound))
        if any(step.kind is gates.GateKind.PLUS for step in compile_term(term_of(delta)).program.steps)
    ]


@pytest.mark.parametrize("bumped", ["target", "last"])
def test_church_sweep_checks_the_ket_route(monkeypatch, bumped):
    # Dual evaluation runs on label tuples, so only the sweep's cross-check
    # can see a ket route whose adders raise one register by one: the sum's
    # target (a wrong state) or the last register (at times an ancilla, so
    # the ket route fails at the next multiplication instead).
    real = gates.run_program

    def off_by_one(program, state):
        for step in program.steps:
            state = real(gates.GateProgram((step,)), state)
            if step.kind is gates.GateKind.PLUS:
                at = step.roles[1] if bumped == "target" else state.registers - 1
                state = Ket(
                    state.registers,
                    {key[:at] + (key[at] + 1,) + key[at + 1:]: amp for key, amp in state.items()},
                )
        return state

    monkeypatch.setattr(gates, "run_program", off_by_one)
    cases, disagreements = church_sweep(1, 2000, np.random.default_rng(0))
    assert cases > 0 and disagreements
    assert all(d["agree"] and "ket_route" in d for d in disagreements)
    # one per term whose program adds: the first argument tuple of each
    assert len(disagreements) == len(_adding_terms(1))
    failed = [d for d in disagreements if isinstance(d["ket_route"], str)]
    assert bool(failed) == (bumped == "last")
    report = run_suite("church", Config(class_bound=1), seed=0)
    assert report["ok"] is False
    assert "ket_route" in report["checks"][0]["detail"]


def test_church_check_sees_a_basis_lane_fault(monkeypatch):
    # An adder one unit too high on the basis lane: dual evaluation parts
    # from the integer recursion at the first term that adds.
    def plus_one_more(circuit, args):
        regs = list(circuit.initial_labels(args))
        for step in circuit.program.steps:
            regs = list(gates.run_basis(gates.GateProgram((step,)), tuple(regs)))
            if step.kind is gates.GateKind.PLUS:
                regs[step.roles[1]] += 1
        return regs[circuit.result_register]

    monkeypatch.setattr(gates.Circuit, "run", plus_one_more)
    result = check_church_correspondence(Config(class_bound=1), np.random.default_rng(0))
    assert result.ok is False
    first = term_of(_adding_terms(1)[0])
    assert result.detail.startswith(f"first disagreement: {{'term': '{render_term(first)}'")
    assert "'agree': False" in result.detail


@pytest.mark.parametrize("class_bound", [Config().class_bound, MAX_CLASS_BOUND])
def test_church_draws_one_block_per_term(class_bound):
    # The sweep draws a term's sampled cases as one (quota, arity) block of
    # labels in -3..3. It must give the per-case draws and leave the
    # generator where they left it, for the quota of `verify all` and of
    # the largest class bound, and every arity up to 2**(class_bound + 1),
    # the most leaves a term of that class has.
    quota = max(1, CHURCH_BUDGET // cumulative_size(class_bound))
    for n in range(1, 2 ** (class_bound + 1) + 1):
        per_case, block = np.random.default_rng(n), np.random.default_rng(n)
        cases = [tuple(int(v) for v in per_case.integers(-3, 4, size=n)) for _ in range(quota)]
        assert list(map(tuple, block.integers(-3, 4, size=(quota, n)).tolist())) == cases
        assert int(per_case.integers(1 << 62)) == int(block.integers(1 << 62))


@pytest.mark.parametrize("pair", [(1, 0), (4, -3)])
@pytest.mark.parametrize("steps", [-2, -1, 1, 2, None])
def test_stop_check_rejects_a_shifted_trace(monkeypatch, pair, steps):
    # One run's stopping time moved by whole steps of the check's grid (or
    # lost) must fail the check at the default epsilon, including every
    # shift the earlier rule "within one grid step of t = 1" caught.
    real = dynamics.detect_stopping_time

    def shifted(model, n, m, *rest):
        trace = real(model, n, m, *rest)
        if (n, m) != pair:
            return trace
        stop = None if steps is None else trace.stopping_time + steps * STOP_FINE_STEP
        return dataclasses.replace(trace, stopping_time=stop)

    config = Config()
    assert check_stop_near_unit(config, np.random.default_rng(0)).ok
    monkeypatch.setattr(dynamics, "detect_stopping_time", shifted)
    result = check_stop_near_unit(config, np.random.default_rng(0))
    assert not result.ok
    assert f"({pair[0]},{pair[1]})" in result.detail


def test_church_sweep_unchanged():
    # Same cases, same verdict and the same generator draws as the sweep
    # over a prebuilt list of every term up to the bound gave.
    rng = np.random.default_rng(0)
    assert church_sweep(2, 50000, rng) == (49785, [])
    assert int(rng.integers(1 << 62)) == 3279818263252675505


def test_norm_algebra_sees_a_missing_conjugate(monkeypatch):
    # An inner product with no conjugate, or one that keeps only its
    # modulus or its real part.  The modulus passes every identity that
    # holds for moduli; only linearity in the second argument sees it.
    real = Ket.inner
    faults = {
        "bilinear": lambda self, other: sum(
            amp * other._amps.get(key, 0j) for key, amp in self._amps.items()
        ),
        "modulus": lambda self, other: abs(real(self, other)),
        "real part": lambda self, other: real(self, other).real,
    }
    assert check_norm_algebra(Config(), np.random.default_rng(0)).ok
    for name, inner in faults.items():
        with monkeypatch.context() as patch:
            patch.setattr(Ket, "inner", inner)
            assert not check_norm_algebra(Config(), np.random.default_rng(0)).ok, name


@pytest.mark.parametrize("seed", [-1, True, 1.0, "0"])
def test_run_suite_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got {seed!r}")):
        run_suite("logic", Config(), seed=seed)


# --- planted faults ----------------------------------------------------------
#
# One row per check of ``verify all``: a fault planted in code that its
# whole layer runs (a function body, a constant or a table entry), and a
# pattern the check's detail must match under it.  The check fails alone:
# one that no fault could fail without another would restate that other.


def _rebind(monkeypatch, old, new):
    """Point every qarith module-level name bound to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "qarith" or name.startswith("qarith."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    monkeypatch.setattr(module, attr, new)


def _edit(owner, name, *edits):
    """A fault: ``owner.name`` recompiled from its source with each
    (old, new) text replaced, bound wherever the original is."""

    def plant(monkeypatch):
        original = inspect.getattr_static(owner, name)
        function = getattr(original, "func", original)  # a cached_property's
        source = textwrap.dedent(inspect.getsource(function))
        for old, new in edits:
            assert source.count(old) == 1, f"{old!r} is not in {name} exactly once"
            source = source.replace(old, new)
        code = compile(
            source, f"<{name} with a planted fault>", "exec",
            flags=__future__.annotations.compiler_flag, dont_inherit=True,
        )
        scope: dict = {}
        exec(code, vars(sys.modules[function.__module__]), scope)
        mutant = scope[name]
        if isinstance(owner, type):
            monkeypatch.setattr(owner, name, mutant)
            if hasattr(mutant, "__set_name__"):
                mutant.__set_name__(owner, name)
        _rebind(monkeypatch, original, mutant)

    return plant


def _entry(table, key, value):
    """A fault: one table entry replaced."""
    return lambda monkeypatch: monkeypatch.setitem(table, key, value)


def _clear_caches():
    # A planted fault can leave wrong memos on the tabled terms; the table
    # is the only cache, so emptying it drops them.
    terms._TABLE.clear()


@dataclasses.dataclass(frozen=True)
class Fault:
    check: str  # the check function's name
    plant: Callable
    detail: str  # a pattern the check's detail must match


_OR = logic.CONNECTIVES["or"]

FAULTS = (
    Fault(
        "check_norm_algebra",
        # the tensor product conjugates its right factor
        _edit(Ket, "tensor", ("out[ka + kb] = aa * ab", "out[ka + kb] = aa * ab.conjugate()")),
        r"^60 sampled pairs, worst \d\.\d\de[+-]0\d$",
    ),
    Fault(
        "check_distance_fixed",
        _edit(Ket, "distance", ("math.sqrt(", "(")),  # the square root dropped
        r"^deviation 1\.80e-01$",
    ),
    Fault(
        "check_state_json",
        # serialization conjugates every amplitude
        _edit(Ket, "to_json_dict", ('entry["im"] = amp.imag', 'entry["im"] = -amp.imag')),
        r"^roundtrip value drift; serialization not stable",
    ),
    Fault(
        "check_zero_and_pruning",
        # pruning compares |a|, not |a|^2, with PRUNE_EPS_SQ
        _edit(Ket, "__init__", (
            "if amp.real * amp.real + amp.imag * amp.imag >= PRUNE_EPS_SQ",
            "if abs(amp) >= PRUNE_EPS_SQ",
        )),
        r"^sub-threshold amplitude not pruned$",
    ),
    Fault(
        "check_gate_window",
        # the reversible multiplier is off by one on one label triple
        _edit(gates, "_run_columns", (
            "cols[c] = tuple(map(mul, cols[a], cols[b]))",
            "cols[c] = tuple(x * y + (x == y == 32) for x, y in zip(cols[a], cols[b]))",
        )),
        r"^times_rev\(32,32\)$",
    ),
    Fault(
        "check_gate_norm_linearity",
        # every gate renormalizes its output
        _edit(Ket, "_relabeled", ("return out", "return out.normalized() if out._vals else out")),
        r"worst norm drift \S+, worst linearity residual [1-9]\.\d\de\+00$",
    ),
    Fault(
        "check_plus_minus_inverse",
        # the subtractor is off by one on targets past the +-64 window
        _edit(gates, "_run_columns", (
            "tuple(map(sub, cols[t], cols[s]))",
            "tuple(x - y - (abs(x) > 64) for x, y in zip(cols[t], cols[s]))",
        )),
        r"round trips changed the support$",
    ),
    Fault(
        "check_iterate_matches_times",
        _edit(gates, "iterate_plus", ("range(count)", "range(1, count)")),  # one pass short
        r"^iterate\(2,-9\)",
    ),
    Fault(
        "check_gate_errors",
        # a gate error in a program blames the step after the failing one
        _edit(gates, "_program_map",
              ("ProgramStepError(i, steps[i], exc)", "ProgramStepError(i + 1, steps[i], exc)")),
        r"^wrong step attribution: step 2 ",
    ),
    Fault(
        "check_whole_shift_fidelity",
        # propagated kets read ring labels off by one
        _edit(dynamics, "_ring_ket", ("keep - (model.half - 1)", "keep - model.half")),
        r"worst fidelity defect 1\.00e\+00",
    ),
    Fault(
        "check_numeric_vs_exact",
        # RK4 drops its fourth-order term
        _edit(dynamics, "_rk4_column", ("step = unit + a / 4.0", "step = unit")),
        r"^30 runs, worst distance [1-9]\.\d\de-06",
    ),
    Fault(
        "check_subsystem_consistency",
        # the ring register alone runs backward in time
        _edit(dynamics, "subsystem_evolve", (
            "_propagate(model, n, m, t), ()", "_propagate(model, n, m, t).conj(), ()",
        )),
        r"^36 runs, worst distance 3\.36e-01$",
    ),
    Fault(
        "check_trace_bookkeeping",
        # leakage counts the target label too
        _edit(dynamics, "detect_stopping_time",
              ("probs.sum(axis=1) - probs[:, tidx]", "probs.sum(axis=1)")),
        r"worst defect 1\.00e\+00$",
    ),
    Fault(
        "check_stop_near_unit",
        # the stopping threshold is 1 - 2 epsilon
        _edit(dynamics, "detect_stopping_time",
              ("fidelity < 1.0 - epsilon", "fidelity < 1.0 - 2 * epsilon")),
        r"^T\(-6,0\)=0\.9960, expected 0\.9980",
    ),
    Fault(
        "check_off_peak_bound",
        # the off-target peak is taken before the target is masked
        _edit(dynamics, "detect_stopping_time", (
            "probs[:, tidx] = 0.0\n        off_peak[lo:hi] = probs.max(axis=1)",
            "off_peak[lo:hi] = probs.max(axis=1)\n        probs[:, tidx] = 0.0",
        )),
        r"leak past T is 1\.00e\+00$",
    ),
    Fault(
        "check_superadditivity",
        # a split is compared by its left part alone
        _edit(dynamics, "superadditivity_table",
              ("satisfied=t_left + t_right >=", "satisfied=t_left >=")),
        r"^30 of 90 splits violated, first at n=-6 k=-5$",
    ),
    Fault(
        "check_truth_tables",
        # the OR circuit without its last step (p, p+q, pq) -> (p, p+q-pq, pq)
        _entry(logic.CONNECTIVES, "or", (_OR[0], dataclasses.replace(
            _OR[1], program=gates.GateProgram(_OR[1].program.steps[:-1])
        ))),
        r"^gates or\(1, 1\)$",
    ),
    Fault(
        "check_bit_domain",
        _edit(logic, "_check_bit", (" or value not in (0, 1)", "")),  # any int is a bit
        r"^accepted \(2,\); accepted \(1, -1\)$",
    ),
    Fault(
        "check_elementary_indices",
        # the count of terms of class <= 2 one short: class_size and the
        # index read the table, so elsewhere only a sweep's last term is lost
        _edit(terms, "cumulative_size", ("return _CUMULATIVE[k]", "return _CUMULATIVE[k] - (k == 2)")),
        r"^cumulative size$",
    ),
    Fault(
        "check_golden_class1",
        # infix names the first two arguments m, n
        lambda monkeypatch: monkeypatch.setattr(terms, "_VAR_NAMES", "mnklpqrsabcdefgh"),
        r"^infix\(3\); infix\(4\)",
    ),
    Fault(
        "check_index_roundtrip",
        # class 3 and up take B = 1, as class 1 does: the region overlaps class 2
        _edit(terms, "_region_bounds", ("if k >= 2 else 1", "if k == 2 else 1")),
        r"^roundtrip\(723\); class order\(723\); roundtrip\(724\)",
    ),
    Fault(
        "check_parse_render",
        # the parser reads P( as times and T( as plus
        _edit(terms, "_factor", (
            '_SUM if tok == "P(" else _PRODUCT', '_PRODUCT if tok == "P(" else _SUM',
        )),
        r"^prefix parse; prefix roundtrip\(1\)",
    ),
    Fault(
        "check_dual_eval_examples",
        # both routes bind the arguments right to left
        _edit(terms, "evaluate_gates", ("args = tuple(args)", "args = tuple(args)[::-1]")),
        r"^delta 7 args \(1, 2, 3, 4\); delta 13 args \(2, 3, 4\)$",
    ),
    Fault(
        "check_bijection",
        # each class from 1 on starts one index early
        _edit(terms, "enumerate_class", (
            "cumulative_size(k - 1)", "cumulative_size(k - 1) - 1",
        )),
        r"\{'kind': 'gap', 'expected_index': 3, 'index': 2\}, "
        r"\{'kind': 'class', 'index': 2, 'term': 'T\(M0,M0\)'",
    ),
    Fault(
        "check_church_correspondence",
        # the ket route starts from the arguments and constants reversed
        _edit(gates.Circuit, "initial_state", (
            "basis_ket(*self.initial_labels(args))", "basis_ket(*self.initial_labels(args)[::-1])",
        )),
        r"'agree': True, 'basis_lane': .*'ket_route'",
    ),
)


def test_a_failing_detail_lists_its_first_four_problems(monkeypatch):
    # Under its planted fault every one of state_json's 40 round trips
    # fails twice; the detail names the first four of those 80 problems.
    next(fault for fault in FAULTS if fault.check == "check_state_json").plant(monkeypatch)
    result = check_state_json(Config(), np.random.default_rng(0))
    assert not result.ok
    assert result.detail.split("; ") == ["roundtrip value drift", "serialization not stable"] * 2


def test_every_check_has_a_planted_fault():
    assert [fault.check for fault in FAULTS] == [fn.__name__ for fn in CHECKS]


@pytest.mark.parametrize(
    "fault", FAULTS, ids=[fault.check.removeprefix("check_") for fault in FAULTS]
)
def test_planted_fault(monkeypatch, fault):
    _clear_caches()
    try:
        fault.plant(monkeypatch)
        report = run_suite("all", Config(), seed=0)
    finally:
        monkeypatch.undo()
        _clear_caches()
    names = {fn.__name__: check["name"] for fn, check in zip(CHECKS, report["checks"])}
    failed = {check["name"]: check["detail"] for check in report["checks"] if not check["ok"]}
    own = names[fault.check]
    assert set(failed) == {own}
    assert re.search(fault.detail, failed[own])


@pytest.mark.parametrize(
    "edit,failing",
    [
        (("sign * sine, sign * cosine,", "sine, cosine,"), {"numeric_vs_exact"}),
        (
            ("sign * sine, sign * cosine,", "sign * cosine, sign * sine,"),
            {"numeric_vs_exact", "stop_near_unit"},
        ),
        (("cosine + 1j * sine", "cosine - 1j * sine"), {"numeric_vs_exact"}),
    ],
    ids=["sign-dropped", "sine-cosine-swapped", "phase-conjugated"],
)
def test_kernel_table_faults(monkeypatch, edit, failing):
    # Faults in the closed-form kernel's tables.  Squared probabilities
    # hide a lost sign (-1)^k or a conjugated phase: only RK4 sees them.
    _edit(dynamics.HamiltonianModel, "kernel_windows", edit)(monkeypatch)
    report = run_suite("all", Config(), seed=0)
    assert {check["name"] for check in report["checks"] if not check["ok"]} == failing
