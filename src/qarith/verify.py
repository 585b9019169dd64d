"""Named verification suites runnable from the command line.

Every check is a pure function of the configuration and the seeded
generator, and reports carry no clocks or environment details, so a
suite run with the same seed and configuration produces identical
bytes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, gates, logic, terms
from .config import SUITE_NAMES, Config
from .states import Ket, ZeroNormError, basis_ket, superposition


# Pass bounds of the numeric checks; every report lists them under "config".
TOLERANCES: dict[str, float] = {
    "norm": 1e-12,         # gate norm preservation
    "linearity": 1e-12,    # gate linearity residual
    "inner": 1e-12,        # inner-product algebra
    "amplitude": 1e-15,    # amplitude drift through inverse gate pairs
    "unitary_exact": 1e-9,
    "unitary_numeric": 1e-6,
    "integrator": 1e-6,    # numeric vs closed-form state distance
    "subsystem": 1e-9,
    "fidelity": 1e-9,      # closed-form fidelity at whole-shift times
    "bookkeeping": 1e-9,   # fidelity + leakage vs norm
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _verdict(name: str, problems: list[str], passed: str) -> CheckResult:
    """A check that lists its problems: it passes with none, and a failing
    detail names the first four."""
    return CheckResult(name, not problems, "; ".join(problems[:4]) if problems else passed)


def _refusal(fn, *args, refusal: type[Exception] = ValueError) -> Exception | None:
    """The ``refusal`` that ``fn(*args)`` raises, or None if it returns."""
    try:
        fn(*args)
    except refusal as exc:
        return exc
    return None


# Labels of the sampled kets lie in -KET_LABELS..KET_LABELS.
KET_LABELS = 50


def _random_ket(
    rng: np.random.Generator,
    registers: int,
    support: int,
    nonzero_first: bool = False,
    zero_last: bool = False,
) -> Ket:
    # Draws come in blocks: the keys still missing, then every amplitude's
    # two parts.  A block gives the values, and leaves the generator in the
    # state, that the same draws one key or one part at a time would.
    keys: set[tuple[int, ...]] = set()
    while len(keys) < support:
        block = rng.integers(-KET_LABELS, KET_LABELS + 1, size=(support - len(keys), registers))
        for key in map(tuple, block.tolist()):
            if nonzero_first and key[0] == 0:
                continue
            if zero_last:
                key = key[:-1] + (0,)
            keys.add(key)
    parts = rng.normal(size=(support, 2)).tolist()
    amps = {k: complex(re, im) for k, (re, im) in zip(sorted(keys), parts)}
    return Ket(registers, amps).normalized()


# --- sparse state algebra ----------------------------------------------------


def check_norm_algebra(config: Config, rng: np.random.Generator) -> CheckResult:
    tol = TOLERANCES["inner"]
    worst = 0.0
    for _ in range(60):
        a = _random_ket(rng, 1, int(rng.integers(1, 13)))
        b = _random_ket(rng, 1, int(rng.integers(1, 13)))
        f = complex(rng.normal(), rng.normal())
        c = a.add_scaled(f, b)
        worst = max(
            worst,
            abs(a.tensor(b).norm() - a.norm() * b.norm()),
            abs(a.tensor(c).inner(b.tensor(a)) - a.inner(b) * c.inner(a)),
            abs(a.inner(b) - b.inner(a).conjugate()),
            abs(a.inner(a) - a.norm_sq()),
            abs(a.inner(c) - (a.inner(a) + f * a.inner(b))),
        )
    return CheckResult("norm_algebra", worst <= tol, f"60 sampled pairs, worst {worst:.2e}")


def check_distance_fixed(config: Config, rng: np.random.Generator) -> CheckResult:
    s = 1.0 / math.sqrt(2.0)
    d = basis_ket(0).distance(superposition({0: s, 1: s}))
    expected = math.sqrt(2.0 - math.sqrt(2.0))
    dev = abs(d - expected)
    return CheckResult("distance_fixed_value", dev <= 1e-15, f"deviation {dev:.2e}")


def check_state_json(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    for i in range(40):
        registers = 1 if i % 2 else 2
        ket = _random_ket(rng, registers, int(rng.integers(1, 20)))
        text = ket.to_json()
        back = Ket.from_json(text)
        if back != ket:
            problems.append("roundtrip value drift")
        if back.to_json() != text:
            problems.append("serialization not stable")
    for bad in (
        '{"registers": 0, "terms": []}',
        '{"registers": 1, "terms": [{"label": 1.5, "re": 1.0, "im": 0.0}]}',
        '{"registers": 2, "terms": [{"labels": [1], "re": 1.0, "im": 0.0}]}',
        '{"registers": 1, "terms": [{"label": 1, "re": 1.0, "im": 0.0},'
        ' {"label": 1, "re": 0.0, "im": 0.0}]}',
        "not json",
    ):
        if _refusal(Ket.from_json, bad) is None:
            problems.append(f"accepted invalid document {bad[:30]!r}")
    return _verdict("state_json", problems, "40 round trips")


def check_zero_and_pruning(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    if _refusal(Ket(1, {}).normalized, refusal=ZeroNormError) is None:
        problems.append("zero vector normalized without error")
    if len(Ket(1, {(0,): 1e-16})) != 0:
        problems.append("sub-threshold amplitude not pruned")
    if len(Ket(1, {(0,): 1e-14})) != 1:
        problems.append("above-threshold amplitude pruned")
    return _verdict("zero_and_pruning", problems, "as specified")


# --- gate layer --------------------------------------------------------------


def check_gate_window(config: Config, rng: np.random.Generator) -> CheckResult:
    w = 32
    problems = []
    for n in range(-w, w + 1):
        for m in range(-w, w + 1):
            pair = basis_ket(n, m)
            out = gates.apply_plus(pair)
            if out.amplitude((n, n + m)) != 1.0:
                problems.append(f"plus({n},{m})")
            out = gates.apply_minus(pair)
            if out.amplitude((n, m - n)) != 1.0:
                problems.append(f"minus({n},{m})")
            if n == 0:
                if _refusal(gates.apply_times, pair, refusal=gates.GateDomainError) is None:
                    problems.append(f"strict(0,{m}) accepted")
            else:
                out = gates.apply_times(pair)
                if out.amplitude((n, n * m)) != 1.0:
                    problems.append(f"times({n},{m})")
            out = gates.apply_times(basis_ket(n, m, 0), gates.GateKind.TIMES_REVERSIBLE)
            if out.amplitude((n, m, n * m)) != 1.0:
                problems.append(f"times_rev({n},{m})")
    return _verdict("gate_window_exhaustive", problems, f"{(2 * w + 1) ** 2} label pairs per gate")


def _gate_sample(rng: np.random.Generator, kind: gates.GateKind, support: int) -> Ket:
    return _random_ket(
        rng,
        gates.ARITY[kind],
        support,
        nonzero_first=kind is gates.GateKind.TIMES_STRICT,
        zero_last=kind is gates.GateKind.TIMES_REVERSIBLE,
    )


def check_gate_norm_linearity(config: Config, rng: np.random.Generator) -> CheckResult:
    norm_tol = TOLERANCES["norm"]
    lin_tol = TOLERANCES["linearity"]
    worst_norm = 0.0
    worst_lin = 0.0
    states = 0
    for kind in gates.GateKind:
        for _ in range(100):
            ket = _gate_sample(rng, kind, int(rng.integers(1, 51)))
            out = gates.apply_gate(ket, kind)
            worst_norm = max(worst_norm, abs(out.norm() - 1.0))
            states += 1
        for _ in range(30):
            a = _gate_sample(rng, kind, int(rng.integers(1, 25)))
            b = _gate_sample(rng, kind, int(rng.integers(1, 25)))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            mixed = a.scaled(alpha).add_scaled(beta, b)
            lhs = gates.apply_gate(mixed, kind)
            rhs = gates.apply_gate(a, kind).scaled(alpha).add_scaled(
                beta, gates.apply_gate(b, kind)
            )
            worst_lin = max(worst_lin, lhs.distance(rhs))
    ok = worst_norm <= norm_tol and worst_lin <= lin_tol
    return CheckResult(
        "gate_norm_linearity",
        ok,
        f"{states} states, worst norm drift {worst_norm:.2e}, "
        f"worst linearity residual {worst_lin:.2e}",
    )


def check_plus_minus_inverse(config: Config, rng: np.random.Generator) -> CheckResult:
    tol = TOLERANCES["amplitude"]
    worst = -1.0
    moved = 0
    for _ in range(40):
        ket = _random_ket(rng, 2, int(rng.integers(1, 21)))
        back = gates.apply_minus(gates.apply_plus(ket))
        forth = gates.apply_plus(gates.apply_minus(ket))
        for other in (back, forth):
            if other.support() != ket.support():
                moved += 1
                continue
            worst = max(worst, ket.distance(other))
    detail = f"40 states, worst amplitude drift {max(worst, 0.0):.2e}"
    if moved:
        detail += f", {moved} round trips changed the support"
    return CheckResult("plus_minus_inverse", not moved and worst <= tol, detail)


def check_iterate_matches_times(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    for n in range(1, 10):
        for m in range(-9, 10):
            iterated = gates.iterate_plus(basis_ket(m, m), n - 1)
            if iterated.amplitude((m, n * m)) != 1.0:
                problems.append(f"iterate({n},{m})")
            if m != 0:
                direct = gates.apply_times(basis_ket(m, n))
                if direct.amplitude((m, n * m)) != 1.0:
                    problems.append(f"times({m},{n})")
    return _verdict("iterate_matches_times", problems, "171 pairs")


def check_gate_errors(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    mixed = superposition({(0, 3): 0.6, (2, 1): 0.8})
    exc = _refusal(gates.apply_times, mixed, refusal=gates.GateDomainError)
    if exc is None:
        problems.append("strict multiplier accepted a zero source")
    elif exc.component != (0, 3):
        problems.append(f"wrong offending component {exc.component}")
    exc = _refusal(
        gates.apply_times, basis_ket(2, 3, 1), gates.GateKind.TIMES_REVERSIBLE,
        refusal=gates.AncillaError,
    )
    if exc is None:
        problems.append("dirty result register accepted")
    elif exc.component != (2, 3, 1):
        problems.append(f"wrong ancilla component {exc.component}")
    program = gates.GateProgram(
        (
            gates.GateStep(gates.GateKind.PLUS, (1, 0)),
            gates.GateStep(gates.GateKind.TIMES_STRICT, (0, 1)),
        )
    )
    exc = _refusal(gates.run_program, program, basis_ket(-3, 3), refusal=gates.ProgramStepError)
    if exc is None:
        problems.append("program over a zero source ran to completion")
    elif exc.step_index != 1 or not isinstance(exc.cause, gates.GateDomainError):
        problems.append(f"wrong step attribution: {exc}")
    return _verdict("gate_errors", problems, "as specified")


# --- dynamics ----------------------------------------------------------------


def check_whole_shift_fidelity(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    tol = TOLERANCES["fidelity"]
    unit_tol = TOLERANCES["unitary_exact"]
    worst_fid = 0.0
    worst_norm = 0.0
    cases = [(2, 3, 1.0), (2, 3, 0.5), (4, -2, 0.75), (-4, 5, 0.25), (8, 1, 0.125)]
    for n in range(-6, 7):
        for m in (0, 3, -3):
            cases.append((n, m, 1.0))
    ran = 0
    for n, m, t in cases:
        shift = n * t
        if shift != int(shift) or abs(n) + abs(m) >= model.half:
            continue
        ran += 1
        state = dynamics.evolve_exact(model, n, m, t)
        fid = abs(state.amplitude((n, m + int(shift)))) ** 2
        worst_fid = max(worst_fid, abs(fid - 1.0))
        worst_norm = max(worst_norm, abs(state.norm() - 1.0))
    ok = worst_fid <= tol and worst_norm <= unit_tol
    return CheckResult(
        "whole_shift_fidelity",
        ok,
        f"{ran} cases, worst fidelity defect {worst_fid:.2e}, "
        f"worst norm drift {worst_norm:.2e}",
    )


def _window_pairs(config: Config, rng: np.random.Generator, count: int) -> list[tuple[int, int]]:
    half = config.dim // 2
    pairs = [(half - 1, 0), (-(half - 1), 0), (1, half - 2)]
    while len(pairs) < count:
        n = int(rng.integers(-(half - 1), half))
        m = int(rng.integers(-(half - 1), half))
        if abs(n) + abs(m) < half:
            pairs.append((n, m))
    return pairs


def check_numeric_vs_exact(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    tol = TOLERANCES["integrator"]
    unit_tol = TOLERANCES["unitary_numeric"]
    worst = 0.0
    worst_norm = 0.0
    pairs = _window_pairs(config, rng, 10)
    for n, m in pairs:
        for t in (0.3, 1.0, 1.4):
            approx = dynamics.evolve_numeric(model, n, m, t, config.dt)
            exact = dynamics.evolve_exact(model, n, m, t)
            worst = max(worst, approx.distance(exact))
            worst_norm = max(worst_norm, abs(approx.norm() - 1.0))
    ok = worst <= tol and worst_norm <= unit_tol
    return CheckResult(
        "numeric_vs_exact",
        ok,
        f"{len(pairs) * 3} runs, worst distance {worst:.2e}, worst norm drift {worst_norm:.2e}",
    )


def check_subsystem_consistency(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    tol = TOLERANCES["subsystem"]
    worst = 0.0
    for n, m in _window_pairs(config, rng, 12):
        for t in (0.4, 1.0, 1.3):
            pair = dynamics.evolve_exact(model, n, m, t)
            collapsed = Ket(1, {(key[1],): amp for key, amp in pair.items()})
            sub = dynamics.subsystem_evolve(model, n, m, t)
            worst = max(worst, collapsed.distance(sub))
    ok = worst <= tol
    return CheckResult("subsystem_consistency", ok, f"36 runs, worst distance {worst:.2e}")


# --- stopping times ----------------------------------------------------------

# trace_bookkeeping's grid size over [0, t_max].
STOP_SAMPLES = 200
# Grid steps of the other checks: that of 200 samples over [0, 4], and
# stop_near_unit's finer one.  At epsilon = 1e-3 the fidelity crosses
# 1 - 2 epsilon about 0.007 / |n| after it crosses 1 - epsilon: less than
# the coarse step, but more than the fine step for every |n| <= 6, so on
# the fine grid a threshold off by a factor of two moves every stopping
# time the check compares.
STOP_STEP = 4.0 / 199
STOP_FINE_STEP = 0.001


def _stop_grid(config: Config, step: float) -> tuple[float, int]:
    """Horizon and size of the grid of ``step`` over [0, t_max], at most MAX_SAMPLES."""
    steps = min(dynamics.MAX_SAMPLES - 1, max(1, math.floor(config.t_max / step + 1e-9)))
    return min(config.t_max, steps * step), steps + 1


def _stop_n_max(config: Config) -> int:
    return min(6, config.dim // 2 - 1)


def _probe_pairs(config: Config) -> list[tuple[int, int]]:
    """Fixed probe pairs, shrunk toward zero on small rings."""
    half = config.dim // 2
    out = []
    for n, m in ((2, 3), (4, -1), (-3, 2)):
        n = max(-half + 2, min(half - 2, n))
        lim = half - 1 - abs(n)
        m = max(-lim, min(lim, m)) if lim > 0 else 0
        out.append((n, m))
    return out


def check_trace_bookkeeping(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    tol = TOLERANCES["bookkeeping"]
    worst = 0.0
    negative = False
    for n, m in _probe_pairs(config)[:2]:
        trace = dynamics.detect_stopping_time(
            model, n, m, config.epsilon, config.t_max, STOP_SAMPLES
        )
        for fid, leak in zip(trace.fidelity, trace.leakage):
            worst = max(worst, abs(fid + leak - 1.0))
            negative = negative or fid < 0.0 or leak < -1e-15
    ok = worst <= tol and not negative
    return CheckResult(
        "trace_bookkeeping", ok, f"2 traces x {STOP_SAMPLES} samples, worst defect {worst:.2e}"
    )


def check_stop_near_unit(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    t_max, samples = _stop_grid(config, STOP_FINE_STEP)
    problems = []
    count = 0
    for n in range(-_stop_n_max(config), _stop_n_max(config) + 1):
        if n == 0:
            continue
        expected = dynamics.closed_form_stopping_time(model, n, config.epsilon, t_max, samples)
        for m in (0, 3, -3):
            if abs(n) + abs(m) >= model.half:
                continue
            trace = dynamics.detect_stopping_time(model, n, m, config.epsilon, t_max, samples)
            count += 1
            if trace.stopping_time is None:
                problems.append(f"no stopping time for ({n},{m})")
            elif trace.stopping_time != expected:
                problems.append(f"T({n},{m})={trace.stopping_time:.4f}, expected {expected:.4f}")
    return _verdict(
        "stop_near_unit",
        problems,
        f"{count} runs stop at the first grid time past the fidelity crossing",
    )


def check_off_peak_bound(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    t_max, samples = _stop_grid(config, STOP_STEP)
    worst = 0.0
    for n, m in _probe_pairs(config):
        trace = dynamics.detect_stopping_time(model, n, m, config.epsilon, t_max, samples)
        if trace.off_peak_past_stop is None:
            return CheckResult("off_peak_bound", False, f"no stopping time for ({n},{m})")
        worst = max(worst, trace.off_peak_past_stop)
    ok = worst <= config.epsilon
    return CheckResult(
        "off_peak_bound", ok, f"worst single-label leak past T is {worst:.2e}"
    )


def check_superadditivity(config: Config, rng: np.random.Generator) -> CheckResult:
    model = dynamics.build_model(config.dim)
    t_max, samples = _stop_grid(config, STOP_STEP)
    rows = dynamics.superadditivity_table(
        model, n_max=_stop_n_max(config), epsilon=config.epsilon, t_max=t_max, samples=samples
    )
    bad = [r for r in rows if not r.satisfied]
    detail = (
        f"{len(rows)} splits, all satisfied"
        if not bad
        else f"{len(bad)} of {len(rows)} splits violated, first at n={bad[0].n} k={bad[0].k}"
    )
    return CheckResult("superadditivity", not bad, detail)


# --- boolean layer -----------------------------------------------------------


def check_truth_tables(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    cases = 0
    for p, q in itertools.product((0, 1), repeat=2):
        expected = {"not": 1 - p, "and": p & q, "or": p | q}
        for name, want in expected.items():
            args = (p,) if name == "not" else (p, q)
            cases += 1
            if logic.eval_arithmetic(name, *args) != want:
                problems.append(f"arithmetic {name}{args}")
            if logic.eval_with_gates(name, *args) != want:
                problems.append(f"gates {name}{args}")
    return _verdict("truth_tables_dual", problems, f"{cases} cases, both paths")


def check_bit_domain(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    for fn, args in ((logic.not_, (2,)), (logic.and_, (1, -1)), (logic.or_, (0, "x"))):
        if _refusal(fn, *args) is None:
            problems.append(f"accepted {args!r}")
    return _verdict("bit_domain", problems, "as specified")


# --- operation terms ---------------------------------------------------------

_GOLDEN_CLASS1 = (
    (3, (1, 0, 1), "n+(m+k)"),
    (4, (1, 0, 2), "n+(mk)"),
    (5, (1, 1, 0), "(n+m)+k"),
    (6, (1, 1, 1), "(n+m)+(k+l)"),
    (7, (1, 1, 2), "(n+m)+(kl)"),
    (8, (1, 2, 0), "(nm)+k"),
    (9, (1, 2, 1), "(nm)+(k+l)"),
    (10, (1, 2, 2), "(nm)+(kl)"),
    (11, (2, 0, 1), "n(m+k)"),
    (12, (2, 0, 2), "n(mk)"),
    (13, (2, 1, 0), "(n+m)k"),
    (14, (2, 1, 1), "(n+m)(k+l)"),
    (15, (2, 1, 2), "(n+m)(kl)"),
    (16, (2, 2, 0), "(nm)k"),
    (17, (2, 2, 1), "(nm)(k+l)"),
    (18, (2, 2, 2), "(nm)(kl)"),
)


def check_elementary_indices(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    if terms.index_of(terms.FREE) != 0:
        problems.append("free leaf index")
    if terms.index_of(terms.Node(terms.BinOp.PLUS, terms.FREE, terms.FREE)) != 1:
        problems.append("elementary plus index")
    if terms.index_of(terms.Node(terms.BinOp.TIMES, terms.FREE, terms.FREE)) != 2:
        problems.append("elementary times index")
    if tuple(terms.class_size(k) for k in range(3)) != (3, 16, 704):
        problems.append("class sizes")
    if terms.cumulative_size(2) != 723:
        problems.append("cumulative size")
    return _verdict("elementary_indices", problems, "sizes 3/16/704")


def check_golden_class1(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    for delta, split, infix in _GOLDEN_CLASS1:
        if terms.decompose_index(delta) != split:
            problems.append(f"split({delta})")
        if terms.render_infix(terms.term_of(delta)) != infix:
            problems.append(f"infix({delta})")
    return _verdict("golden_class1_table", problems, "16 composed operations")


def check_index_roundtrip(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    last_class = 0
    for delta in range(10001):
        term = terms.term_of(delta)
        if terms.index_of(term) != delta:
            problems.append(f"roundtrip({delta})")
        k = terms.class_of(term)
        if k < last_class:
            problems.append(f"class order({delta})")
        last_class = k
    return _verdict("index_roundtrip", problems, "indices 0..10000, class-major")


def check_parse_render(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    if terms.parse_term("P(M0,T(M0,M0))") != terms.term_of(4):
        problems.append("prefix parse")
    if terms.parse_term("(n+m)+(kl)") != terms.term_of(7):
        problems.append("infix parse")
    if terms.parse_term("nm") != terms.term_of(2) or terms.parse_term("n*m") != terms.term_of(2):
        problems.append("product parse")
    for delta in (0, 1, 2, 7, 18, 100, 722, 5000):
        term = terms.term_of(delta)
        if terms.parse_term(terms.render_term(term)) != term:
            problems.append(f"prefix roundtrip({delta})")
        if terms.parse_term(terms.render_infix(term)) != term:
            problems.append(f"infix roundtrip({delta})")
    for bad in ("P(M0", "n+", "(n", "P(M0,M0,M0)", ""):
        if _refusal(terms.parse_term, bad, refusal=terms.TermSyntaxError) is None:
            problems.append(f"accepted {bad!r}")
    return _verdict("parse_render", problems, "round trips stable")


def check_dual_eval_examples(config: Config, rng: np.random.Generator) -> CheckResult:
    problems = []
    cases = (
        (7, (1, 2, 3, 4), 15),
        (13, (2, 3, 4), 20),
        (0, (5,), 5),
        (12, (-2, 3, -4), 24),
        (18, (2, -1, 3, 2), -12),
    )
    for delta, args, want in cases:
        report = terms.evaluate_gates(terms.term_of(delta), args)
        if report.oracle_result != want or report.gate_result != want or not report.agree:
            problems.append(f"delta {delta} args {args}")
    if _refusal(terms.evaluate_oracle, terms.term_of(7), (1, 2, 3), refusal=terms.ArityError) is None:
        problems.append("arity violation accepted")
    return _verdict("dual_eval_examples", problems, f"{len(cases)} fixed cases")


def check_bijection(config: Config, rng: np.random.Generator) -> CheckResult:
    failures = terms.bijection_report(config.class_bound)
    detail = (
        f"failures: {list(failures[:2])}"
        if failures
        else f"{terms.cumulative_size(config.class_bound)} terms through class {config.class_bound}"
    )
    return CheckResult("bijection_exhaustive", not failures, detail)


# Cases in one church_correspondence sweep, spread evenly over its terms.
CHURCH_BUDGET = 50000
# Arguments of the sweep lie in -CHURCH_ARGS..CHURCH_ARGS.
CHURCH_ARGS = 3


def church_sweep(
    class_bound: int, budget: int, rng: np.random.Generator
) -> tuple[int, list[dict]]:
    """Dual-evaluate every operation up to a class bound within a case budget.

    Small argument grids are swept exhaustively; wider ones fall back to
    seeded sampling so the total stays under the budget.  Each case runs
    the compiled program on label tuples, through its label map; the
    first case of every term also runs it on a ket, through the column
    pass, and must reach the same basis state, so every term checks the
    column pass against the basis lane.  Each disagreement is reported
    as a JSON-ready dict.

    A term is compiled once: ``evaluate_gates`` leaves the circuit on the
    term, where the ket route's ``compile_term`` finds it.  The sweep
    holds one term at a time, since ``term_of`` builds each class-3 term
    fresh and no cache keeps it, so a class-3 sweep runs in bounded
    memory.
    """
    total = terms.cumulative_size(class_bound)
    labels = range(-CHURCH_ARGS, CHURCH_ARGS + 1)
    quota = max(1, budget // total)
    cases = 0
    disagreements: list[dict] = []
    for delta in range(total):
        term = terms.term_of(delta)
        n = term.arity
        if len(labels)**n <= quota:
            pool = itertools.product(labels, repeat=n)
        else:
            # One block per term draws the same values, and leaves the
            # generator in the same state, as one call per case.
            pool = map(tuple, rng.integers(labels.start, labels.stop, size=(quota, n)).tolist())
        for i, args in enumerate(pool):
            report = terms.evaluate_gates(term, tuple(args))
            cases += 1
            if not report.agree:
                disagreements.append(report.to_json_dict())
            if i == 0:
                mismatch = _ket_route_mismatch(terms.compile_term(term), tuple(args))
                if mismatch is not None:
                    disagreements.append({**report.to_json_dict(), **mismatch})
    return cases, disagreements


def _ket_route_mismatch(compiled: gates.Circuit, args: tuple[int, ...]) -> dict | None:
    """Where the ket route and the basis lane part on one input, both outcomes."""
    lane = gates.run_basis(compiled.program, compiled.initial_labels(args))
    try:
        state = gates.run_program(compiled.program, compiled.initial_state(args))
    except gates.ProgramStepError as exc:
        return {"basis_lane": list(lane), "ket_route": f"error: {exc}"}
    if state == basis_ket(*lane):
        return None
    return {"basis_lane": list(lane), "ket_route": state.to_json_dict()}


def check_church_correspondence(config: Config, rng: np.random.Generator) -> CheckResult:
    cases, disagreements = church_sweep(config.class_bound, CHURCH_BUDGET, rng)
    ok = not disagreements
    detail = (
        f"{cases} sampled cases, no disagreements"
        if ok
        else f"first disagreement: {disagreements[0]}"
    )
    return CheckResult("church_correspondence", ok, detail)


# --- suites ------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "hilbert": (
        check_norm_algebra,
        check_distance_fixed,
        check_state_json,
        check_zero_and_pruning,
    ),
    "gates": (
        check_gate_window,
        check_gate_norm_linearity,
        check_plus_minus_inverse,
        check_iterate_matches_times,
        check_gate_errors,
    ),
    "dynamics": (
        check_whole_shift_fidelity,
        check_numeric_vs_exact,
        check_subsystem_consistency,
    ),
    "stopping": (
        check_trace_bookkeeping,
        check_stop_near_unit,
        check_off_peak_bound,
        check_superadditivity,
    ),
    "logic": (
        check_truth_tables,
        check_bit_domain,
    ),
    "termalg": (
        check_elementary_indices,
        check_golden_class1,
        check_index_roundtrip,
        check_parse_render,
        check_dual_eval_examples,
    ),
    "bijection": (check_bijection,),
    "church": (check_church_correspondence,),
}

SUITES["all"] = tuple(fn for name in SUITE_NAMES for fn in SUITES[name])


def run_suite(name: str, config: Config, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    results = [fn(config, rng) for fn in SUITES[name]]
    failed = sum(1 for r in results if not r.ok)
    return {
        "suite": name,
        "seed": seed,
        "config": {**config.to_json_dict(), "tolerances": TOLERANCES},
        "checks": [r.to_json_dict() for r in results],
        "passed": len(results) - failed,
        "failed": failed,
        "ok": failed == 0,
    }
