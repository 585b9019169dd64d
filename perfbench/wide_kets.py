"""wide_kets: gate programs on wide superpositions, in process.

One op runs three gate programs on a seeded 3-register ket whose third
register is 0: plus steps, the minus program that undoes them, and the
reversible multiplier.  A share of ops also takes an inner product, a
tensor product and a ``to_json``/``from_json`` round trip.  Supports are
10^2 to 10^5 components; labels run from one digit to several hundred.
Few kets are built per op, but each is wide, unlike terms_eval.

Every op has an input ket of its own, and each ket draws its labels from
a menu of sizes of its own, so the latencies within one support spread
over about a factor of two instead of sitting on a few values.  A p50 or
p90 inside such a spread moves smoothly with the host's speed; on a few
distinct values it would jump between them.
"""

from __future__ import annotations

import random

from qarith import gates, states
from qarith.gates import GateKind, GateProgram, GateStep

from bench import Op, Workload, digest

WHY = ("few but wide kets (10^2 to 10^5 components, labels up to hundreds of digits) through "
       "plus, minus and times programs, inner, tensor and JSON")
IN_PROCESS = True

# (a, b, 0) -> (a, a+b, 0) -> (2a+b, a+b, 0)
FORWARD = GateProgram((GateStep(GateKind.PLUS, (0, 1)), GateStep(GateKind.PLUS, (1, 0))))
# (2a+b, a+b, 0) -> (a, a+b, 0) -> (a, b, 0)
INVERSE = GateProgram((GateStep(GateKind.MINUS, (1, 0)), GateStep(GateKind.MINUS, (0, 1))))
# (a, b, 0) -> (a, b, ab)
TIMES = GateProgram((GateStep(GateKind.TIMES_REVERSIBLE, (0, 1, 2)),))
QUBIT_AMPS = {(0,): 0.6, (1,): 0.8}
# Label sizes in bits: one digit up to about 500 digits.  A ket's labels
# draw from one menu, a prefix of LABEL_BITS; the shortest menu still has
# enough distinct labels for 10^5 components.
LABEL_BITS = (3, 7, 10, 20, 66, 200, 500, 1000, 1660)
MENUS = tuple(LABEL_BITS[:n] for n in range(len(LABEL_BITS), 2, -1))
TOL_NORM = 1e-12
# Ops per 100-op deck, by (support, with inner/tensor/JSON extras).  Latency
# grows with support, so p50 lies inside 10^3 plain (30-70%) and p90 inside
# 10^4 plain (75-99%).  One 10^5 op per deck keeps a 100-op run affordable.
SHARES = {
    (100, False): 20,
    (100, True): 10,
    (1000, False): 40,
    (1000, True): 5,
    (10000, False): 24,
    (100000, False): 1,
}


def _label(rng: random.Random, menu: tuple) -> int:
    value = rng.getrandbits(rng.choice(menu))
    return -value if rng.random() < 0.5 else value


def make_ket(rng: random.Random, support: int, menu: tuple = LABEL_BITS):
    """A normalized ket with labels of ``menu`` sizes and a digest of its generated components."""
    amps = {}
    while len(amps) < support:
        amps[(_label(rng, menu), _label(rng, menu), 0)] = complex(rng.random() - 0.5, rng.random() - 0.5)
    # Hashes of ints, floats and tuples do not depend on the process, unlike those of str.
    return states.Ket(3, amps).normalized(), f"{hash(tuple(amps.items())) & (2**64 - 1):016x}"


def program(ket):
    a = gates.run_program(FORWARD, ket)
    b = gates.run_program(INVERSE, a)
    return a, b, gates.run_program(TIMES, b)


def program_extras(ket):
    a, b, c = program(ket)
    text = c.to_json()
    back = states.Ket.from_json(text)
    return a, b, c, ket.inner(b), ket.tensor(states.Ket(1, QUBIT_AMPS)), text, back, back.to_json()


def check(ket, extras: bool):
    def check_out(out) -> str | None:
        src = dict(ket.items())
        a, b, c = out[:3]
        if dict(a.items()) != {(2 * x + y, x + y, z): v for (x, y, z), v in src.items()}:
            return "plus program result differs from the label oracle"
        if dict(b.items()) != src:
            return "minus program did not restore the input exactly"
        if dict(c.items()) != {(x, y, x * y): v for (x, y, _), v in src.items()}:
            return "times program result differs from the label oracle"
        if abs(c.norm() - 1.0) > TOL_NORM:
            return f"norm {c.norm()!r} not preserved"
        if not extras:
            return None
        inner, tensor, text, back, text2 = out[3:]
        if abs(inner - 1.0) > TOL_NORM:
            return f"<in|restored> = {inner!r}, expected 1"
        if dict(tensor.items()) != {k + q: v * complex(w) for k, v in src.items() for q, w in QUBIT_AMPS.items()}:
            return "tensor product differs from the component-wise product"
        if text != text2 or dict(back.items()) != dict(c.items()):
            return "JSON round trip is not byte-stable"
        return None

    return check_out


def build(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"wide_kets-{seed}")
    deck, inputs = [], []
    for (support, extras), ops in SHARES.items():
        kind = f"s{support}{'+extras' if extras else ''}"
        fn = program_extras if extras else program
        n = 1 if smoke else ops
        # The menus of a kind are spread evenly over MENUS, longest first, so
        # every seed gives each kind the same mix of label sizes.
        for i in range(n):
            menu = MENUS[i * len(MENUS) // n]
            ket, ket_digest = make_ket(rng, support, menu)
            inputs.append([kind, len(menu), ket_digest])
            deck.append(Op(kind, f"support {support}, labels up to {menu[-1]} bits, input {i}",
                           fn, (ket,), check(ket, extras)))
    rng.shuffle(deck)
    return Workload("wide_kets", [deck], digest(inputs), rotate_cores=True)
