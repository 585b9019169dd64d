"""terms_eval: dual evaluation of indexed terms, in process.

One op is the path behind ``qarith eval``: resolve a term (by index
through ``term_of``, or from text through ``parse_term``), run
``evaluate_gates`` on integer arguments and render the report, which asks
``index_of`` for the term's index.  A small share runs
``logic.eval_with_gates`` instead.

Revisited terms come from classes <= 2 (723 terms), whose lru cache
entries are warm; fresh terms are drawn without replacement from class 3
(1,044,736 terms), so they are cold.  Every deck starts from cleared term
caches, warmed again for classes <= 2 outside the timed ops, so each
deck does the same cached and uncached work however many decks a run
completes, and the caches stay bounded by one deck's inputs.
"""

from __future__ import annotations

import json
import random

from qarith import logic, terms
from qarith.terms import BinOp, FreeVar

from bench import Op, Workload, digest

WHY = ("term algebra and gates on basis states (one Ket per gate step) with warm and cold "
       "lru caches; dynamics idle")
IN_PROCESS = True

WARM = terms.cumulative_size(2)       # 723 terms of class <= 2
FRESH = terms.class_size(3)           # 1,044,736 terms of class 3
DECK_OPS = 4000
# Op kinds per 20 ops.  Sorted by latency the kinds fall roughly as listed,
# so p50 lies inside "revisit" and p90 inside "fresh".
SHARES = {"logic": 1, "revisit": 12, "text": 1, "fresh": 6}
CACHED = ("term_of", "compile_term", "index_of")


def value(term, args: tuple) -> int:
    """Integer value of a term, arguments bound to leaves left to right."""
    it = iter(args)

    def go(t):
        if isinstance(t, FreeVar):
            return next(it)
        a, b = go(t.left), go(t.right)
        return a + b if t.op is BinOp.PLUS else a * b

    return go(term)


def eval_index(delta: int, args: tuple):
    term = terms.term_of(delta)
    return term, terms.evaluate_gates(term, args).to_json()


def eval_text(text: str, args: tuple):
    term = terms.parse_term(text)
    return term, terms.evaluate_gates(term, args).to_json()


def check_eval(delta: int, args: tuple):
    def check(out) -> str | None:
        term, text = out
        doc = json.loads(text)
        want = value(term, args)
        if not doc["agree"] or doc["gates"] != doc["oracle"]:
            return f"gate result {doc['gates']} != oracle {doc['oracle']}"
        if doc["gates"] != want:
            return f"value {doc['gates']} != expected {want}"
        if doc["index"] != delta:
            return f"index {doc['index']} != {delta}"
        return None

    return check


LOGIC = {"not": lambda p: 1 - p, "and": lambda p, q: p * q, "or": lambda p, q: p | q}


def check_logic(name: str, bits: tuple):
    want = LOGIC[name](*bits)
    return lambda out: None if out == want else f"{name}{bits} = {out}, expected {want}"


def _eval_logic(name: str, bits: tuple) -> int:
    return logic.eval_with_gates(name, *bits)


def _deck_kinds(rng: random.Random, ops: int) -> list:
    kinds = [k for k, n in SHARES.items() for _ in range(n)] * (ops // sum(SHARES.values()))
    rng.shuffle(kinds)
    return kinds


def _args(rng: random.Random, term) -> tuple:
    return tuple(rng.randint(-99, 99) for _ in range(terms.arity(term)))


def build(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"terms_eval-{seed}")
    kinds = list(SHARES) if smoke else _deck_kinds(rng, DECK_OPS)
    fresh = iter(rng.sample(range(WARM, WARM + FRESH), kinds.count("fresh")))
    ops, inputs = [], []
    for kind in kinds:
        if kind == "logic":
            name = rng.choice(sorted(LOGIC))
            bits = tuple(rng.randint(0, 1) for _ in range(1 if name == "not" else 2))
            ops.append(Op(kind, f"{name}{bits}", _eval_logic, (name, bits), check_logic(name, bits)))
            inputs.append([kind, name, bits])
            continue
        delta = next(fresh) if kind == "fresh" else rng.randrange(WARM)
        term = terms.term_of(delta)
        args = _args(rng, term)
        if kind == "text":
            render = terms.render_term if rng.random() < 0.5 else terms.render_infix
            text = render(term)
            ops.append(Op(kind, f"{text!r} {args}", eval_text, (text, args), check_eval(delta, args)))
            inputs.append([kind, text, args])
        else:
            ops.append(Op(kind, f"{delta} {args}", eval_index, (delta, args), check_eval(delta, args)))
            inputs.append([kind, delta, args])
    cache = {name: [0, 0] for name in CACHED}
    base = {}

    def snapshot():
        return {name: getattr(terms, name).cache_info() for name in CACHED
                if hasattr(getattr(terms, name), "cache_info")}

    def before_deck():
        for name in CACHED:
            clear = getattr(getattr(terms, name), "cache_clear", None)
            if clear is not None:
                clear()
        for delta in range(WARM):
            term = terms.term_of(delta)
            terms.compile_term(term)
            terms.index_of(term)
        base.update(snapshot())

    def after_deck():
        for name, info in snapshot().items():
            cache[name][0] += info.hits - base[name].hits
            cache[name][1] += info.misses - base[name].misses

    return Workload("terms_eval", [ops], digest(inputs), before_deck, after_deck, {"cache": cache},
                    rotate_cores=True)
