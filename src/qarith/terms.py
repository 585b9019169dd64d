"""Composed arithmetic operations built from the adder and multiplier.

A term is either the free leaf (one unconstrained integer argument) or a
binary node applying plus or times to two sub-terms.  Terms are graded
into classes: the leaf and the two elementary patterns plus(leaf, leaf)
and times(leaf, leaf) form class 0, and a node belongs to class k >= 1
when the deepest non-leaf structure among its children sits in class
k - 1.  Every term gets a global index: class-major, and within a class
ordered by (operation, left child index, right child index).

Within class k the child index pair (x, y) ranges over the L-shaped
region [0, A) x [0, A) minus [0, B) x [0, B), where A counts terms of
class <= k - 1 and B counts terms of class <= k - 2 (B = 1 for k = 1,
excluding only the leaf/leaf pair, which stays elementary).  Ranking and
unranking over that region are closed-form, so term_of runs without
enumerating anything.

Evaluation is dual: an exact integer recursion, and compilation to a
gate program over basis states whose results must agree.

No cache holds a term past class 2.  ``term_of`` keeps a table of the
723 terms of class <= 2 and builds every larger term fresh from it, so
each class-3 term's children come from the table.  Each node keeps its
own index and compiled circuit once asked for them, and its prefix text
when it is at most 3 deep; these memos live and die with the node, so a
class-3 sweep holds one term at a time.  ``term_of``, ``index_of`` and
``compile_term`` count hits and misses in ``cache_info()``, and
``cache_clear()`` drops what the table holds, as an ``lru_cache`` would.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from itertools import count

from .gates import ArityError, Circuit, GateKind, GateProgram, GateStep


class BinOp(IntEnum):
    PLUS = 1
    TIMES = 2


@dataclass(frozen=True)
class FreeVar:
    """Leaf standing for one integer argument."""

    __slots__ = ()
    arity = 1
    depth = 0
    # A leaf's memos, read as a node's are: index 0, text M0, and no
    # circuit, as a leaf cannot store one.
    _index = 0
    _text = "M0"
    _circuit = None


# Deepest term the recursive tree walks (render_term, render_infix,
# compile_term, evaluate_oracle and repr) accept.  Each recurses once per
# level, well inside Python's default recursion limit of 1000, and the
# bound is far past the MAX_TERM_DEPTH = 13 that parsed terms reach.
MAX_WALK_DEPTH = 200


class TermDepthError(ValueError):
    """A term deeper than MAX_WALK_DEPTH, built directly with ``Node``."""

    def __init__(self, term: "Term"):
        super().__init__(f"term is {term.depth} deep, past MAX_WALK_DEPTH = {MAX_WALK_DEPTH}")


# Nodes are frozen: their fields and memos are written with object's own
# setter, past the dataclass's refusal.
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Node:
    op: BinOp
    left: "Term"
    right: "Term"
    _hash: int = field(init=False, repr=False, compare=False)
    arity: int = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    # Memos, None until first asked for: the index, the prefix text (kept
    # only at most _TEXT_DEPTH deep) and the compiled circuit.
    _index: int | None = field(init=False, repr=False, compare=False)
    _text: str | None = field(init=False, repr=False, compare=False)
    _circuit: Circuit | None = field(init=False, repr=False, compare=False)

    def __init__(self, op: BinOp, left: "Term", right: "Term") -> None:
        # The hash the dataclass would give, the leaf count and the longest
        # root-to-leaf path come from the children's stored values, so
        # cache lookups and shape reads never walk the tree.
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((op, left, right)))
        _set(self, "arity", left.arity + right.arity)
        _set(self, "depth", 1 + max(left.depth, right.depth))
        _set(self, "_index", None)
        _set(self, "_text", None)
        _set(self, "_circuit", None)

    def __reduce__(self):
        # A copy or an unpickled term is built again from its parts, so it
        # starts with no memos.
        return (Node, (self.op, self.left, self.right))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Walks both terms with an explicit stack, so terms of any depth
        # compare; a differing stored hash or depth ends the walk at once.
        if self is other:
            return True
        if type(other) is not Node:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if type(a) is Node:
                if a._hash != b._hash or a.depth != b.depth or a.op != b.op:
                    return False
                pairs.append((a.right, b.right))
                pairs.append((a.left, b.left))
        return True

    def __repr__(self) -> str:
        if self.depth > MAX_WALK_DEPTH:
            return f"Node(<{self.depth} deep, arity {self.arity}>)"
        return f"Node(op={self.op!r}, left={self.left!r}, right={self.right!r})"


Term = FreeVar | Node

# Bound once: looking up an Enum member costs more than the per-node work
# of the tree walks below.
_SUM = BinOp.PLUS
_OPS = (None, BinOp.PLUS, BinOp.TIMES)
_ADDER, _MULTIPLIER = GateKind.PLUS, GateKind.TIMES_REVERSIBLE

FREE = FreeVar()


# Class sizes explode combinatorially (class 4 has ~2e12 terms), so
# exhaustive sweeps stop at class 3.
MAX_CLASS_BOUND = 3


def check_class_bound(bound: object) -> None:
    """Class bound for exhaustive sweeps, in 0..MAX_CLASS_BOUND."""
    if not isinstance(bound, int) or isinstance(bound, bool) or not (0 <= bound <= MAX_CLASS_BOUND):
        raise ValueError(f"class bound must be in 0..{MAX_CLASS_BOUND}, got {bound!r}")


def arity(term: Term) -> int:
    return term.arity


def class_of(term: Term) -> int:
    """A term of depth d has class d - 1; the leaf is class 0."""
    return max(term.depth - 1, 0)


@lru_cache(maxsize=None)
def class_size(k: int) -> int:
    if k < 0:
        raise ValueError(f"class must be non-negative, got {k}")
    if k == 0:
        return 3
    a, b = _region_bounds(k)
    return 2 * (a * a - b * b)


@lru_cache(maxsize=None)
def cumulative_size(k: int) -> int:
    """Number of terms of class <= k."""
    if k == 0:
        return 3
    return cumulative_size(k - 1) + class_size(k)


def _region_bounds(k: int) -> tuple[int, int]:
    a = cumulative_size(k - 1)
    b = cumulative_size(k - 2) if k >= 2 else 1
    return a, b


def _pair_rank(x: int, y: int, a: int, b: int) -> int:
    # Rows x < b contribute only columns y >= b; rows x >= b are full.
    if x < b:
        return x * (a - b) + (y - b)
    return b * (a - b) + (x - b) * a + y


def _pair_unrank(r: int, a: int, b: int) -> tuple[int, int]:
    top = b * (a - b)
    if r < top:
        x, off = divmod(r, a - b)
        return x, b + off
    x, y = divmod(r - top, a)
    return b + x, y


# term_of's table: the terms of class <= 2, built on first use.  Every
# class-3 term's children are among them, so a class-3 term costs one
# node; larger terms are built fresh, and no term past class 2 is kept.
_TABLE_SIZE = cumulative_size(2)
_TABLE: dict[int, Term] = {}

# Deepest node that keeps its prefix text.  A class-3 term (depth 4) then
# renders as one f-string over its children's texts, and a text memo is
# never longer than a class-2 term's.
_TEXT_DEPTH = 3

# The fields of functools' CacheInfo, which the tests and perfbench read.
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo:
    """Hit and miss counts of a function whose results the terms keep, with
    ``lru_cache``'s controls over them.

    A cache holds what the table holds: for ``term_of`` its terms, and for
    a memo ``slot`` that slot of each tabled node.  ``clear`` drops those,
    so no tabled term keeps a result from before it.
    """

    __slots__ = ("hits", "misses", "slot")

    def __init__(self, slot: str | None = None):
        self.hits = self.misses = 0
        self.slot = slot

    def info(self) -> _CacheInfo:
        if self.slot is None:
            held = len(_TABLE)
        else:
            held = sum(getattr(t, self.slot) is not None for t in _TABLE.values() if type(t) is Node)
        return _CacheInfo(self.hits, self.misses, _TABLE_SIZE, held)

    def clear(self) -> None:
        self.hits = self.misses = 0
        if self.slot is None:
            _TABLE.clear()
            return
        for t in _TABLE.values():
            if type(t) is Node:
                _set(t, self.slot, None)


_TERMS, _INDICES, _CIRCUITS = _Memo(), _Memo("_index"), _Memo("_circuit")


def index_of(term: Term) -> int:
    delta = term._index
    if delta is not None:
        _INDICES.hits += 1
        return delta
    _INDICES.misses += 1
    k = class_of(term)
    if k == 0:
        delta = int(term.op)
    else:
        a, b = _region_bounds(k)
        pairs = a * a - b * b
        rank = (int(term.op) - 1) * pairs + _pair_rank(index_of(term.left), index_of(term.right), a, b)
        delta = cumulative_size(k - 1) + rank
    _set(term, "_index", delta)
    return delta


def term_of(delta: int) -> Term:
    # Only a plain int looks in the table before the checks: a bool is an
    # int too, and True would find the entry of 1.
    term = _TABLE.get(delta) if type(delta) is int else None
    if term is not None:
        _TERMS.hits += 1
        return term
    if not isinstance(delta, int) or isinstance(delta, bool) or delta < 0:
        raise ValueError(f"index must be a non-negative integer, got {delta!r}")
    _TERMS.misses += 1
    return _build(int(delta))


def _build(delta: int) -> Term:
    """The term of a non-negative index: from the table, or built from its
    children and tabled if it is of class <= 2."""
    term = _TABLE.get(delta)
    if term is not None:
        return term
    if delta <= 2:
        term = FREE if delta == 0 else Node(_OPS[delta], FREE, FREE)
    else:
        k = 1
        while cumulative_size(k) <= delta:
            k += 1
        a, b = _region_bounds(k)
        op, r = divmod(delta - cumulative_size(k - 1), a * a - b * b)
        x, y = _pair_unrank(r, a, b)
        term = Node(_OPS[op + 1], _build(x), _build(y))
    if delta < _TABLE_SIZE:
        _TABLE[delta] = term
    return term


def decompose_index(delta: int) -> tuple[int, int, int] | None:
    """Split an index into (operation, left index, right index); None for the leaf."""
    term = term_of(delta)
    if isinstance(term, FreeVar):
        return None
    return (int(term.op), index_of(term.left), index_of(term.right))


def enumerate_class(k: int, limit: int | None = None) -> Iterator[tuple[int, Term]]:
    """Lazy (index, term) pairs of class k in index order, at most ``limit`` of them."""
    if k < 0:
        raise ValueError(f"class must be non-negative, got {k}")
    size = class_size(k)
    count = size if limit is None else max(0, min(limit, size))
    base = 0 if k == 0 else cumulative_size(k - 1)
    return ((delta, term_of(delta)) for delta in range(base, base + count))


# --- text forms ------------------------------------------------------------

_VAR_NAMES = "nmklpqrsabcdefgh"


def render_term(term: Term) -> str:
    """Prefix form: M0, P(a,b), T(a,b)."""
    if term.depth > MAX_WALK_DEPTH:
        raise TermDepthError(term)
    return _prefix(term)


def _prefix(t: Term) -> str:
    text = t._text
    if text is None:
        text = f"{'P' if t.op is _SUM else 'T'}({_prefix(t.left)},{_prefix(t.right)})"
        if t.depth <= _TEXT_DEPTH:
            _set(t, "_text", text)
    return text


def render_infix(term: Term) -> str:
    """Infix form with fresh single-letter arguments, products by juxtaposition."""
    if term.depth > MAX_WALK_DEPTH:
        raise TermDepthError(term)
    return _infix(term, map(_var_name, count()))


def _var_name(i: int) -> str:
    return _VAR_NAMES[i] if i < len(_VAR_NAMES) else f"x{i}"


def _wrap(text: str, child: Term) -> str:
    return text if isinstance(child, FreeVar) and len(text) == 1 else f"({text})"


def _infix(t: Term, names: Iterator[str]) -> str:
    if isinstance(t, FreeVar):
        return next(names)
    lhs, rhs = _infix(t.left, names), _infix(t.right, names)
    if t.op is _SUM:
        return f"{_wrap(lhs, t.left)}+{_wrap(rhs, t.right)}"
    return f"{_wrap(lhs, t.left)}{_wrap(rhs, t.right)}"


class TermSyntaxError(ValueError):
    """Unparseable term text."""


# Deepest term text parse_term accepts: at most this many operations on
# any root-to-leaf path, and at most this many nested parentheses or
# P(/T( groups.  A term of depth d has class d - 1, and the index grows
# doubly exponentially with class: class 12 indices have up to about
# 3,200 decimal digits, class 13 ones up to about 6,500, past the 4,300
# digits Python turns into text by default, and indexing a 26-leaf sum
# (class 24) did not finish within a minute on a 2-vCPU machine.  The
# bound keeps every parsed term printable by eval and show, and the
# parser's recursion shallow.
MAX_TERM_DEPTH = 13

# P and T are prefix operators only when a parenthesis follows; otherwise a
# single letter is a variable leaf.
_TOKEN = re.compile(r"\s*(?:(?P<op>[PT])\(|(?P<m0>M0)|(?P<var>x\d+|[A-Za-z])|(?P<punct>[+*(),]))")

_TOO_DEEP = f"term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}"


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise TermSyntaxError(f"bad character at position {pos}: {text[pos:]!r}")
            if m.lastgroup == "op":
                self.tokens.append(("op", m.group("op")))
                self.tokens.append(("punct", "("))
            else:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup)))  # type: ignore[arg-type]
            pos = m.end()
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, punct: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of term")
        if punct is not None and tok != ("punct", punct):
            raise TermSyntaxError(f"expected {punct!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> Term:
        term = self.sum()
        if self.peek() is not None:
            raise TermSyntaxError(f"trailing input from token {self.peek()[1]!r}")
        return term

    @staticmethod
    def node(op: BinOp, left: Term, right: Term) -> Term:
        term = Node(op, left, right)
        if term.depth > MAX_TERM_DEPTH:
            raise TermSyntaxError(_TOO_DEEP)
        return term

    def sum(self) -> Term:
        term = self.product()
        while self.peek() == ("punct", "+"):
            self.take()
            term = self.node(BinOp.PLUS, term, self.product())
        return term

    def product(self) -> Term:
        term = self.factor()
        while True:
            tok = self.peek()
            if tok == ("punct", "*"):
                self.take()
                term = self.node(BinOp.TIMES, term, self.factor())
            elif tok is not None and tok[1] not in ("+", ")", ","):
                term = self.node(BinOp.TIMES, term, self.factor())
            else:
                return term

    def factor(self) -> Term:
        kind, text = self.take()
        if kind in ("m0", "var"):
            # Variable names are decorative: every occurrence is a fresh leaf.
            return FREE
        if kind == "op" or (kind, text) == ("punct", "("):
            self.nesting += 1
            if self.nesting > MAX_TERM_DEPTH:
                raise TermSyntaxError(_TOO_DEEP)
            if kind == "op":
                self.take("(")
                left = self.sum()
                self.take(",")
                right = self.sum()
                self.take(")")
                term = self.node(BinOp.PLUS if text == "P" else BinOp.TIMES, left, right)
            else:
                term = self.sum()
                self.take(")")
            self.nesting -= 1
            return term
        raise TermSyntaxError(f"unexpected token {text!r}")


def parse_term(text: str) -> Term:
    """Term from prefix or infix text, at most MAX_TERM_DEPTH deep."""
    if not isinstance(text, str) or not text.strip():
        raise TermSyntaxError("empty term")
    return _Parser(text).parse()


# --- evaluation ------------------------------------------------------------


def evaluate_oracle(term: Term, args: tuple[int, ...]) -> int:
    """Exact integer value with arguments bound to leaves left to right."""
    n = term.arity
    if len(args) != n:
        raise ArityError(f"term takes {n} argument(s), got {len(args)}")
    for v in args:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"arguments must be integers, got {v!r}")
    if term.depth > MAX_WALK_DEPTH:
        raise TermDepthError(term)
    return _oracle(term, iter(args))


def _oracle(t: Term, args: Iterator[int]) -> int:
    if isinstance(t, FreeVar):
        return next(args)
    lhs = _oracle(t.left, args)
    rhs = _oracle(t.right, args)
    return lhs + rhs if t.op is _SUM else lhs * rhs


def compile_term(term: Term) -> Circuit:
    """Gate program computing a term on basis states.

    Inputs occupy the first ``arity`` registers, leaves left to right;
    every multiplication node owns one ancilla register that starts at 0.
    A node keeps its circuit, so a second call on it compiles nothing.
    """
    circuit = term._circuit
    if circuit is not None:
        _CIRCUITS.hits += 1
        return circuit
    _CIRCUITS.misses += 1
    if term.depth > MAX_WALK_DEPTH:
        raise TermDepthError(term)
    n = term.arity
    steps: list[GateStep] = []
    next_ancilla = [n]
    result = _emit(term, 0, steps, next_ancilla)
    circuit = Circuit(
        program=GateProgram(tuple(steps)),
        arity=n,
        constants=(0,) * (next_ancilla[0] - n),
        result_register=result,
    )
    if type(term) is Node:
        _set(term, "_circuit", circuit)
    return circuit


def _emit(t: Term, leaf: int, steps: list[GateStep], next_ancilla: list[int]) -> int:
    """Append the steps computing ``t`` and return the register holding its value.

    The leaves of ``t`` sit in registers ``leaf`` onwards;
    ``next_ancilla[0]`` is the next unused ancilla register.
    """
    if isinstance(t, FreeVar):
        return leaf
    lhs = _emit(t.left, leaf, steps, next_ancilla)
    rhs = _emit(t.right, leaf + t.left.arity, steps, next_ancilla)
    if t.op is _SUM:
        # Target keeps the sum; the source register stays intact.
        steps.append(GateStep(_ADDER, (lhs, rhs)))
        return rhs
    out = next_ancilla[0]
    next_ancilla[0] += 1
    steps.append(GateStep(_MULTIPLIER, (lhs, rhs, out)))
    return out


term_of.cache_info, term_of.cache_clear = _TERMS.info, _TERMS.clear
index_of.cache_info, index_of.cache_clear = _INDICES.info, _INDICES.clear
compile_term.cache_info, compile_term.cache_clear = _CIRCUITS.info, _CIRCUITS.clear


@dataclass(frozen=True, slots=True)
class EvalReport:
    """One dual evaluation: a term, its integer arguments, and both results.

    ``gate_result`` is what the compiled gate program gives and
    ``oracle_result`` what the integer recursion gives; ``agree`` says
    whether they match.  The JSON document has six keys in this order:
    ``term`` (prefix form), ``index``, ``args``, ``gates``, ``oracle`` and
    ``agree``.

    ``to_json`` writes that document directly and is byte-identical to
    ``json.dumps(self.to_json_dict())`` for integer fields other than
    ``bool`` (which ``evaluate_gates`` refuses as arguments): the same key
    order, separators and integer text, and the same ``ValueError`` for an
    integer past the int-to-text digit limit.  It needs no escaping, since
    a prefix form holds only ``PTM0(),``.  Writing it directly skips
    building a dict and running the encoder, which took half of a warm
    in-process evaluation; ``to_json_dict`` stays, as ``verify`` reads it
    and as the reference ``to_json`` is tested against.
    """

    term: Term
    args: tuple[int, ...]
    gate_result: int
    oracle_result: int

    @property
    def agree(self) -> bool:
        return self.gate_result == self.oracle_result

    def to_json_dict(self) -> dict:
        return {
            "term": render_term(self.term),
            "index": index_of(self.term),
            "args": list(self.args),
            "gates": self.gate_result,
            "oracle": self.oracle_result,
            "agree": self.agree,
        }

    def to_json(self) -> str:
        # Integers print through int.__repr__, as json's encoder does, so a
        # subclass's own __str__ or __repr__ is not used.
        text = render_term(self.term)
        r = int.__repr__
        return (
            f'{{"term": "{text}", "index": {r(index_of(self.term))}, '
            f'"args": [{", ".join(map(r, self.args))}], '
            f'"gates": {r(self.gate_result)}, "oracle": {r(self.oracle_result)}, '
            f'"agree": {"true" if self.agree else "false"}}}'
        )


def evaluate_gates(term: Term, args: tuple[int, ...]) -> EvalReport:
    """Run the compiled program and compare against the integer recursion."""
    args = tuple(args)
    # The oracle checks the arguments first, so an arity error names the term.
    oracle = evaluate_oracle(term, args)
    return EvalReport(term, args, gate_result=compile_term(term).run(args), oracle_result=oracle)


# --- indexing self-check ---------------------------------------------------


def bijection_report(max_class: int) -> tuple[dict, ...]:
    """Failures of an exhaustive index_of/term_of check up to a class bound.

    The bound is capped at MAX_CLASS_BOUND.  Each failure records the
    index and the term, so a broken scheme is directly inspectable; no
    failures means the check passed.  The enumeration must give exactly
    the indices 0 .. cumulative_size - 1 in order; a "gap" failure names
    the index expected next and the one given, None if the enumeration
    ended.  No collision check is needed: ``index_of`` is a function, so
    if every term maps back to its own index, no two indices share a term.
    """
    check_class_bound(max_class)
    failures: list[dict] = []
    expected = 0
    for k in range(max_class + 1):
        for delta, term in enumerate_class(k):
            if delta != expected:
                failures.append({"kind": "gap", "expected_index": expected, "index": delta})
            expected = delta + 1
            if class_of(term) != k:
                failures.append(
                    {
                        "kind": "class",
                        "index": delta,
                        "term": render_term(term),
                        "expected_class": k,
                        "actual_class": class_of(term),
                    }
                )
            back = index_of(term)
            if back != delta:
                failures.append(
                    {
                        "kind": "roundtrip",
                        "index": delta,
                        "term": render_term(term),
                        "index_of": back,
                    }
                )
    if expected < cumulative_size(max_class):
        failures.append({"kind": "gap", "expected_index": expected, "index": None})
    return tuple(failures)
