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
"""

from __future__ import annotations

import json
import re
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


# Deepest term the recursive tree walks (render_term, render_infix,
# compile_term, evaluate_oracle and repr) accept.  Each recurses once per
# level, well inside Python's default recursion limit of 1000, and the
# bound is far past the MAX_TERM_DEPTH = 13 that parsed terms reach.
MAX_WALK_DEPTH = 200


class TermDepthError(ValueError):
    """A term deeper than MAX_WALK_DEPTH, built directly with ``Node``."""

    def __init__(self, term: "Term"):
        super().__init__(f"term is {term.depth} deep, past MAX_WALK_DEPTH = {MAX_WALK_DEPTH}")


@dataclass(frozen=True, slots=True)
class Node:
    op: BinOp
    left: "Term"
    right: "Term"
    _hash: int = field(init=False, repr=False, compare=False)
    arity: int = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Computed once, from the children's stored values: the hash the
        # dataclass would give, the leaf count and the longest root-to-leaf
        # path.  Cache lookups and shape reads then never walk the tree.
        object.__setattr__(self, "_hash", hash((self.op, self.left, self.right)))
        object.__setattr__(self, "arity", self.left.arity + self.right.arity)
        object.__setattr__(self, "depth", 1 + max(self.left.depth, self.right.depth))

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


@lru_cache(maxsize=None)
def index_of(term: Term) -> int:
    if isinstance(term, FreeVar):
        return 0
    k = class_of(term)
    if k == 0:
        return int(term.op)
    a, b = _region_bounds(k)
    pairs = a * a - b * b
    rank = (int(term.op) - 1) * pairs + _pair_rank(index_of(term.left), index_of(term.right), a, b)
    return cumulative_size(k - 1) + rank


@lru_cache(maxsize=None)
def term_of(delta: int) -> Term:
    if not isinstance(delta, int) or isinstance(delta, bool) or delta < 0:
        raise ValueError(f"index must be a non-negative integer, got {delta!r}")
    if delta == 0:
        return FREE
    if delta <= 2:
        return Node(BinOp(delta), FREE, FREE)
    k = 1
    while cumulative_size(k) <= delta:
        k += 1
    a, b = _region_bounds(k)
    pairs = a * a - b * b
    op, r = divmod(delta - cumulative_size(k - 1), pairs)
    x, y = _pair_unrank(r, a, b)
    return Node(BinOp(op + 1), term_of(x), term_of(y))


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
    if isinstance(t, FreeVar):
        return "M0"
    tag = "P" if t.op is _SUM else "T"
    return f"{tag}({_prefix(t.left)},{_prefix(t.right)})"


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


@lru_cache(maxsize=None)
def compile_term(term: Term) -> Circuit:
    """Gate program computing a term on basis states.

    Inputs occupy the first ``arity`` registers, leaves left to right;
    every multiplication node owns one ancilla register that starts at 0.
    """
    if term.depth > MAX_WALK_DEPTH:
        raise TermDepthError(term)
    n = term.arity
    steps: list[GateStep] = []
    next_ancilla = [n]
    result = _emit(term, 0, steps, next_ancilla)
    return Circuit(
        program=GateProgram(tuple(steps)),
        arity=n,
        constants=(0,) * (next_ancilla[0] - n),
        result_register=result,
    )


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


@dataclass(frozen=True)
class EvalReport:
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
        return json.dumps(self.to_json_dict())


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
    index, the term, and the clashing partner, so a broken scheme is
    directly inspectable; no failures means the check passed.
    """
    check_class_bound(max_class)
    seen: dict[Term, int] = {}
    failures: list[dict] = []
    for k in range(max_class + 1):
        for delta, term in enumerate_class(k):
            if term in seen:
                failures.append(
                    {
                        "kind": "collision",
                        "index": delta,
                        "term": render_term(term),
                        "partner_index": seen[term],
                    }
                )
                continue
            seen[term] = delta
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
    return tuple(failures)
