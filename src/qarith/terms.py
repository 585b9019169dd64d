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
excluding only the leaf/leaf pair, which stays elementary), so class k
has 2(A^2 - B^2) terms, all counted in one table built at import.
Ranking and unranking over that region are closed-form, so term_of
runs without enumerating anything.

Evaluation is dual: an exact integer recursion, and compilation to a
gate program over basis states whose results must agree.

No term nests deeper than MAX_TERM_DEPTH = 13, however it is built, so
every term has an index of at most 3,236 digits and every walk over a
term recurses at most 13 deep.

No cache holds a term past class 2.  ``term_of`` keeps a table of the
723 terms of class <= 2 and builds every larger term fresh from it, so
each class-3 term's children come from the table, and ``parse_term``
gives the table's own node for each parsed node of class <= 2.  Each
node keeps its own index and compiled circuit once asked for them, and
its prefix text when it is at most 3 deep; these memos live and die with
the node, so a class-3 sweep holds one term at a time.  The table is the only cache:
``term_of``, ``index_of`` and ``compile_term`` count hits and misses in
``cache_info()``, whose currsize is the table's size, and any one's
``cache_clear()`` empties the table, with every memo its terms hold.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import count

from .config import MAX_CLASS_BOUND, check_class_bound  # noqa: F401  (the class bound stays importable from here)
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


class TermSyntaxError(ValueError):
    """Unparseable term text."""


# Deepest term there is: at most this many operations on any root-to-leaf
# path.  A term of depth d has class d - 1, and the index grows doubly
# exponentially with class: class 12 indices have at most 3,236 digits,
# class 13 ones up to 6,472, past the 4,300 digits Python prints by
# default.  Term text meets the bound too: at most this many nested
# parentheses or P(/T( groups.
MAX_TERM_DEPTH = 13

_TOO_DEEP = f"term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}"


class TermDepthError(TermSyntaxError):
    """A term or its text nesting deeper than MAX_TERM_DEPTH, raised by
    ``Node`` however the node is built."""


# Nodes are frozen: their fields and memos are written with object's own
# setter, past the dataclass's refusal.
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Node:
    op: BinOp
    left: "Term"
    right: "Term"
    arity: int = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    # Memos, None until first asked for: the index, the prefix text (kept
    # only at most _TEXT_DEPTH deep) and the compiled circuit.
    _index: int | None = field(init=False, repr=False, compare=False)
    _text: str | None = field(init=False, repr=False, compare=False)
    _circuit: Circuit | None = field(init=False, repr=False, compare=False)

    def __init__(self, op: BinOp, left: "Term", right: "Term") -> None:
        # The leaf count and the longest root-to-leaf path come from the
        # children's stored values, so shape reads and the depth bound
        # never walk the tree.
        depth = 1 + max(left.depth, right.depth)
        if depth > MAX_TERM_DEPTH:
            raise TermDepthError(_TOO_DEEP)
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "arity", left.arity + right.arity)
        _set(self, "depth", depth)
        _set(self, "_index", None)
        _set(self, "_text", None)
        _set(self, "_circuit", None)

    def __reduce__(self):
        # A copy or an unpickled term is built again from its parts, so it
        # starts with no memos.
        return (Node, (self.op, self.left, self.right))


Term = FreeVar | Node

# Bound once: looking up an Enum member costs more than the per-node work
# of the tree walks below.
_SUM, _PRODUCT = BinOp.PLUS, BinOp.TIMES
_OPS = (None, BinOp.PLUS, BinOp.TIMES)
_ADDER, _MULTIPLIER = GateKind.PLUS, GateKind.TIMES_REVERSIBLE

FREE = FreeVar()


def arity(term: Term) -> int:
    return term.arity


def class_of(term: Term) -> int:
    """A term of depth d has class d - 1; the leaf is class 0."""
    return max(term.depth - 1, 0)


def _check_class(k: object) -> None:
    # Sizes run to class MAX_TERM_DEPTH, one past the deepest term's, as
    # far as _CUMULATIVE reaches.  A bool is an int too.
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= MAX_TERM_DEPTH:
        raise ValueError(f"class must be an integer in 0..{MAX_TERM_DEPTH}, got {k!r}")


def class_size(k: int) -> int:
    _check_class(k)
    return _CUMULATIVE[k] - _CUMULATIVE[k - 1] if k else 3


def cumulative_size(k: int) -> int:
    """Number of terms of class <= k, for k up to MAX_TERM_DEPTH."""
    _check_class(k)
    return _CUMULATIVE[k]


def _region_bounds(k: int) -> tuple[int, int]:
    """A and B of class k >= 1: the sizes of classes <= k - 1 and <= k - 2."""
    a = _CUMULATIVE[k - 1]
    b = _CUMULATIVE[k - 2] if k >= 2 else 1
    return a, b


# The cumulative sizes of classes 0..MAX_TERM_DEPTH, which the size
# functions, _region_bounds and _build read: class k adds 2(A^2 - B^2).
_CUMULATIVE: tuple[int, ...] = (3,)
while len(_CUMULATIVE) <= MAX_TERM_DEPTH:
    _a, _b = _region_bounds(len(_CUMULATIVE))
    _CUMULATIVE += (_a + 2 * (_a * _a - _b * _b),)
del _a, _b


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


def _rank(op: BinOp, x: int, y: int, k: int) -> int:
    """Index of the class-k node applying ``op`` to the terms of indices x and y."""
    if k == 0:
        return int(op)
    a, b = _region_bounds(k)
    return a + (op - 1) * (a * a - b * b) + _pair_rank(x, y, a, b)


# term_of's table: the terms of class <= 2, built on first use.  Every
# class-3 term's children are among them, so a class-3 term costs one
# node; larger terms are built fresh, and no term past class 2 is kept.
_TABLE_CLASS = 2
_TABLE_SIZE = _CUMULATIVE[_TABLE_CLASS]
_TABLE: dict[int, Term] = {}

# Deepest node that keeps its prefix text.  A class-3 term (depth 4) then
# renders as one f-string over its children's texts, and a text memo is
# never longer than a class-2 term's.
_TEXT_DEPTH = 3

# The fields of functools' CacheInfo, which the tests and perfbench read.
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Memo:
    """Hit and miss counts of one of ``term_of``, ``index_of`` and
    ``compile_term``, with ``lru_cache``'s controls over them.

    The table is the only cache: its size is every function's currsize,
    and any function's ``clear`` empties it, so the tabled terms and every
    memo they hold go together.
    """

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = self.misses = 0

    def info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, _TABLE_SIZE, len(_TABLE))

    def clear(self) -> None:
        self.hits = self.misses = 0
        _TABLE.clear()


_TERMS, _INDICES, _CIRCUITS = _Memo(), _Memo(), _Memo()


def index_of(term: Term) -> int:
    delta = term._index
    if delta is not None:
        _INDICES.hits += 1
        return delta
    _INDICES.misses += 1
    # Only a node misses: the leaf's index is its class attribute.
    delta = _rank(term.op, index_of(term.left), index_of(term.right), term.depth - 1)
    _set(term, "_index", delta)
    return delta


def term_of(delta: int) -> Term:
    """The term of an index below ``cumulative_size(12)``, i.e. of class
    <= 12; a larger index raises TermDepthError, as its term is too deep."""
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
        k = bisect_right(_CUMULATIVE, delta)
        if k >= MAX_TERM_DEPTH:
            raise TermDepthError(_TOO_DEEP)
        a, b = _region_bounds(k)
        op, r = divmod(delta - a, a * a - b * b)
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
    size = class_size(k)
    count = size if limit is None else max(0, min(limit, size))
    base = 0 if k == 0 else cumulative_size(k - 1)
    return ((delta, term_of(delta)) for delta in range(base, base + count))


# --- text forms ------------------------------------------------------------

_VAR_NAMES = "nmklpqrsabcdefgh"


def render_term(term: Term) -> str:
    """Prefix form: M0, P(a,b), T(a,b)."""
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


# One token per match: P( and T( open a prefix operation, while a P or T
# with no parenthesis next is a variable, as any other letter is.  A
# character that starts no token matches as the empty token.
_TOKEN = re.compile(r"\s*(?:([PT]\(|M0|x\d+|[A-Za-z]|[+*(),])|\S)")
_PUNCT = frozenset("+*),")
# Tokens that end a product; the empty one marks the end of the text.
_PRODUCT_END = frozenset(("+", ")", ",", ""))


def parse_term(text: str) -> Term:
    """Term from prefix or infix text, at most MAX_TERM_DEPTH deep.

    A node of class <= 2 is the table's own node, with its memos.
    """
    if not isinstance(text, str) or not text.strip():
        raise TermSyntaxError("empty term")
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        pos = next(m.end() - 1 for m in _TOKEN.finditer(text) if not m.group(1))
        raise TermSyntaxError(f"bad character at position {pos}: {text[pos:]!r}")
    tokens.append("")
    term, i = _sum(tokens, 0, 0)
    if tokens[i]:
        raise TermSyntaxError(f"trailing input from token {tokens[i]!r}")
    return term


# The descent: each rule takes the tokens, the position of its first token
# and how many groups enclose it, and returns its term and the position
# after it.


def _sum(tokens: list[str], i: int, nesting: int) -> tuple[Term, int]:
    term, i = _product(tokens, i, nesting)
    while tokens[i] == "+":
        right, i = _product(tokens, i + 1, nesting)
        term = _node(_SUM, term, right)
    return term, i


def _product(tokens: list[str], i: int, nesting: int) -> tuple[Term, int]:
    term, i = _factor(tokens, i, nesting)
    while True:
        if tokens[i] == "*":
            i += 1
        elif tokens[i] in _PRODUCT_END:
            return term, i
        right, i = _factor(tokens, i, nesting)
        term = _node(_PRODUCT, term, right)


def _factor(tokens: list[str], i: int, nesting: int) -> tuple[Term, int]:
    tok = tokens[i]
    if tok == "(" or tok == "P(" or tok == "T(":
        if nesting == MAX_TERM_DEPTH:
            raise TermDepthError(_TOO_DEEP)
        left, i = _sum(tokens, i + 1, nesting + 1)
        if tok == "(":
            return left, _expect(tokens, i, ")")
        right, i = _sum(tokens, _expect(tokens, i, ","), nesting + 1)
        i = _expect(tokens, i, ")")
        return _node(_SUM if tok == "P(" else _PRODUCT, left, right), i
    if not tok:
        raise TermSyntaxError("unexpected end of term")
    if tok in _PUNCT:
        raise TermSyntaxError(f"unexpected token {tok!r}")
    # Variable names are decorative: every occurrence is a fresh leaf.
    return FREE, i + 1


def _expect(tokens: list[str], i: int, punct: str) -> int:
    tok = tokens[i]
    if tok != punct:
        raise TermSyntaxError(f"expected {punct!r}, found {tok!r}" if tok else "unexpected end of term")
    return i + 1


def _node(op: BinOp, left: Term, right: Term) -> Term:
    """A parsed node: the table's own if it is of class <= 2 and its
    children are table nodes, else a new one."""
    k = max(left.depth, right.depth)
    if k <= _TABLE_CLASS:
        delta = _rank(op, index_of(left), index_of(right), k)
        if 0 < delta < _TABLE_SIZE:
            term = _build(delta)
            # The parts decide, not the index: a wrong rank makes a new node.
            if term.op is op and term.left is left and term.right is right:
                return term
    return Node(op, left, right)


# --- evaluation ------------------------------------------------------------


def evaluate_oracle(term: Term, args: tuple[int, ...]) -> int:
    """Exact integer value with arguments bound to leaves left to right."""
    n = term.arity
    if len(args) != n:
        raise ArityError(f"term takes {n} argument(s), got {len(args)}")
    for v in args:
        # Fast accept: a plain int, so no bool or other subclass.
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise ValueError(f"arguments must be integers, got {v!r}")
    args = iter(args)
    return next(args) if type(term) is FreeVar else _oracle(term, args)


# The walks below recurse into operations only: a leaf child is read in place.


def _oracle(t: Node, args: Iterator[int]) -> int:
    left, right = t.left, t.right
    lhs = next(args) if type(left) is FreeVar else _oracle(left, args)
    rhs = next(args) if type(right) is FreeVar else _oracle(right, args)
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
    n = term.arity
    steps: list[GateStep] = []
    next_ancilla = [n]
    result = _emit(term, 0, steps, next_ancilla) if type(term) is Node else 0
    circuit = Circuit(
        program=GateProgram(tuple(steps)),
        arity=n,
        constants=(0,) * (next_ancilla[0] - n),
        result_register=result,
    )
    if type(term) is Node:
        _set(term, "_circuit", circuit)
    return circuit


# GateStep's own __new__ is a Python function; tuple.__new__ builds the
# same step without that call.
_step = tuple.__new__


def _emit(t: Node, leaf: int, steps: list[GateStep], next_ancilla: list[int]) -> int:
    """Append the steps computing ``t`` and return the register holding its value.

    The leaves of ``t`` sit in registers ``leaf`` onwards;
    ``next_ancilla[0]`` is the next unused ancilla register.
    """
    left, right = t.left, t.right
    lhs = leaf if type(left) is FreeVar else _emit(left, leaf, steps, next_ancilla)
    leaf += left.arity
    rhs = leaf if type(right) is FreeVar else _emit(right, leaf, steps, next_ancilla)
    if t.op is _SUM:
        # Target keeps the sum; the source register stays intact.
        steps.append(_step(GateStep, (_ADDER, (lhs, rhs))))
        return rhs
    out = next_ancilla[0]
    next_ancilla[0] += 1
    steps.append(_step(GateStep, (_MULTIPLIER, (lhs, rhs, out))))
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
