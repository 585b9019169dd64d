"""Sparse kets over the integer-labeled computational basis.

A ket is a finite-support map from register label tuples to complex
amplitudes.  Labels are plain Python integers, so label arithmetic never
wraps or overflows.  All operations return new kets; instances never
mutate after construction, except that a ket may fill in two memos on
first use: its columns (``Ket._columns``), and, for a gate program's
result, which holds only columns and amplitudes, its label -> amplitude
dict (``Ket._amps``).  Each memo is derived from the components and never
changes them.
"""

from __future__ import annotations

import cmath
import heapq
import json
import math
import sys
from collections.abc import Iterator, Mapping

# Components with squared magnitude below this are dropped at construction.
PRUNE_EPS_SQ = 1e-30

# Python's bound on the decimal digits of an int converted to or from text;
# 0 means none, as on interpreters older than the bound (before 3.10.7).
_int_text_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class ZeroNormError(ValueError):
    """Raised when normalizing a ket with no remaining amplitude."""


def _decimal_digits(value: int) -> int:
    """Decimal digits of ``value``, counted without converting it to text."""
    value = abs(value)
    # A b-bit value has at least floor((b - 1)·log10 2) + 1 digits; the
    # constant is rounded down, so this starts at or below the count.
    digits = max(value.bit_length() - 1, 0) * 30102999 // 10**8 + 1
    while value >= 10**digits:
        digits += 1
    return digits


def check_int_text(value: int | str, what: str) -> None:
    """Raise ValueError if ``value`` has more digits than Python converts
    between int and text; ``value`` is an int or the decimal text of one.

    Arithmetic on labels has no such bound; only their text does.
    """
    limit = _int_text_limit()
    if not limit:
        return
    if isinstance(value, str):
        digits = sum(ch.isdigit() for ch in value)
    # A value of at most 3 bits per allowed digit cannot pass the limit,
    # since 3 < log2(10); only longer ones are counted.
    elif value.bit_length() > 3 * limit:
        digits = _decimal_digits(value)
    else:
        return
    if digits > limit:
        raise ValueError(
            f"{what} has {digits} digits, past the {limit}-digit limit on integers in text "
            "(PYTHONINTMAXSTRDIGITS)"
        )


def _check_labels(labels: tuple[int, ...] | list[int]) -> None:
    # Fast accept: a plain int, so no bool or other subclass.
    for label in labels:
        if type(label) is not int and (not isinstance(label, int) or isinstance(label, bool)):
            raise ValueError(f"register label must be an integer, got {label!r}")


def _as_key(key: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(key, tuple):
        return key
    return (key,)


def _check_ket(other: object) -> None:
    if not isinstance(other, Ket):
        raise TypeError(f"expected a Ket, got {type(other).__name__}")


class Ket:
    """Finite superposition over one or more integer registers.

    ``amps`` maps label tuples (one label per register) to amplitudes; a
    bare label stands for its 1-tuple, and two keys naming one label raise
    ValueError.  Near-zero components are pruned; the empty map is the
    zero vector.
    """

    __slots__ = ("_registers", "_dict", "_vals", "_cols")

    def __init__(self, registers: int, amps: Mapping[tuple[int, ...], complex] | None = None):
        if not isinstance(registers, int) or isinstance(registers, bool) or registers < 1:
            raise ValueError(f"register count must be a positive integer, got {registers!r}")
        clean: dict[tuple[int, ...], complex] = {}
        for raw, amp in (amps or {}).items():
            key = raw if isinstance(raw, tuple) else (raw,)
            if len(key) != registers:
                raise ValueError(f"label tuple {key!r} does not match {registers} register(s)")
            # _check_labels' rule, inline: a call per key builds a 1,024-label
            # ket, as ring evolution does per point, about 10% slower.
            for label in key:
                if type(label) is not int and (not isinstance(label, int) or isinstance(label, bool)):
                    raise ValueError(f"register label must be an integer, got {label!r}")
            # Only a bare label can name the label of another key, its
            # 1-tuple; checked before pruning, so no amplitude is dropped.
            if key is not raw and key in amps:
                raise ValueError(f"duplicate basis label {key!r}")
            try:
                amp = complex(amp)
            except OverflowError:
                raise ValueError(f"amplitude at {key!r} is too large for a complex number") from None
            if not cmath.isfinite(amp):
                raise ValueError(f"non-finite amplitude at {key!r}")
            if amp.real * amp.real + amp.imag * amp.imag >= PRUNE_EPS_SQ:
                clean[key] = amp
        self._registers = registers
        self._dict = clean
        self._vals = None
        self._cols = None

    @property
    def _amps(self) -> dict[tuple[int, ...], complex]:
        """The components as a label -> amplitude dict.

        A gate program's result is built from columns and amplitudes alone
        (``_relabeled``); its first read builds the dict and keeps it.  That
        is where new labels that send two components to one label, which no
        gate's do, raise ``RuntimeError`` rather than merge their amplitudes,
        so no read ever sees a merged ket.
        """
        amps = self._dict
        if amps is None:
            amps = dict(zip(zip(*self._cols), self._vals))
            if len(amps) != len(self._vals):
                raise RuntimeError(
                    f"label map sent {len(self._vals)} components to {len(amps)} labels"
                )
            self._dict = amps
        return amps

    def _columns(self) -> list[tuple[int, ...]]:
        """The labels as one column per register, each in the ket's order.

        A program's result carries the columns its pass computed
        (``_relabeled``); any other ket transposes its labels on first use
        and keeps them.  So a chain of programs, or several programs on one
        ket, transposes once, and reads no result's dict.  Columns are
        tuples shared between kets; the outer list is a fresh copy, so a
        caller may rebind its entries.
        """
        cols = self._cols
        if cols is None:
            cols = self._cols = tuple(zip(*self._amps)) or ((),) * self._registers
        return list(cols)

    def _relabeled(self, cols: list[tuple[int, ...]]) -> Ket:
        """The ket with its labels replaced by the register columns ``cols``.

        This is the only place a ket is built without ``__init__``, and
        ``cols`` must be a gate program's columns, one per register, each in
        the ket's order (``gates.run_program``, ``gates.repeat_plus``).
        Skipping validation is sound for those: each new label is an int
        computed from already-validated ints, and the amplitudes are the
        same finite, unpruned complex objects.  The result holds ``cols``
        and the amplitudes in the same order, a tuple shared along a chain
        of programs, and no dict until it is read (``_amps``), so a chain
        builds none for its intermediate kets.
        """
        vals = self._vals
        if vals is None:
            vals = tuple(self._dict.values())
        out = object.__new__(Ket)
        out._registers = self._registers
        out._dict = None
        out._vals = vals
        out._cols = tuple(cols)
        return out

    @property
    def registers(self) -> int:
        return self._registers

    def amplitude(self, key: int | tuple[int, ...]) -> complex:
        return self._amps.get(_as_key(key), 0j)

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self._amps.items())

    def sorted_items(self) -> list[tuple[tuple[int, ...], complex]]:
        """Components in ascending label order; the serialization order."""
        return sorted(self._amps.items(), key=lambda kv: kv[0])

    def support(self) -> set[tuple[int, ...]]:
        return set(self._amps)

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self._registers == other._registers and self._amps == other._amps

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        first = heapq.nsmallest(4, self._amps.items(), key=lambda kv: kv[0])
        body = ", ".join(f"{k}: {a:.6g}" for k, a in first)
        tail = ", ..." if len(self) > 4 else ""
        return f"Ket(registers={self._registers}, {{{body}{tail}}})"

    def norm_sq(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def normalized(self) -> Ket:
        n = self.norm()
        if n == 0.0:
            raise ZeroNormError("cannot normalize the zero vector")
        if n == math.inf:
            # A square past about 1.3e154 overflows: bring the largest
            # part to 1 first, dividing exactly, then normalize that.
            big = max(max(abs(a.real), abs(a.imag)) for a in self._amps.values())
            return Ket(self._registers, {k: a / big for k, a in self._amps.items()}).normalized()
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> Ket:
        return Ket(self._registers, {k: factor * a for k, a in self._amps.items()})

    def add_scaled(self, factor: complex, other: Ket) -> Ket:
        """Return self + factor * other.  Register counts must match."""
        self._check_compatible(other)
        out = dict(self._amps)
        for key, amp in other._amps.items():
            out[key] = out.get(key, 0j) + factor * amp
        return Ket(self._registers, out)

    def inner(self, other: Ket) -> complex:
        """Inner product, conjugate-linear in self."""
        self._check_compatible(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        total = 0j
        for key, amp in small._amps.items():
            peer = big._amps.get(key)
            if peer is not None:
                if small is self:
                    total += amp.conjugate() * peer
                else:
                    total += peer.conjugate() * amp
        return total

    def distance(self, other: Ket) -> float:
        self._check_compatible(other)
        keys = set(self._amps) | set(other._amps)
        return math.sqrt(
            sum(abs(self._amps.get(k, 0j) - other._amps.get(k, 0j)) ** 2 for k in keys)
        )

    def tensor(self, other: Ket) -> Ket:
        """Product ket; the register tuples concatenate."""
        _check_ket(other)
        out: dict[tuple[int, ...], complex] = {}
        for ka, aa in self._amps.items():
            for kb, ab in other._amps.items():
                out[ka + kb] = aa * ab
        return Ket(self._registers + other._registers, out)

    def _check_compatible(self, other: Ket) -> None:
        _check_ket(other)
        if self._registers != other._registers:
            raise ValueError(
                f"register counts differ: {self._registers} vs {other._registers}"
            )

    def to_json_dict(self) -> dict:
        terms = []
        for key, amp in self.sorted_items():
            entry: dict = {"label": key[0]} if self._registers == 1 else {"labels": list(key)}
            entry["re"] = amp.real
            entry["im"] = amp.imag
            terms.append(entry)
        return {"registers": self._registers, "terms": terms}

    def to_json(self) -> str:
        """The state document as text; a label too long for text raises ValueError."""
        doc = self.to_json_dict()
        try:
            return json.dumps(doc)
        except ValueError:
            # Only a label can be too long; name the first one in
            # serialization order.
            for key, _ in self.sorted_items():
                for register, label in enumerate(key):
                    check_int_text(label, f"label in register {register}")
            raise

    @staticmethod
    def from_json_dict(obj: object) -> Ket:
        if not isinstance(obj, dict):
            raise ValueError("state document must be a JSON object")
        registers = obj.get("registers")
        if not isinstance(registers, int) or isinstance(registers, bool) or registers < 1:
            raise ValueError(f"bad register count {registers!r}")
        terms = obj.get("terms")
        if not isinstance(terms, list):
            raise ValueError("state document needs a 'terms' list")
        amps: dict[tuple[int, ...], complex] = {}
        for entry in terms:
            if not isinstance(entry, dict):
                raise ValueError(f"bad term entry {entry!r}")
            if registers == 1:
                if "label" not in entry:
                    raise ValueError(f"term entry missing 'label': {entry!r}")
                raw = entry["label"]
                labels = [raw]
            else:
                raw = entry.get("labels")
                if not isinstance(raw, list) or len(raw) != registers:
                    raise ValueError(f"term entry needs {registers} labels: {entry!r}")
                labels = raw
            _check_labels(labels)
            re = entry.get("re", 0.0)
            im = entry.get("im", 0.0)
            if isinstance(re, bool) or isinstance(im, bool) or not (
                isinstance(re, (int, float)) and isinstance(im, (int, float))
            ):
                raise ValueError("amplitude parts must be numbers")
            key = tuple(labels)
            if key in amps:
                raise ValueError(f"duplicate basis label {key!r}")
            try:
                amps[key] = complex(re, im)
            except OverflowError:
                raise ValueError(f"amplitude at {key!r} is too large for a complex number") from None
        return Ket(registers, amps)

    @staticmethod
    def from_json(text: str) -> Ket:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
        except ValueError:
            # Only an integer too long to read from text fails here.
            _name_long_integer(text)
            raise
        return Ket.from_json_dict(obj)


# The JSON parser recurses once per nesting level, so a document nested
# past the interpreter's recursion limit cannot be read.
_TOO_DEEP = "state document nests too deeply to read"


class _IntText(str):
    """A JSON integer kept as its decimal text."""


def _name_long_integer(text: str) -> None:
    """Raise ``check_int_text``'s error for the first integer of a state
    document past the limit: a label by its register, as ``to_json`` names
    it, else any integer.  The document may nest too deeply past that
    integer, which the first read never reached."""
    try:
        doc = json.loads(text, parse_int=_IntText)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    entries = doc.get("terms") if isinstance(doc, dict) else None
    for entry in entries if isinstance(entries, list) else ():
        labels = entry.get("labels", [entry.get("label")]) if isinstance(entry, dict) else None
        for register, label in enumerate(labels if isinstance(labels, list) else ()):
            if isinstance(label, _IntText):
                check_int_text(label, f"label in register {register}")
    json.loads(text, parse_int=lambda digits: check_int_text(digits, "integer in the state document"))


def basis_ket(*labels: int) -> Ket:
    """Computational basis ket with one register per label."""
    if not labels:
        raise ValueError("need at least one register label")
    return Ket(len(labels), {tuple(labels): 1.0 + 0j})


def superposition(terms: Mapping[int | tuple[int, ...], complex]) -> Ket:
    """Ket from a label -> amplitude map; register count inferred from keys."""
    if not terms:
        raise ValueError("empty superposition is ambiguous; construct Ket directly")
    return Ket(len(_as_key(next(iter(terms)))), terms)
