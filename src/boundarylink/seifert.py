"""Boundary-link Seifert matrices: representation, validation, standard forms.

A Seifert matrix for an m-component boundary link is a square integer matrix
partitioned into m^2 blocks A_ij, with det(A_ii - A_ii^T) = +-1 for every i
and A_ij = A_ji^T for i != j.  Matrices are immutable values.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from . import intmat
from .intmat import IntMatrix


class StructureError(ValueError):
    """Input is not even shaped like a partitioned square matrix."""


setfield = object.__setattr__


class Frozen:
    """Base of the package's immutable values.

    A subclass names its fields in `__slots__`, in the order of its
    `__init__` parameters, and its `__init__` sets each field once with
    `setfield(self, name, value)`.  Assigning or deleting a field afterwards
    raises AttributeError.  Two values are equal when they are of the same
    class with equal fields, and hash by their fields; repr is
    `Name(field=value, ...)`; copy and pickle call the class again with the
    field values, so a copy passes the same checks as the original.
    """
    __slots__ = ()

    def __init_subclass__(cls):
        key = attrgetter(*cls.__slots__)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class SeifertMatrix(Frozen):
    __slots__ = ("m", "block_sizes", "entries")

    def __init__(self, m: int, block_sizes: tuple[int, ...],
                 entries: IntMatrix):
        decode_int(m, "m")
        block_sizes = strict_ints(block_sizes, "block_sizes")
        entries = strict_int_rows(entries, "matrix entry")
        if m < 0:
            raise StructureError("component count must be non-negative")
        if len(block_sizes) != m:
            raise StructureError(
                f"expected {m} block sizes, got {len(block_sizes)}")
        if any(b < 0 for b in block_sizes):
            raise StructureError("block sizes must be non-negative")
        n = sum(block_sizes)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise StructureError(
                f"entries must be a {n}x{n} matrix matching the partition")
        setfield(self, "m", m)
        setfield(self, "block_sizes", block_sizes)
        setfield(self, "entries", entries)

    @property
    def side(self) -> int:
        return sum(self.block_sizes)

    def offset(self, k: int) -> int:
        return sum(self.block_sizes[:k])

    def block(self, i: int, j: int) -> IntMatrix:
        oi, oj = self.offset(i), self.offset(j)
        return tuple(row[oj:oj + self.block_sizes[j]]
                     for row in self.entries[oi:oi + self.block_sizes[i]])

    def to_json(self) -> str:
        doc = {"m": self.m,
               "block_sizes": list(self.block_sizes),
               "rows": [list(row) for row in self.entries]}
        return json.dumps(doc, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "SeifertMatrix":
        doc = decode_object(read_json(text), "matrix",
                            ("m", "block_sizes", "rows"))
        return cls(doc["m"], decode_ints(doc["block_sizes"], "block_sizes"),
                   decode_int_rows(doc["rows"], "rows"))


# Every input document is decoded by the helpers below and the value
# constructors' checks, which raise only StructureError.


def read_json(text: str):
    """The one JSON value text holds, with JSON whitespace allowed around
    it; bad JSON or trailing data is refused."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"bad JSON: {exc}") from exc


def decode_object(doc, what: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> dict:
    """doc, if it is a JSON object with every required key and no key
    outside required and optional; unknown keys are named first."""
    if not isinstance(doc, dict):
        raise StructureError(f"{what} must be a JSON object")
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise StructureError(f"unknown {what} key: {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise StructureError(f"missing {what} key: {', '.join(map(repr, missing))}")
    return doc


def decode_list(values, what: str, items: str) -> list:
    if not isinstance(values, list):
        raise StructureError(f"{what} must be a list of {items}")
    return values


def decode_int(value, what: str) -> int:
    """A JSON integer as it stands; floats, booleans and strings are refused,
    never coerced."""
    if type(value) is not int:
        raise StructureError(f"{what} must be an integer, got {value!r}")
    return value


def decode_ints(values, what: str) -> tuple[int, ...]:
    return strict_ints(decode_list(values, what, "integers"), what)


def decode_int_rows(rows, what: str) -> IntMatrix:
    return tuple(decode_ints(r, what)
                 for r in decode_list(rows, what, "integer lists"))


_INT = {int}


def strict_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """values as a tuple, each of type exactly int, for value constructors:
    a float, a boolean or a string is refused, never truncated or coerced."""
    out = tuple(values)
    if not _INT.issuperset(map(type, out)):
        for v in out:
            decode_int(v, what)
    return out


def strict_int_rows(rows: Iterable[Iterable], what: str) -> IntMatrix:
    out = intmat.freeze(rows)
    if not _INT.issuperset(map(type, chain.from_iterable(out))):
        for row in out:
            strict_ints(row, what)
    return out


class Violation(Frozen):
    __slots__ = ("rule", "blocks", "detail")

    def __init__(self, rule: str, blocks: tuple[int, ...], detail: str):
        setfield(self, "rule", rule)
        setfield(self, "blocks", blocks)
        setfield(self, "detail", detail)


class ValidationReport(Frozen):
    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[Violation, ...] = ()):
        setfield(self, "valid", valid)
        setfield(self, "violations", violations)


def validate(matrix: SeifertMatrix) -> ValidationReport:
    """Check the boundary-link Seifert matrix invariants.

    Structural problems (non-square, partition mismatch) are raised as
    StructureError when the SeifertMatrix is built; this reports the
    mathematical invariants only.
    """
    violations: list[Violation] = []
    for i in range(matrix.m):
        aii = matrix.block(i, i)
        d = intmat.det(intmat.sub(aii, intmat.transpose(aii)))
        if d not in (1, -1):
            violations.append(Violation(
                "diagonal-unimodular", (i,),
                f"det(A_{i}{i} - A_{i}{i}^T) = {d}, expected +-1"))
    for i in range(matrix.m):
        for j in range(i + 1, matrix.m):
            if matrix.block_sizes[i] == 0 or matrix.block_sizes[j] == 0:
                continue    # degenerate blocks are transposes vacuously
            if matrix.block(i, j) != intmat.transpose(matrix.block(j, i)):
                violations.append(Violation(
                    "offdiagonal-transpose", (i, j),
                    f"A_{i}{j} != A_{j}{i}^T"))
    return ValidationReport(valid=not violations, violations=tuple(violations))


def is_valid(matrix: SeifertMatrix) -> bool:
    return validate(matrix).valid


def null_matrix(m: int) -> SeifertMatrix:
    return SeifertMatrix(m, (0,) * m, ())


def whitehead_double_matrix(m: int, eps: Sequence[int],
                            assignment: Sequence[int] | None = None) -> SeifertMatrix:
    """Block-diagonal sum of [[0, eps_i], [1-eps_i, 0]] pairs.

    By default pair i sits on component i (one genus-one surface per
    component); `assignment` may instead place pair i on component
    assignment[i], with several pairs per component allowed.
    """
    eps = tuple(decode_int(e, "clasp sign") for e in eps)
    if any(e not in (0, 1) for e in eps):
        raise ValueError("clasp signs must be 0 or 1")
    if assignment is None:
        if len(eps) != m:
            raise ValueError("default assignment needs one sign per component")
        assignment = tuple(range(m))
    else:
        assignment = tuple(decode_int(a, "assignment") for a in assignment)
        if len(assignment) != len(eps):
            raise ValueError("assignment and eps lengths differ")
        if any(a < 0 or a >= m for a in assignment):
            raise ValueError("assignment component out of range")
    block_sizes = tuple(2 * assignment.count(k) for k in range(m))
    n = 2 * len(eps)
    rows = [[0] * n for _ in range(n)]
    # pairs grouped by component, in pair order
    pos = 0
    for k in range(m):
        for i, a in enumerate(assignment):
            if a == k:
                rows[pos][pos + 1] = eps[i]
                rows[pos + 1][pos] = 1 - eps[i]
                pos += 2
    return SeifertMatrix(m, block_sizes, intmat.freeze(rows))
