"""Truncated Magnus expansion over the integers.

Series live in the ring of noncommutative polynomials in X_1..X_m truncated
above a degree cap; keys are tuples of 1-based variable indices.  In reduced
mode every monomial with a repeated index is dropped, which kills X_i^2 and
makes the ring finite — the right setting for non-repeating Milnor indices.
"""

from __future__ import annotations

from .diagrams import Word
from .seifert import Frozen, StructureError, setfield

Monomial = tuple[int, ...]


class MagnusSeries(Frozen):
    __slots__ = ("m", "degree_cap", "reduced", "coefficients")

    def __init__(self, m: int, degree_cap: int, reduced: bool,
                 coefficients: tuple[tuple[Monomial, int], ...]):
        setfield(self, "m", m)
        setfield(self, "degree_cap", degree_cap)
        setfield(self, "reduced", reduced)
        setfield(self, "coefficients", coefficients)

    def coefficient(self, key: Monomial) -> int:
        return dict(self.coefficients).get(tuple(key), 0)

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.coefficients)


def _keep(key: Monomial, cap: int, reduced: bool) -> bool:
    if len(key) > cap:
        return False
    return not (reduced and len(set(key)) != len(key))


def _mul(a: dict[Monomial, int], b: dict[Monomial, int],
         cap: int, reduced: bool) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = ka + kb
            if not _keep(key, cap, reduced):
                continue
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _divide(acc: dict[Monomial, int], i: int, cap: int,
            reduced: bool) -> dict[Monomial, int]:
    """acc * (1 + X_i)^-1: the series out with out + out X_i = acc.

    Solved in increasing degree, each key k subtracting out[k] from
    k + (i,).  Truncation and the reduced ring are quotients by two-sided
    ideals, so 1 + X_i has a unique inverse in each and this is exact."""
    out = dict(acc)
    by_degree: list[list[Monomial]] = [[] for _ in range(cap + 1)]
    for k in acc:
        by_degree[len(k)].append(k)
    for d in range(cap):
        for k in by_degree[d]:
            v = out[k]
            if not v or (reduced and i in k):
                continue
            ki = k + (i,)
            if ki in out:
                out[ki] -= v
            else:
                out[ki] = -v
                by_degree[d + 1].append(ki)
    return {k: v for k, v in out.items() if v}


def magnus_expand(w: Word, m: int, degree_cap: int,
                  reduced: bool = True) -> MagnusSeries:
    """Expand a free-group word under x_i -> 1 + X_i.

    x_i multiplies by 1 + X_i; x_i^-1 divides by it in one pass."""
    if degree_cap < 1:
        raise StructureError("degree cap must be at least 1")
    for letter in w:
        if letter == 0 or abs(letter) > m:
            raise StructureError(f"letter {letter} outside x_1..x_{m}")
    acc: dict[Monomial, int] = {(): 1}
    for letter in w:
        if letter > 0:
            acc = _mul(acc, {(): 1, (letter,): 1}, degree_cap, reduced)
        else:
            acc = _divide(acc, -letter, degree_cap, reduced)
    coeffs = tuple(sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return MagnusSeries(m, degree_cap, reduced, coeffs)
