"""Truncated Magnus expansion over the integers.

Series live in the ring of noncommutative polynomials in X_1..X_m truncated
above a degree cap; keys are tuples of 1-based variable indices.  In reduced
mode every monomial with a repeated index is dropped, which kills X_i^2 and
makes the ring finite — the right setting for non-repeating Milnor indices.
An expansion lists the ring's monomials once, in (degree, key) order, and
holds the series as a list of coefficients by position; each letter is one
in-place pass over precomputed pairs of positions.
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

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.coefficients)


def _ring(m: int, cap: int, reduced: bool, used: set[int]
          ) -> tuple[list[Monomial], dict[int, list[int]], dict[int, list[int]]]:
    """The ring's monomials in (degree, key) order, and for each variable i
    in used the positions of every key k that k + (i,) extends, with those
    of k + (i,), in increasing degree of k.  Breadth first: each key k,
    taken in order, appends k + (i,) for i = 1..m, which lists the next
    degree in order."""
    keys: list[Monomial] = [()]
    src: dict[int, list[int]] = {i: [] for i in used}
    dst: dict[int, list[int]] = {i: [] for i in used}
    for s, k in enumerate(keys):
        if len(k) == cap:
            break
        for i in range(1, m + 1):
            if not (reduced and i in k):
                if i in used:
                    src[i].append(s)
                    dst[i].append(len(keys))
                keys.append(k + (i,))
    return keys, src, dst


def magnus_expand(w: Word, m: int, degree_cap: int,
                  reduced: bool = True) -> MagnusSeries:
    """Expand a free-group word under x_i -> 1 + X_i.

    The series is a list of coefficients by ring position, and each letter
    is one in-place pass over its variable's (s, t) pairs, t = s + (i,),
    so t is one degree above s.  x_i multiplies by 1 + X_i:
    acc[t] += acc[s] in decreasing degree of s, so every read sees acc from
    before the letter.  x_i^-1 divides by it, solving out + out X_i = acc:
    acc[t] -= acc[s] in increasing degree of s, so every read sees out[s],
    already solved.  Truncation and the reduced ring are quotients by
    two-sided ideals, so 1 + X_i has a unique inverse in each and both
    passes are exact.  Zeros are dropped once, at the end."""
    if degree_cap < 1:
        raise StructureError("degree cap must be at least 1")
    for letter in w:
        if letter == 0 or abs(letter) > m:
            raise StructureError(f"letter {letter} outside x_1..x_{m}")
    keys, src, dst = _ring(m, degree_cap, reduced, {abs(l) for l in w})
    acc = [0] * len(keys)
    acc[0] = 1
    for letter in w:
        if letter > 0:
            for s, t in zip(reversed(src[letter]), reversed(dst[letter])):
                acc[t] += acc[s]
        else:
            for s, t in zip(src[-letter], dst[-letter]):
                acc[t] -= acc[s]
    return MagnusSeries(m, degree_cap, reduced,
                        tuple((k, v) for k, v in zip(keys, acc) if v))
