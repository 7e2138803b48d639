"""Shared generators for randomized tests (seeded, deterministic)."""

from __future__ import annotations

import random
from typing import Optional

from boundarylink import intmat, seifert, smoves


def rand_unimodular(n: int, rng: random.Random, ops: int = 6):
    """Random unimodular matrix from elementary row operations."""
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for t in range(n):
            p[i][t] += c * p[j][t]
    if n and rng.random() < 0.5:
        i = rng.randrange(n)
        for t in range(n):
            p[i][t] = -p[i][t]
    return intmat.freeze(p)


def rand_valid_matrix(rng: random.Random, max_m: int = 3,
                      max_side: int = 8, mag: int = 4) -> seifert.SeifertMatrix:
    """Random valid boundary-link Seifert matrix.

    Diagonal blocks are built as symmetric noise plus the strict upper part
    of U^T J U for unimodular U, so the intersection form is unimodular by
    construction; off-diagonal blocks are free modulo the transpose rule.
    """
    m = rng.randint(1, max_m)
    sizes = []
    left = max_side
    for _ in range(m):
        s = rng.choice([k for k in range(0, min(left, 6) + 1, 2)])
        sizes.append(s)
        left -= s
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = [0]
    for s in sizes:
        off.append(off[-1] + s)
    for k, s in enumerate(sizes):
        if s == 0:
            continue
        u = rand_unimodular(s, rng)
        j = [[0] * s for _ in range(s)]
        for t in range(s // 2):
            j[2 * t][2 * t + 1] = 1
            j[2 * t + 1][2 * t] = -1
        d = intmat.matmul(intmat.matmul(intmat.transpose(u), intmat.freeze(j)), u)
        sym = [[0] * s for _ in range(s)]
        for r in range(s):
            for c in range(r, s):
                sym[r][c] = sym[c][r] = rng.randint(-mag, mag)
        for r in range(s):
            for c in range(s):
                rows[off[k] + r][off[k] + c] = sym[r][c] + (d[r][c] if r < c else 0)
    for i in range(m):
        for j2 in range(i + 1, m):
            for r in range(sizes[i]):
                for c in range(sizes[j2]):
                    v = rng.randint(-mag, mag)
                    rows[off[i] + r][off[j2] + c] = v
                    rows[off[j2] + c][off[i] + r] = v
    mat = seifert.SeifertMatrix(m, tuple(sizes), intmat.freeze(rows))
    assert seifert.is_valid(mat)
    return mat


def rand_enlargement(mat: seifert.SeifertMatrix, rng: random.Random,
                     mag: int = 4) -> smoves.Enlargement:
    k = rng.randrange(mat.m)
    return smoves.Enlargement(
        k=k,
        eps=rng.choice([(1, 0), (0, 1)]),
        rows=tuple(tuple(rng.randint(-mag, mag) for _ in range(s))
                   for s in mat.block_sizes),
        offset=rng.randint(0, mat.block_sizes[k]),
        swapped=rng.random() < 0.5,
    )


def rand_congruence(mat: seifert.SeifertMatrix,
                    rng: random.Random) -> smoves.Congruence:
    return smoves.Congruence(tuple(rand_unimodular(s, rng, ops=4)
                                   for s in mat.block_sizes))


def good_basis_form_backtrack(a: seifert.SeifertMatrix
                              ) -> Optional[smoves.GoodBasisForm]:
    """Reference for smoves.good_basis_form_check: the same staircase
    conditions, searched by depth-first backtracking over every pair order
    (factorial in the genus on a reject)."""
    if any(s % 2 for s in a.block_sizes):
        raise seifert.StructureError("good-basis form needs even block sizes")
    pairs = []
    for k in range(a.m):
        base = a.offset(k)
        for t in range(a.block_sizes[k] // 2):
            pairs.append((base + 2 * t, base + 2 * t + 1))
    ent = a.entries

    def reducible_last(p, live, swap):
        u, v = pairs[p]
        if swap:
            u, v = v, u
        if ent[u][u] or ent[v][v]:
            return None
        e, f = ent[u][v], ent[v][u]
        if (e, f) not in ((1, 0), (0, 1)):
            return None
        for q in live:
            if q == p:
                continue
            for w in pairs[q]:
                if ent[u][w] != 0 or ent[w][u] != 0:
                    return None
                if ent[v][w] != ent[w][v]:
                    return None
        return e

    order, signs, swaps = [], [], []

    def solve(live):
        if not live:
            return True
        for p in reversed(live):
            for swap in (False, True):
                e = reducible_last(p, live, swap)
                if e is None:
                    continue
                order.append(p)
                signs.append(e)
                swaps.append(swap)
                if solve([q for q in live if q != p]):
                    return True
                order.pop()
                signs.pop()
                swaps.pop()
        return False

    if not solve(list(range(len(pairs)))):
        return None
    return smoves.GoodBasisForm(tuple(reversed(order)), tuple(reversed(signs)),
                                tuple(reversed(swaps)))


def rand_perturbed_doubled_matrix(rng: random.Random) -> seifert.SeifertMatrix:
    """Doubled matrix on 1-3 components in staircase form with symmetric
    entries between second coordinates, its pairs shuffled within each block
    and some pairs' coordinates swapped, then 0-3 entries overwritten."""
    m = rng.randint(1, 3)
    g = rng.randint(1, 5)
    eps = [rng.randint(0, 1) for _ in range(g)]
    base = seifert.whitehead_double_matrix(
        m, eps, [rng.randrange(m) for _ in range(g)])
    rows = [list(r) for r in base.entries]
    seconds = range(1, base.side, 2)
    for b1 in seconds:
        for b2 in seconds:
            if b1 < b2 and rng.random() < 0.3:
                rows[b1][b2] = rows[b2][b1] = rng.randint(-3, 3)
    perm = []
    for k in range(m):
        off = base.offset(k)
        order = list(range(base.block_sizes[k] // 2))
        rng.shuffle(order)
        for t in order:
            u, v = off + 2 * t, off + 2 * t + 1
            perm += [v, u] if rng.random() < 0.5 else [u, v]
    rows = [[rows[r][c] for c in perm] for r in perm]
    for _ in range(rng.randint(0, 3)):
        r, c = rng.randrange(base.side), rng.randrange(base.side)
        rows[r][c] = rng.choice((-1, 1, 2))
        if rng.random() < 0.5:
            rows[c][r] = rows[r][c]
    return seifert.SeifertMatrix(m, base.block_sizes, intmat.freeze(rows))


def blocked_pairs_matrix(rng: random.Random, g: int) -> seifert.SeifertMatrix:
    """g pairs on one component, two of which block each other (their first
    coordinates meet, and so do their second coordinates) while the other
    g - 2 are free: no order gives the staircase form, and a backtracking
    search tries every order of the free pairs before giving up."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for p in range(g):
        e = rng.randint(0, 1)
        rows[2 * p][2 * p + 1], rows[2 * p + 1][2 * p] = e, 1 - e
    p, q = sorted(rng.sample(range(g), 2))
    for u, v in ((2 * p, 2 * q), (2 * p + 1, 2 * q + 1)):
        rows[u][v] = rows[v][u] = rng.choice((1, -1))
    return seifert.SeifertMatrix(1, (n,), intmat.freeze(rows))


def mu_bar_per_cap(d, index: tuple[int, ...],
                   depth: Optional[int] = None) -> tuple[int, int]:
    """Oracle for milnor.mu_bar: every component's longitude word at one
    depth (the index length unless given), and a separate Magnus expansion
    for each (component, cap, ring) the indeterminacy recursion reads, in
    the reduced ring exactly when the index does not repeat."""
    return per_cap_oracle(d, len(index) if depth is None else depth)(
        tuple(index))


def per_cap_oracle(d, depth: int):
    """mu_bar_per_cap at a fixed depth, as a function of the index that
    keeps its longitude words, expansions and values across calls."""
    from math import gcd

    from boundarylink import diagrams as dg
    from boundarylink.magnus import magnus_expand

    longs = dg.wirtinger_longitudes(d, depth)
    expansions: dict = {}
    memo: dict = {}

    def raw(i):
        key = (i[-1], len(i) - 1, len(set(i)) == len(i))
        if key not in expansions:
            expansions[key] = magnus_expand(longs[i[-1] - 1], d.n, *key[1:])
        return expansions[key].as_dict().get(i[:-1], 0)

    def with_indet(i):
        if i not in memo:
            value, indet = raw(i), 0
            if len(i) > 2:
                for drop in range(len(i)):
                    rest = i[:drop] + i[drop + 1:]
                    for rot in range(len(rest)):
                        v, d_sub = with_indet(rest[rot:] + rest[:rot])
                        indet = gcd(indet, v, d_sub)
            memo[i] = (value % indet if indet else value, indet)
        return memo[i]

    return with_indet


def magnus_expand_dense(w, m: int, cap: int,
                        reduced: bool) -> dict[tuple[int, ...], int]:
    """Magnus expansion of w as a dict, by dense products: each letter is a
    series (x_i^-1 the geometric series 1 - X_i + X_i^2 - ...), multiplied
    in term by term and truncated.  Shares no code with boundarylink.magnus."""

    def keep(key):
        return len(key) <= cap and not (reduced and len(set(key)) != len(key))

    def mul(a, b):
        out: dict = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = ka + kb
                if keep(key):
                    out[key] = out.get(key, 0) + va * vb
        return {k: v for k, v in out.items() if v}

    assert all(1 <= abs(letter) <= m for letter in w)
    acc = {(): 1}
    for letter in w:
        i = abs(letter)
        if letter > 0:
            series = {(): 1, (i,): 1}
        else:
            top = 1 if reduced else cap
            series = {(i,) * d: (-1) ** d for d in range(top + 1)}
        acc = mul(acc, series)
    return acc
