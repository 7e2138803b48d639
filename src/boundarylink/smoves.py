"""The three S-equivalence moves, pattern search, and the rearrangement lemma.

Moves on boundary-link Seifert matrices:

  * congruence: B_ij = P_i^T A_ij P_j with each P_i unimodular;
  * enlargement: insert a 2x2 corner [[0, eps'], [eps, 0]] with a shared
    witness row x into block k (the classical move puts it at the front of
    the block; any position inside the block differs from that by a
    permutation congruence, so we track an offset and, symmetrically, a
    `swapped` flag for the transposed row order);
  * reduction: the inverse of an enlargement, located by exact pattern scan.

Everything here is exact integer arithmetic on immutable values.  The one
search, reduce_to_null, is bounded and reports an honest "inconclusive" when
its node budget runs out.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from . import intmat
from .intmat import IntMatrix
from .seifert import (Frozen, SeifertMatrix, StructureError, decode_int,
                      decode_int_rows, decode_ints, decode_list, decode_object,
                      is_valid, null_matrix, read_json, setfield,
                      strict_int_rows, strict_ints)


class ReplayError(ValueError):
    """A recorded move does not apply to the matrix it is replayed against."""


# ---------------------------------------------------------------------------
# move types


class Congruence(Frozen):
    """Blockwise basis change: one unimodular P_i per component."""
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[IntMatrix, ...]):
        setfield(self, "blocks", tuple(
            strict_int_rows(b, "congruence block") for b in blocks))

    def check(self, matrix: SeifertMatrix) -> None:
        if len(self.blocks) != matrix.m:
            raise ReplayError("congruence has wrong number of blocks")
        for k, p in enumerate(self.blocks):
            if len(p) != matrix.block_sizes[k]:
                raise ReplayError(f"P_{k} size does not match block {k}")
            if not intmat.is_unimodular(p):
                raise ReplayError(f"P_{k} is not unimodular")

    def compose(self, other: "Congruence") -> "Congruence":
        """Congruence equal to applying self, then other."""
        return Congruence(tuple(intmat.matmul(p, q)
                                for p, q in zip(self.blocks, other.blocks)))

    def inverse(self) -> "Congruence":
        return Congruence(tuple(intmat.inverse_unimodular(p) for p in self.blocks))

    @staticmethod
    def identity(matrix: SeifertMatrix) -> "Congruence":
        return Congruence(tuple(intmat.identity(b) for b in matrix.block_sizes))


class Enlargement(Frozen):
    """Witness data for one S-enlargement on block k.

    `rows` holds one integer row vector per component, sized against the
    matrix *before* the enlargement.  `offset` is the position of the new
    coordinate pair inside block k; `swapped` records the transposed row
    order (zero row second), which is the front pattern conjugated by the
    transposition congruence of the pair.
    """
    __slots__ = ("k", "eps", "rows", "offset", "swapped")

    def __init__(self, k: int, eps: tuple[int, int],
                 rows: tuple[tuple[int, ...], ...], offset: int = 0,
                 swapped: bool = False):
        decode_int(k, "k")
        decode_int(offset, "offset")
        eps = strict_ints(eps, "eps")
        rows = strict_int_rows(rows, "enlargement row")
        if eps not in ((1, 0), (0, 1)):
            raise StructureError("(eps, eps') must be (1,0) or (0,1)")
        setfield(self, "k", k)
        setfield(self, "eps", eps)            # (eps, eps')
        setfield(self, "rows", rows)
        setfield(self, "offset", offset)
        setfield(self, "swapped", swapped)

    def check(self, matrix: SeifertMatrix) -> None:
        if not (0 <= self.k < matrix.m):
            raise ReplayError(f"component {self.k} out of range")
        if len(self.rows) != matrix.m:
            raise ReplayError("enlargement needs one row vector per component")
        for i, r in enumerate(self.rows):
            if len(r) != matrix.block_sizes[i]:
                raise ReplayError(f"row vector x_{i} has wrong length")
        if not (0 <= self.offset <= matrix.block_sizes[self.k]):
            raise ReplayError("enlargement offset outside block")


class Reduce(Frozen):
    """Position of the reducible 2x2 pattern inside block k."""
    __slots__ = ("k", "offset", "swapped")

    def __init__(self, k: int, offset: int, swapped: bool = False):
        setfield(self, "k", k)
        setfield(self, "offset", offset)
        setfield(self, "swapped", swapped)


SMove = Congruence | Enlargement | Reduce


class MoveSequence(Frozen):
    __slots__ = ("start", "moves")

    def __init__(self, start: SeifertMatrix, moves: tuple[SMove, ...] = ()):
        setfield(self, "start", start)
        setfield(self, "moves", moves)

    def replay(self) -> list[SeifertMatrix]:
        """All intermediate matrices, raising ReplayError on any mismatch."""
        mats = [self.start]
        for mv in self.moves:
            mats.append(apply_move(mats[-1], mv))
        return mats


# ---------------------------------------------------------------------------
# applying moves


def apply_congruence(a: SeifertMatrix, p: Congruence) -> SeifertMatrix:
    p.check(a)
    big = _block_diag(p.blocks)
    entries = intmat.matmul(intmat.matmul(intmat.transpose(big), a.entries), big)
    return SeifertMatrix(a.m, a.block_sizes, entries)


def _block_diag(blocks: Iterable[IntMatrix]) -> IntMatrix:
    blocks = list(blocks)
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    return intmat.freeze(rows)


def apply_enlargement(a: SeifertMatrix, e: Enlargement) -> SeifertMatrix:
    e.check(a)
    n = a.side
    t = a.offset(e.k) + e.offset          # global insertion point
    g0, g1 = t, t + 1                     # zero row, witness row
    if e.swapped:
        g0, g1 = t + 1, t
    x = [v for r in e.rows for v in r]    # global witness vector, old coords

    def nv(u: int) -> int:
        return u if u < t else u + 2

    rows = [[0] * (n + 2) for _ in range(n + 2)]
    eps, epsp = e.eps
    rows[g0][g1] = epsp
    rows[g1][g0] = eps
    for u in range(n):
        rows[g1][nv(u)] = x[u]
        rows[nv(u)][g1] = x[u]
    for u in range(n):
        for v in range(n):
            rows[nv(u)][nv(v)] = a.entries[u][v]
    sizes = list(a.block_sizes)
    sizes[e.k] += 2
    return SeifertMatrix(a.m, tuple(sizes), intmat.freeze(rows))


def reduction_witness(b: SeifertMatrix, k: int, offset: int,
                      swapped: bool = False) -> Enlargement:
    """The Enlargement whose application recreates b, or ReplayError."""
    if not (0 <= k < b.m) or not (0 <= offset <= b.block_sizes[k] - 2):
        raise ReplayError(f"no pattern slot at component {k}, offset {offset}")
    t = b.offset(k) + offset
    g0, g1 = (t, t + 1) if not swapped else (t + 1, t)
    ent = b.entries
    e01, e10 = ent[g0][g1], ent[g1][g0]
    if {e01, e10} != {0, 1}:
        raise ReplayError("corner entries are not a 0/1 pair")
    if ent[g0][g0] != 0 or ent[g1][g1] != 0:
        raise ReplayError("corner diagonal is not zero")
    others = [u for u in range(b.side) if u not in (g0, g1)]
    for u in others:
        if ent[g0][u] != 0 or ent[u][g0] != 0:
            raise ReplayError("zero row/column of the pattern is not zero")
        if ent[g1][u] != ent[u][g1]:
            raise ReplayError("witness row and column differ")
    x = [ent[g1][u] for u in others]
    rows = []
    pos = 0
    for i in range(b.m):
        size = b.block_sizes[i] - (2 if i == k else 0)
        rows.append(tuple(x[pos:pos + size]))
        pos += size
    return Enlargement(k=k, eps=(e10, e01), rows=tuple(rows),
                       offset=offset, swapped=swapped)


def find_reductions(b: SeifertMatrix) -> list[Enlargement]:
    """Every position where b matches the enlargement pattern exactly.

    Deterministic order: (component, offset, unswapped-first).
    """
    out = []
    for k in range(b.m):
        for off in range(b.block_sizes[k] - 1):
            for swapped in (False, True):
                try:
                    out.append(reduction_witness(b, k, off, swapped))
                except ReplayError:
                    continue
                break   # both orders match only for a zero witness row;
                        # the reduced matrix is the same, report one
    return out


def apply_reduction(b: SeifertMatrix, r: Enlargement | Reduce) -> SeifertMatrix:
    if isinstance(r, Reduce):
        r = reduction_witness(b, r.k, r.offset, r.swapped)
    else:
        # verify the witness actually matches b at its position
        found = reduction_witness(b, r.k, r.offset, r.swapped)
        if found != r:
            raise ReplayError("reduction witness does not match the matrix")
    t = b.offset(r.k) + r.offset
    keep = [u for u in range(b.side) if u not in (t, t + 1)]
    rows = tuple(tuple(b.entries[u][v] for v in keep) for u in keep)
    sizes = list(b.block_sizes)
    sizes[r.k] -= 2
    return SeifertMatrix(b.m, tuple(sizes), rows)


def apply_move(a: SeifertMatrix, mv: SMove) -> SeifertMatrix:
    if isinstance(mv, Congruence):
        return apply_congruence(a, mv)
    if isinstance(mv, Enlargement):
        return apply_enlargement(a, mv)
    if isinstance(mv, Reduce):
        return apply_reduction(a, mv)
    raise TypeError(f"not a move: {mv!r}")


# ---------------------------------------------------------------------------
# bounded search


class SearchResult(Frozen):
    __slots__ = ("status", "sequence", "nodes")

    def __init__(self, status: str, sequence: Optional[MoveSequence] = None,
                 nodes: int = 0):
        setfield(self, "status", status)   # "found" | "exhausted" | "budget"
        setfield(self, "sequence", sequence)
        setfield(self, "nodes", nodes)

    @property
    def found(self) -> bool:
        return self.status == "found"


def reduce_to_null(a: SeifertMatrix, budget: int = 10 ** 6) -> SearchResult:
    """Depth-first search for a pure reduction path to the null matrix.

    "exhausted" means the (finite) reduction graph below `a` was fully
    explored and contains no null matrix: `a` is not reducible by
    elementary S-reductions alone.  It says nothing about S-equivalence.
    """
    if not is_valid(a):
        raise ValueError("reduce_to_null requires a valid Seifert matrix")
    target = null_matrix(a.m)
    seen: set = set()
    nodes = 0
    budget_hit = False

    def dfs(mat: SeifertMatrix) -> Optional[list[Reduce]]:
        nonlocal nodes, budget_hit
        if mat == target:
            return []
        key = (mat.block_sizes, mat.entries)
        if key in seen:
            return None
        seen.add(key)
        for wit in find_reductions(mat):
            nodes += 1
            if nodes > budget:
                budget_hit = True
                return None
            tail = dfs(apply_reduction(mat, wit))
            if tail is not None:
                return [Reduce(wit.k, wit.offset, wit.swapped)] + tail
            if budget_hit:
                return None
        return None

    path = dfs(a)
    if path is not None:
        return SearchResult("found", MoveSequence(a, tuple(path)), nodes)
    return SearchResult("budget" if budget_hit else "exhausted", None, nodes)


# ---------------------------------------------------------------------------
# rearrangement lemma and normalization


def _embed_congruence(mat: SeifertMatrix, new_pairs: dict[int, list[int]],
                      blocks: tuple[IntMatrix, ...]) -> Congruence:
    """Blockwise congruence acting as blocks[i] on old coordinates and as the
    identity on the coordinate pairs listed (per component) in new_pairs."""
    out = []
    for i in range(mat.m):
        size = mat.block_sizes[i]
        skip = set()
        for off in new_pairs.get(i, []):
            skip.update((off, off + 1))
        old = [p for p in range(size) if p not in skip]
        q = [[0] * size for _ in range(size)]
        for p in skip:
            q[p][p] = 1
        for r, pr in enumerate(old):
            for c, pc in enumerate(old):
                q[pr][pc] = blocks[i][r][c]
        out.append(intmat.freeze(q))
    return Congruence(tuple(out))


def _shift_rows(rows: tuple[tuple[int, ...], ...], comp: int,
                offset: int) -> tuple[tuple[int, ...], ...]:
    """Insert two zero slots into rows[comp] at `offset`."""
    new = list(rows)
    r = list(new[comp])
    new[comp] = tuple(r[:offset] + [0, 0] + r[offset:])
    return tuple(new)


class MinMaxWitness(Frozen):
    __slots__ = ("d", "q", "enlarge_a", "enlarge_b")

    def __init__(self, d: SeifertMatrix, q: Congruence,
                 enlarge_a: Enlargement, enlarge_b: Enlargement):
        setfield(self, "d", d)
        setfield(self, "q", q)
        # apply_enlargement(a, enlarge_a) == d and
        # apply_enlargement(b, enlarge_b) == Q^T D Q
        setfield(self, "enlarge_a", enlarge_a)
        setfield(self, "enlarge_b", enlarge_b)


def replace_min_by_max(a: SeifertMatrix, c: SeifertMatrix, c2: SeifertMatrix,
                       b: SeifertMatrix, red: Enlargement, p: Congruence,
                       enl: Enlargement) -> MinMaxWitness:
    """Rewrite a local size minimum A > C ~ C' < B as a local maximum.

    Given replaying witnesses (A = enlargement of C by `red`, C' = P^T C P,
    B = enlargement of C' by `enl`), produce D with A < D and Q with
    Q^T D Q > B, both with explicit witnesses.
    """
    if apply_enlargement(c, red) != a:
        raise ReplayError("red does not recreate A from C")
    if apply_congruence(c, p) != c2:
        raise ReplayError("P does not carry C to C'")
    if apply_enlargement(c2, enl) != b:
        raise ReplayError("enl does not recreate B from C'")
    p_inv = [intmat.inverse_unimodular(blk) for blk in p.blocks]

    # D enlarges A: transport enl's witness rows back through P^{-1} and pad
    # them with zeros at the coordinates red inserted into A.
    y_pinv = tuple(
        tuple(intmat.matmul((row,), p_inv[i])[0]) if row else ()
        for i, row in enumerate(enl.rows))
    rows_d = _shift_rows(y_pinv, red.k, red.offset)
    off_d = enl.offset if (enl.k != red.k or enl.offset <= red.offset) \
        else enl.offset + 2
    e_d = Enlargement(k=enl.k, eps=enl.eps, rows=rows_d, offset=off_d,
                      swapped=enl.swapped)
    d = apply_enlargement(a, e_d)

    # Q: identity on both inserted pairs, P_i on the old C coordinates.
    pair_a = {red.k: [red.offset if (red.k != e_d.k or red.offset < off_d)
                      else red.offset + 2]}
    pairs = {k: list(v) for k, v in pair_a.items()}
    pairs.setdefault(e_d.k, []).append(off_d)
    q = _embed_congruence(d, pairs, p.blocks)

    # Q^T D Q enlarges B: red's witness rows transported forward through P
    # and padded with zeros at the coordinates enl inserted into B.
    x_p = tuple(tuple(intmat.matmul((row,), p.blocks[i])[0]) if row else ()
                for i, row in enumerate(red.rows))
    rows_b = _shift_rows(x_p, enl.k, enl.offset)
    off_b = red.offset if (red.k != enl.k or red.offset < enl.offset) \
        else red.offset + 2
    e_b = Enlargement(k=red.k, eps=red.eps, rows=rows_b, offset=off_b,
                      swapped=red.swapped)
    if apply_enlargement(b, e_b) != apply_congruence(d, q):
        raise AssertionError("replace_min_by_max witnesses failed to replay")
    return MinMaxWitness(d=d, q=q, enlarge_a=e_d, enlarge_b=e_b)


def is_monotone(seq: MoveSequence) -> bool:
    """True when no enlargement appears after any reduction."""
    seen_reduce = False
    for mv in seq.moves:
        if isinstance(mv, Reduce):
            seen_reduce = True
        elif isinstance(mv, Enlargement) and seen_reduce:
            return False
    return True


def normalize_sequence(seq: MoveSequence) -> MoveSequence:
    """Rewrite a replayable sequence so every enlargement precedes every
    reduction, preserving the endpoint matrices exactly."""
    mats = seq.replay()
    start, end = mats[0], mats[-1]
    moves = list(seq.moves)
    while True:
        idx = _first_min(moves)
        if idx is None:
            break
        i, j = idx                     # moves[i] is Reduce, moves[j] Enlargement
        mats = MoveSequence(start, tuple(moves)).replay()
        a = mats[i]
        red = reduction_witness(a, moves[i].k, moves[i].offset, moves[i].swapped)
        c = mats[i + 1]
        p = Congruence.identity(c)
        for mv in moves[i + 1:j]:
            p = p.compose(mv)
        c2 = apply_congruence(c, p)
        w = replace_min_by_max(a, c, c2, mats[j + 1], red, p, moves[j])
        moves[i:j + 1] = [w.enlarge_a, w.q,
                          Reduce(w.enlarge_b.k, w.enlarge_b.offset,
                                 w.enlarge_b.swapped)]
    out = MoveSequence(start, tuple(moves))
    final = out.replay()[-1]
    if final != end:
        raise AssertionError("normalization changed the endpoint")
    return out


def _first_min(moves: list[SMove]) -> Optional[tuple[int, int]]:
    """First i<j with moves[i]=Reduce, moves[j]=Enlargement, congruences between."""
    for i, mv in enumerate(moves):
        if not isinstance(mv, Reduce):
            continue
        j = i + 1
        while j < len(moves) and isinstance(moves[j], Congruence):
            j += 1
        if j < len(moves) and isinstance(moves[j], Enlargement):
            return i, j
    return None


# ---------------------------------------------------------------------------
# good-basis staircase form


class GoodBasisForm(Frozen):
    """A pair ordering putting a matrix in staircase form.

    ordering[t] is the pair occupying position t of the form; pairs are
    numbered left to right through the blocks, pair p covering coordinates
    (2p, 2p+1) of its block.  swaps[t] says the pair's two coordinates are
    taken in reversed order; signs[t] is the epsilon of its diagonal block.
    """
    __slots__ = ("ordering", "signs", "swaps")

    def __init__(self, ordering: tuple[int, ...], signs: tuple[int, ...],
                 swaps: tuple[bool, ...]):
        setfield(self, "ordering", ordering)
        setfield(self, "signs", signs)
        setfield(self, "swaps", swaps)


def _pair_coords(a: SeifertMatrix) -> list[tuple[int, int]]:
    pairs = []
    for k in range(a.m):
        base = a.offset(k)
        for t in range(a.block_sizes[k] // 2):
            pairs.append((base + 2 * t, base + 2 * t + 1))
    return pairs


def good_basis_form_check(a: SeifertMatrix) -> Optional[GoodBasisForm]:
    """Find a pair reordering exhibiting the staircase form, or None.

    In the form, each pair's first coordinate has zero row and column apart
    from its own diagonal block [[0, eps], [1-eps, 0]], entries above-right
    of the diagonal blocks are arbitrary, entries below-left are zero, and
    each second coordinate's row agrees with its column outside the pair
    (so the last pair is always removable by an elementary reduction; this
    holds automatically for bases with symplectic geometric intersections).
    Pairs are peeled from the back of the form, deterministically, in time
    polynomial in the genus.
    """
    if any(s % 2 for s in a.block_sizes):
        raise StructureError("good-basis form needs even block sizes")
    pairs = _pair_coords(a)
    ent = a.entries

    def corner_sign(u: int, v: int) -> Optional[int]:
        # pair taken as (u, v): diagonal block must be [[0, e], [1-e, 0]]
        if ent[u][u] or ent[v][v]:
            return None
        e, f = ent[u][v], ent[v][u]
        return e if (e, f) in ((1, 0), (0, 1)) else None

    def reducible_last(p: int, live: list[int], swap: bool) -> Optional[int]:
        u, v = pairs[p]
        if swap:
            u, v = v, u
        e = corner_sign(u, v)
        if e is None:
            return None
        others = [w for q in live if q != p for w in pairs[q]]
        for w in others:
            if ent[u][w] != 0 or ent[w][u] != 0:
                return None
            if ent[v][w] != ent[w][v]:
                return None
        return e

    # Removing a pair only drops conditions on the others, so a pair that is
    # removable now stays removable: peeling greedily never needs to undo a
    # choice.  Taking the highest removable pair for the rearmost open slot
    # makes a matrix already in staircase order report the identity ordering.
    live = list(range(len(pairs)))
    order: list[int] = []
    signs: list[int] = []
    swaps: list[bool] = []
    while live:
        found = next(((p, swap, e) for p in reversed(live)
                      for swap in (False, True)
                      if (e := reducible_last(p, live, swap)) is not None),
                     None)
        if found is None:
            return None
        p, swap, e = found
        order.append(p)
        signs.append(e)
        swaps.append(swap)
        live.remove(p)
    return GoodBasisForm(tuple(reversed(order)), tuple(reversed(signs)),
                         tuple(reversed(swaps)))


# ---------------------------------------------------------------------------
# serialization


def move_to_doc(mv: SMove) -> dict:
    if isinstance(mv, Congruence):
        return {"move": "congruence",
                "blocks": [[list(r) for r in b] for b in mv.blocks]}
    if isinstance(mv, Enlargement):
        return {"move": "enlarge", "k": mv.k, "eps": list(mv.eps),
                "offset": mv.offset, "swapped": mv.swapped,
                "rows": [list(r) for r in mv.rows]}
    if isinstance(mv, Reduce):
        return {"move": "reduce", "k": mv.k, "offset": mv.offset,
                "swapped": mv.swapped}
    raise TypeError(f"not a move: {mv!r}")


# every key that some move kind defines
_MOVE_KEYS = ("move", "blocks", "k", "eps", "rows", "offset", "swapped")


def move_from_doc(doc) -> SMove:
    kind = decode_object(doc, "move", ("move",), _MOVE_KEYS)["move"]
    if kind == "congruence":
        decode_object(doc, "congruence move", ("move", "blocks"))
        blocks = tuple(decode_int_rows(b, "congruence block") for b in
                       decode_list(doc["blocks"], "congruence blocks",
                                   "matrices"))
        for b in blocks:
            if any(len(row) != len(b) for row in b):
                raise StructureError("congruence blocks must be square")
        return Congruence(blocks)
    if kind == "enlarge":
        decode_object(doc, "enlarge move", ("move", "k", "eps", "rows"),
                      ("offset", "swapped"))
        return Enlargement(k=doc["k"], eps=decode_ints(doc["eps"], "eps"),
                           rows=decode_int_rows(doc["rows"], "rows"),
                           offset=doc.get("offset", 0),
                           swapped=_decode_bool(doc.get("swapped", False)))
    if kind == "reduce":
        decode_object(doc, "reduce move", ("move", "k", "offset"), ("swapped",))
        return Reduce(decode_int(doc["k"], "k"),
                      decode_int(doc["offset"], "offset"),
                      _decode_bool(doc.get("swapped", False)))
    raise StructureError(f"unknown move kind: {kind!r}")


def _decode_bool(value) -> bool:
    if type(value) is not bool:
        raise StructureError(f"swapped must be true or false, got {value!r}")
    return value


def moves_to_json(moves: Iterable[SMove]) -> str:
    return json.dumps([move_to_doc(m) for m in moves], separators=(", ", ": "))


def moves_from_json(text: str) -> tuple[SMove, ...]:
    docs = decode_list(read_json(text), "move file", "moves")
    return tuple(map(move_from_doc, docs))
