"""Gauss-code string-link and closed-link diagrams.

A diagram is a set of oriented strands, each carrying an ordered list of
passages through crossings; every crossing stores which strand passes over,
which under, and its sign.  String-link strands are traversed top to bottom;
closing a string link joins each strand to itself, so strands of a closed
diagram are circles read cyclically.  Planarity of the code is trusted, not
verified; the shipped catalog diagrams are generated from explicit planar
polylines.

Free-group words (meridians, longitudes) are tuples of nonzero ints: letter
+i is the meridian of strand i-1, letter -i its inverse.
"""

from __future__ import annotations

import json

from .seifert import (Frozen, StructureError, decode_int, decode_int_rows,
                      decode_ints, decode_list, decode_object, read_json,
                      setfield, strict_int_rows, strict_ints)

Passage = tuple[int, str]                 # (crossing id, "o" | "u")
Crossing = tuple[int, int, int]           # (over strand, under strand, sign)
Word = tuple[int, ...]


class LinkDiagram(Frozen):
    __slots__ = ("kind", "strands", "crossings", "components")

    def __init__(self, kind: str,
                 strands: tuple[tuple[Passage, ...], ...],
                 crossings: tuple[Crossing, ...],
                 components: tuple[tuple[str, tuple[int, ...]], ...] = ()):
        if kind not in ("string", "closed"):
            raise StructureError(f"unknown diagram kind: {kind!r}")
        strands = tuple(tuple(map(tuple, s)) for s in strands)
        crossings = strict_int_rows(crossings, "crossing")
        comps = components or tuple(
            (str(i + 1), (i,)) for i in range(len(strands)))
        comps = tuple(sorted((str(l), tuple(sorted(
            strict_ints(ss, "component strands")))) for l, ss in comps))
        setfield(self, "kind", kind)      # "string" | "closed"
        setfield(self, "strands", strands)
        setfield(self, "crossings", crossings)
        setfield(self, "components", comps)
        self._check()

    def _check(self) -> None:
        seen: dict[tuple[int, str], int] = {}
        for s, passages in enumerate(self.strands):
            for cid, role in passages:
                if role not in ("o", "u"):
                    raise StructureError(f"bad passage role {role!r}")
                if type(cid) is not int:
                    raise StructureError(
                        f"crossing id must be an integer, got {cid!r}")
                if not (0 <= cid < len(self.crossings)):
                    raise StructureError(f"passage references crossing {cid}")
                key = (cid, role)
                if key in seen:
                    raise StructureError(f"crossing {cid} used twice as {role!r}")
                seen[key] = s
        if any(len(c) != 3 for c in self.crossings):
            raise StructureError("a crossing must be [over, under, sign]")
        for cid, (ov, un, sg) in enumerate(self.crossings):
            if sg not in (1, -1):
                raise StructureError(f"crossing {cid} has sign {sg}")
            if seen.get((cid, "o")) != ov or seen.get((cid, "u")) != un:
                raise StructureError(f"crossing {cid} strands do not match passages")
        labels = [l for l, _ in self.components]
        if len(set(labels)) != len(labels):
            raise StructureError("duplicate component labels")
        covered = sorted(s for _, ss in self.components for s in ss)
        if covered != list(range(self.n)):
            raise StructureError("component labels must partition the strands")

    @property
    def n(self) -> int:
        return len(self.strands)

    def label_strands(self, label: str) -> tuple[int, ...]:
        for l, ss in self.components:
            if l == label:
                return ss
        raise StructureError(f"unknown component label: {label!r}")

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "strands": [[[c, r] for c, r in s] for s in self.strands],
            "crossings": [list(c) for c in self.crossings],
            "components": {l: list(ss) for l, ss in self.components},
        }
        return json.dumps(doc, separators=(", ", ": "))

    @classmethod
    def from_json(cls, text: str) -> "LinkDiagram":
        doc = decode_object(read_json(text), "diagram",
                            ("kind", "strands", "crossings"), ("components",))
        comps = doc.get("components", {})
        if not isinstance(comps, dict):
            raise StructureError("diagram components must be an object "
                                 "mapping labels to strand lists")
        strands = decode_list(doc["strands"], "strands", "passage lists")
        return cls(
            kind=doc["kind"],
            strands=tuple(tuple(map(_decode_passage, decode_list(
                s, "strand", "passages"))) for s in strands),
            crossings=decode_int_rows(doc["crossings"], "crossings"),
            components=tuple((l, decode_ints(ss, "component strands"))
                             for l, ss in comps.items()),
        )


def _decode_passage(p) -> Passage:
    if not isinstance(p, list) or len(p) != 2:
        raise StructureError(f"passage must be [crossing, role], got {p!r}")
    return decode_int(p[0], "crossing id"), p[1]


def trivial(n: int) -> LinkDiagram:
    """The crossingless n-strand string link."""
    return LinkDiagram("string", tuple(() for _ in range(n)), ())


def _cross(a: int, b: int, sign: int, crossings: list[Crossing],
           passages) -> None:
    """Append the crossing where strand a, left of strand b, passes over b
    (sign > 0) or under it (sign < 0)."""
    cid = len(crossings)
    over, under = (a, b) if sign > 0 else (b, a)
    crossings.append((over, under, 1 if sign > 0 else -1))
    passages[over].append((cid, "o"))
    passages[under].append((cid, "u"))


def braid(n: int, word: list[int]) -> LinkDiagram:
    """String link of a braid word; letter +i is sigma_i, -i its inverse."""
    positions = list(range(n))
    passages: list[list[Passage]] = [[] for _ in range(n)]
    crossings: list[Crossing] = []
    for letter in word:
        i = abs(letter) - 1
        if not (0 <= i < n - 1):
            raise StructureError(f"braid letter {letter} out of range")
        a, b = positions[i], positions[i + 1]
        _cross(a, b, letter, crossings, passages)
        positions[i], positions[i + 1] = b, a
    if positions != list(range(n)):
        raise StructureError("braid word is not a pure braid")
    return LinkDiagram("string", tuple(tuple(p) for p in passages),
                       tuple(crossings))


def product(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """Stacked concatenation of two string links with equal strand counts."""
    if a.kind != "string" or b.kind != "string":
        raise StructureError("product needs string links")
    if a.n != b.n:
        raise StructureError(f"strand counts differ: {a.n} vs {b.n}")
    shift = len(a.crossings)
    strands = tuple(a.strands[i] + tuple((c + shift, r) for c, r in b.strands[i])
                    for i in range(a.n))
    crossings = a.crossings + b.crossings
    return LinkDiagram("string", strands, crossings, a.components)


def split_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """Disjoint juxtaposition; clashing labels from b get primes appended."""
    if a.kind != b.kind:
        raise StructureError("split_union needs diagrams of the same kind")
    cshift, sshift = len(a.crossings), a.n
    strands = a.strands + tuple(tuple((c + cshift, r) for c, r in s)
                                for s in b.strands)
    crossings = a.crossings + tuple((ov + sshift, un + sshift, sg)
                                    for ov, un, sg in b.crossings)
    taken = {l for l, _ in a.components}
    comps = list(a.components)
    for label, ss in b.components:
        while label in taken:
            label += "'"
        taken.add(label)
        comps.append((label, tuple(s + sshift for s in ss)))
    return LinkDiagram(a.kind, strands, crossings, tuple(comps))


def closure(d: LinkDiagram) -> LinkDiagram:
    """Braid-style closure joining each strand to itself with no new crossings."""
    if d.kind != "string":
        raise StructureError("closure needs a string link")
    return LinkDiagram("closed", d.strands, d.crossings, d.components)


def writhe(d: LinkDiagram, s: int) -> int:
    """Signed count of the self-crossings of strand s."""
    return sum(sg for ov, un, sg in d.crossings if ov == s and un == s)


def linking_number(d: LinkDiagram, s: int, t: int) -> int:
    """Half the signed count of crossings between distinct closed strands."""
    if s == t:
        raise StructureError("linking number needs distinct strands")
    total = sum(sg for ov, un, sg in d.crossings
                if {ov, un} == {s, t})
    if total % 2:
        raise StructureError("odd crossing count between closed components")
    return total // 2


# ---------------------------------------------------------------------------
# cabling


def _twist_block(copies: list[int], sign: int, turns: int,
                 crossings: list[Crossing],
                 passages: dict[int, list[Passage]]) -> None:
    """Append `turns` full twists of the given sign on the listed strands."""
    k = len(copies)
    if k < 2 or turns == 0:
        return
    positions = list(range(k))
    for _ in range(turns):
        for _rep in range(k):
            for i in range(k - 1):
                _cross(copies[positions[i]], copies[positions[i + 1]], sign,
                       crossings, passages)
                positions[i], positions[i + 1] = positions[i + 1], positions[i]


def _cable_core(d: LinkDiagram, mult: tuple[int, ...]) -> LinkDiagram:
    if len(mult) != d.n or any(m < 1 for m in mult):
        raise StructureError("need one positive multiplicity per strand")
    offset = [0]
    for m in mult:
        offset.append(offset[-1] + m)
    n2 = offset[-1]

    crossings: list[Crossing] = []
    passages: dict[int, list[Passage]] = {s: [] for s in range(n2)}

    # framing-correction twists first ("top of the strand")
    for s in range(d.n):
        w = writhe(d, s)
        if mult[s] > 1 and w != 0:
            _twist_block([offset[s] + j for j in range(mult[s])],
                         -1 if w > 0 else 1, abs(w), crossings, passages)

    # grid ids: one block of mult[ov] * mult[un] crossings per old crossing
    grid_base: dict[int, int] = {}
    for cid, (ov, un, sg) in enumerate(d.crossings):
        grid_base[cid] = len(crossings)
        for j in range(mult[ov]):
            for l in range(mult[un]):
                crossings.append((offset[ov] + j, offset[un] + l, sg))

    def grid_id(cid: int, j: int, l: int) -> int:
        return grid_base[cid] + j * mult[d.crossings[cid][1]] + l

    # passage order along each copy: a copy meets the opposite band's copies
    # in the order forced by the blackboard-parallel picture
    for s in range(d.n):
        for cid, role in d.strands[s]:
            ov, un, sg = d.crossings[cid]
            if role == "o":
                order = range(mult[un]) if sg > 0 else range(mult[un] - 1, -1, -1)
                for j in range(mult[s]):
                    for l in order:
                        passages[offset[s] + j].append((grid_id(cid, j, l), "o"))
            else:
                order = range(mult[ov]) if sg < 0 else range(mult[ov] - 1, -1, -1)
                for l in range(mult[s]):
                    for j in order:
                        passages[offset[s] + l].append((grid_id(cid, j, l), "u"))

    comps = tuple((label, tuple(offset[s] + j for s in ss
                                for j in range(mult[s])))
                  for label, ss in d.components)
    return LinkDiagram(d.kind, tuple(tuple(passages[s]) for s in range(n2)),
                       tuple(crossings), comps)


def cable(d: LinkDiagram, mult: tuple[int, ...]) -> LinkDiagram:
    """Replace each strand by zero-framed parallel copies."""
    if d.kind != "string":
        raise StructureError("cable needs a string link")
    return _cable_core(d, tuple(mult))


def pushoff(d: LinkDiagram, label: str) -> LinkDiagram:
    """Add a zero-framed parallel copy of a closed single-strand component."""
    if d.kind != "closed":
        raise StructureError("pushoff needs a closed diagram")
    ss = d.label_strands(label)
    if len(ss) != 1:
        raise StructureError(f"component {label!r} is not a single circle")
    s = ss[0]
    mult = tuple(2 if t == s else 1 for t in range(d.n))
    out = _cable_core(d, mult)
    existing = {l for l, _ in d.components}
    copy_label = label + "+"
    while copy_label in existing:
        copy_label += "+"
    # split the doubled component into the original and its parallel copy
    comps = []
    for l, strands in out.components:
        if l == label:
            comps.append((l, (strands[0],)))
            comps.append((copy_label, (strands[1],)))
        else:
            comps.append((l, strands))
    return LinkDiagram(out.kind, out.strands, out.crossings, tuple(comps))


def delete_components(d: LinkDiagram, keep: list[str]) -> LinkDiagram:
    """Sub-diagram on the named components only."""
    for label in keep:
        d.label_strands(label)
    kept = sorted(s for l, ss in d.components if l in keep for s in ss)
    smap = {s: i for i, s in enumerate(kept)}
    cmap: dict[int, int] = {}
    crossings: list[Crossing] = []
    for cid, (ov, un, sg) in enumerate(d.crossings):
        if ov in smap and un in smap:
            cmap[cid] = len(crossings)
            crossings.append((smap[ov], smap[un], sg))
    strands = tuple(tuple((cmap[c], r) for c, r in d.strands[s] if c in cmap)
                    for s in kept)
    comps = tuple((l, tuple(smap[s] for s in ss))
                  for l, ss in d.components if l in keep)
    return LinkDiagram(d.kind, strands, crossings, comps)


# ---------------------------------------------------------------------------
# free-group words and Wirtinger longitudes


def reduce_word(w: Word) -> Word:
    out: list[int] = []
    for letter in w:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat(*words: Word) -> Word:
    total: list[int] = []
    for w in words:
        total.extend(w)
    return reduce_word(tuple(total))


def invert_word(w: Word) -> Word:
    return tuple(-letter for letter in reversed(w))


def exponent_sum(w: Word, gen: int) -> int:
    return sum(1 if letter == gen else -1 if letter == -gen else 0
               for letter in w)


def wirtinger_longitudes(d: LinkDiagram,
                         depth: int | tuple[int, ...]) -> list[Word]:
    """Zero-framed longitudes of a closed diagram as meridian words.

    Arc generators are rewritten `depth` times through the crossing relations
    w(out) = o^-sign w(in) o^sign, starting every arc at its component's
    meridian; this is exact modulo the lower central series at the depth the
    caller needs (depth >= the length of any Milnor index to be read off).
    `depth` may instead give one depth per component: all longitudes then
    come from one sweep run, each read off after its own number of sweeps.
    The longitude reads off o^sign at each under-passage; this pairing keeps
    mu-bar(ij) equal to the linking number and makes the higher coefficients
    satisfy the cyclic and shuffle relations (the opposite pairing fails them
    on diagrams with self-crossings).
    """
    if d.kind != "closed":
        raise StructureError("longitudes need a closed diagram")
    depths = (depth,) * d.n if isinstance(depth, int) else tuple(depth)
    if len(depths) != d.n:
        raise StructureError(f"need one depth per component, got {len(depths)}")
    if min(depths, default=2) < 2:
        raise StructureError("depth must be at least 2")

    # arcs: strand s splits after each under-passage; arc_of[(s, pos)] is the
    # arc occupied at passage position pos, arcs numbered along the strand
    under_pos: list[list[int]] = []
    arc_of: dict[tuple[int, int], int] = {}
    arc_count: list[int] = []
    for s, passages in enumerate(d.strands):
        ups = [p for p, (_, r) in enumerate(passages) if r == "u"]
        under_pos.append(ups)
        arc_count.append(max(len(ups), 1))
        if not ups:
            for p in range(len(passages)):
                arc_of[(s, p)] = 0
            continue
        # arc j ends at under-passage ups[j]; positions after ups[-1] wrap to arc 0
        j = 0
        for p in range(len(passages)):
            arc_of[(s, p)] = j % len(ups)
            if j < len(ups) and p == ups[j]:
                j += 1

    over_arc_at: dict[int, tuple[int, int]] = {}
    for s, passages in enumerate(d.strands):
        for p, (cid, r) in enumerate(passages):
            if r == "o":
                over_arc_at[cid] = (s, arc_of[(s, p)])

    words: dict[tuple[int, int], Word] = {
        (s, j): (s + 1,) for s in range(d.n) for j in range(arc_count[s])}
    longs: list[Word] = [()] * d.n
    for sweep in range(1, max(depths, default=0) + 1):
        new: dict[tuple[int, int], Word] = {}
        for s in range(d.n):
            ups = under_pos[s]
            base = arc_of[(s, 0)] if d.strands[s] else 0
            new[(s, base)] = (s + 1,)
            cur = new[(s, base)]
            # walk the strand once around from the base arc; arc j ends at
            # under-passage ups[j], so the walk meets ups[base], ups[base+1], ...
            for step in range(len(ups)):
                p = ups[(base + step) % len(ups)]
                cid = d.strands[s][p][0]
                sg = d.crossings[cid][2]
                o = words[over_arc_at[cid]]
                conj = invert_word(o) if sg > 0 else o
                cur = concat(conj, cur, invert_word(conj))
                out_arc = (arc_of[(s, p)] + 1) % arc_count[s]
                if out_arc != base:
                    new[(s, out_arc)] = cur
        words = new
        for s in range(d.n):
            if depths[s] == sweep:
                longs[s] = _read_longitude(d, s, words, over_arc_at)
    return longs


def _read_longitude(d: LinkDiagram, s: int,
                    words: dict[tuple[int, int], Word],
                    over_arc_at: dict[int, tuple[int, int]]) -> Word:
    lon: Word = ()
    for cid, r in d.strands[s]:
        if r != "u":
            continue
        sg = d.crossings[cid][2]
        o = words[over_arc_at[cid]]
        lon = concat(lon, o if sg > 0 else invert_word(o))
    e = exponent_sum(lon, s + 1)
    return concat(lon, tuple([-(s + 1)] * e if e > 0 else [s + 1] * (-e)))
