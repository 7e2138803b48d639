"""Regenerate the bundled catalog data files.

Diagrams are produced either from braid words or from explicit planar closed
polylines, so every shipped Gauss code is realizable by construction.  The
Whitehead link is drawn as a rectangle pierced twice by a self-clasping loop
(the reduced alternating 5-crossing diagram); over/under assignments are the
alternating ones, selected deterministically and checked against the
expected invariants before anything is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from itertools import product as iterproduct
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boundarylink import diagrams as dg
from boundarylink.milnor import mu_bar, is_homotopically_trivial
from boundarylink.seifert import SeifertMatrix, whitehead_double_matrix

DATA = Path(__file__).resolve().parent.parent / "src" / "boundarylink" / "data"


# ---------------------------------------------------------------------------
# planar polyline diagrams


def _seg_intersection(p1, p2, q1, q2):
    """Proper interior intersection point and parameters, or None."""
    (x1, y1), (x2, y2) = p1, p2
    (x3, y3), (x4, y4) = q1, q2
    dx1, dy1 = x2 - x1, y2 - y1
    dx2, dy2 = x4 - x3, y4 - y3
    den = dx1 * dy2 - dy1 * dx2
    if den == 0:
        return None
    t = Fraction((x3 - x1) * dy2 - (y3 - y1) * dx2, den)
    u = Fraction((x3 - x1) * dy1 - (y3 - y1) * dx1, den)
    if not (0 < t < 1 and 0 < u < 1):
        return None
    return (x1 + t * dx1, y1 + t * dy1), t, u


def polyline_shadow(curves):
    """Crossing points of closed polylines, with passage order per curve.

    Returns (points, passages) where points is the sorted list of crossing
    points and passages[c] lists (point index, direction, position key) in
    traversal order along curve c.
    """
    segs = []   # (curve, seg index, p, q)
    for c, verts in enumerate(curves):
        for i in range(len(verts)):
            segs.append((c, i, verts[i], verts[(i + 1) % len(verts)]))
    hits = {}   # point -> list of (curve, seg index, parameter, direction)
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            c1, s1, p1, p2 = segs[i]
            c2, s2, q1, q2 = segs[j]
            if c1 == c2 and (s1 == s2 or
                             abs(s1 - s2) in (1, len(curves[c1]) - 1)):
                continue    # same or adjacent segments share a vertex
            res = _seg_intersection(p1, p2, q1, q2)
            if res is None:
                continue
            pt, t, u = res
            d1 = (p2[0] - p1[0], p2[1] - p1[1])
            d2 = (q2[0] - q1[0], q2[1] - q1[1])
            hits.setdefault(pt, []).extend(
                [(c1, s1, t, d1), (c2, s2, u, d2)])
    points = sorted(hits)
    for pt in points:
        if len(hits[pt]) != 2:
            raise ValueError(f"non-transverse configuration at {pt}")
    passages = {c: [] for c in range(len(curves))}
    for idx, pt in enumerate(points):
        for c, s, t, d in hits[pt]:
            passages[c].append((idx, (s, t), d))
    for c in passages:
        passages[c].sort(key=lambda e: e[1])
    return points, passages


def polyline_diagram(curves, over_of):
    """LinkDiagram from closed polylines and an over-curve-passage choice.

    over_of[point index] is the passage slot (0 or 1, in per-point order of
    discovery after sorting passages) ... concretely: a dict mapping point
    index to the curve index that passes over; self-crossings instead map to
    the parameter-smaller ("first visit over") flag True/False.
    """
    points, passages = polyline_shadow(curves)
    # collect the two visits of every point
    visits = {idx: [] for idx in range(len(points))}
    for c in passages:
        for idx, pos, d in passages[c]:
            visits[idx].append((c, pos, d))
    crossings = []
    roles = {}   # (point, curve, pos) -> "o"/"u"
    for idx in range(len(points)):
        (c1, pos1, d1), (c2, pos2, d2) = sorted(visits[idx])
        choice = over_of[idx]
        if c1 != c2:
            first_over = (choice == c1)
        else:
            first_over = bool(choice)
        if first_over:
            over, under, do, du = c1, c2, d1, d2
            roles[(idx, c1, pos1)] = "o"
            roles[(idx, c2, pos2)] = "u"
        else:
            over, under, do, du = c2, c1, d2, d1
            roles[(idx, c2, pos2)] = "o"
            roles[(idx, c1, pos1)] = "u"
        det = do[0] * du[1] - do[1] * du[0]
        crossings.append((over, under, 1 if det > 0 else -1))
    strands = tuple(
        tuple((idx, roles[(idx, c, pos)]) for idx, pos, d in passages[c])
        for c in range(len(curves)))
    return dg.LinkDiagram("closed", strands, tuple(crossings))


def alternating_assignments(curves):
    """All over/under choices making the diagram alternate along every curve."""
    points, passages = polyline_shadow(curves)
    out = []
    for bits in iterproduct((0, 1), repeat=len(points)):
        over_of = {}
        for idx in range(len(points)):
            visits = sorted(
                (c, pos) for c in passages
                for i2, pos, d in passages[c] if i2 == idx)
            (c1, _), (c2, _) = visits
            if c1 != c2:
                over_of[idx] = c1 if bits[idx] else c2
            else:
                over_of[idx] = bool(bits[idx])
        d = polyline_diagram(curves, over_of)
        if all(_alternates([r for _, r in s]) for s in d.strands):
            out.append(d)
    return out


def _alternates(rs):
    return all(rs[i] != rs[(i + 1) % len(rs)] for i in range(len(rs)))


# ---------------------------------------------------------------------------
# catalog entries


def whitehead_closed() -> dg.LinkDiagram:
    rect = [(0, 0), (12, 0), (12, 8), (0, 8)]
    loop = [(3, 10), (4, 10), (4, -2), (8, -2), (8, 4), (2, 4), (2, 10)]
    cands = []
    for d in alternating_assignments([rect, loop]):
        if dg.linking_number(d, 0, 1) != 0:
            continue
        if mu_bar(d, (1, 2))[0] != 0:
            continue
        sl = mu_bar(d, (1, 1, 2, 2))
        if abs(sl[0]) == 1:
            cands.append(d)
    if not cands:
        raise RuntimeError("no alternating assignment gives the Whitehead link")
    return cands[0]


def whitehead_string() -> dg.LinkDiagram:
    """The closed diagram cut open at the curve start points (both on the
    outer face), as a 2-strand string link whose closure it is."""
    d = whitehead_closed()
    return dg.LinkDiagram("string", d.strands, d.crossings, d.components)


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    hopf = dg.closure(dg.braid(2, [1, 1]))
    borromean = dg.closure(dg.braid(3, [1, -2, 1, -2, 1, -2]))
    unlink2 = dg.closure(dg.trivial(2))
    wh = whitehead_closed()
    beta = whitehead_string()
    trefoil = SeifertMatrix(1, (2,), ((-1, 1), (0, -1)))
    wdm2 = whitehead_double_matrix(2, (1, 1))

    # sanity gates before anything is written
    assert dg.linking_number(hopf, 0, 1) == 1
    assert mu_bar(borromean, (1, 2, 3))[0] in (1, -1)
    assert dg.closure(beta).strands == wh.strands
    ht, _ = is_homotopically_trivial(wh)
    assert ht

    entries = {
        "hopf": (hopf.to_json(), "diagram",
                 "positive Hopf link as the closed 2-braid s1^2"),
        "borromean": (borromean.to_json(), "diagram",
                      "Borromean rings as the closed 3-braid (s1 s2^-1)^3"),
        "unlink2": (unlink2.to_json(), "diagram",
                    "2-component unlink"),
        "whitehead": (wh.to_json(), "diagram",
                      "Whitehead link, reduced alternating 5-crossing diagram "
                      "from an explicit planar polyline drawing"),
        "beta": (beta.to_json(), "diagram",
                 "2-strand string link whose closure is the Whitehead link"),
        "trefoil-matrix": (trefoil.to_json(), "matrix",
                           "genus-1 Seifert matrix of the trefoil"),
        "wh-double-matrix": (wdm2.to_json(), "matrix",
                             "good-basis Seifert matrix of a 2-component "
                             "Whitehead double"),
    }
    manifest = {}
    for name, (payload, kind, desc) in sorted(entries.items()):
        fname = f"{name}.json"
        (DATA / fname).write_text(payload + "\n")
        digest = hashlib.sha256((payload + "\n").encode()).hexdigest()
        manifest[name] = {"kind": kind, "file": fname,
                          "sha256": digest, "description": desc}
    (DATA / "catalog.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {DATA}")


if __name__ == "__main__":
    main()
