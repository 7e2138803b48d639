"""Milnor mu-bar invariants, link-homotopy triviality, and the certifier.

mu_bar(I) reads the coefficient of X_{I[0]}..X_{I[-2]} in the Magnus
expansion of the zero-framed longitude of component I[-1], with the standard
indeterminacy: the gcd, over delete-one-index cyclic sub-indices, of their
invariants and of their own indeterminacies.  Homotopy triviality is decided
by vanishing of all non-repeating invariants, tested by increasing length so
each test happens at indeterminacy zero and the boolean verdict is exact.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import gcd

from . import __version__
from . import diagrams as dg
from .diagrams import LinkDiagram
from .magnus import Monomial, magnus_expand
from .seifert import Frozen, SeifertMatrix, StructureError, decode_int, setfield

Index = tuple[int, ...]


class PairedLink(Frozen):
    __slots__ = ("diagram", "sublink")

    def __init__(self, diagram: LinkDiagram, sublink: tuple[str, ...]):
        sublink = tuple(sublink)
        if not sublink:
            raise StructureError("sublink must name at least one component")
        labels = {l for l, _ in diagram.components}
        for k, l in enumerate(sublink):
            if l not in labels:
                raise StructureError(f"sublink label {l!r} not in diagram")
            if l in sublink[:k]:
                raise StructureError(f"sublink repeats label {l!r}")
        setfield(self, "diagram", diagram)
        setfield(self, "sublink", sublink)


class MuTable(Frozen):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Index, tuple[int, int]], ...]):
        setfield(self, "entries", entries)

    def as_dict(self) -> dict[Index, tuple[int, int]]:
        return dict(self.entries)

    def to_json(self) -> str:
        doc = [{"index": list(i), "value": v, "indeterminacy": d}
               for i, (v, d) in sorted(self.entries,
                                       key=lambda e: (len(e[0]), e[0]))]
        return json.dumps(doc, separators=(", ", ": "))


def _raw_mu(series: dict[int, dict[Monomial, int]], i: Index) -> int:
    """mu(I) before indeterminacy: the coefficient of X_{I[0]}..X_{I[-2]} in
    the expansion of the longitude of component I[-1]."""
    return series[i[-1]].get(i[:-1], 0)


def _without_meridian(w: dg.Word, c: int) -> dg.Word:
    """w under x_c -> 1: every letter +-c deleted, then freely reduced.

    X_c -> 0 is a ring map of the truncated and of the reduced Magnus ring,
    so every coefficient of a monomial without X_c is that of w itself."""
    return dg.reduce_word(tuple(l for l in w if l != c and l != -c))


def _sub_indices(index: Index) -> dict[Index, tuple[Index, ...]]:
    """Every index the indeterminacy recursion of mu-bar(index) reads, each
    with its distinct delete-one-entry cyclic sub-indices (an index of
    length 2 has none)."""
    subs: dict[Index, tuple[Index, ...]] = {}
    todo = [index]
    while todo:
        i = todo.pop()
        if i in subs:
            continue
        rests = (i[:k] + i[k + 1:] for k in range(len(i))) if len(i) > 2 else ()
        subs[i] = tuple(dict.fromkeys(rest[r:] + rest[:r] for rest in rests
                                      for r in range(len(rest))))
        todo.extend(subs[i])
    return subs


def mu_bar(d: LinkDiagram, index: Index) -> tuple[int, int]:
    """(value, indeterminacy) of mu-bar; indeterminacy 0 means exact.

    Each component the recursion reads is expanded once: truncated at the
    largest cap any of its indices needs, in the full ring only if one of its
    monomials repeats a variable, from its longitude word after cap + 1
    Wirtinger sweeps, which is exact through degree cap (Milnor).  Every
    index reads its coefficient off that one series; truncation and passing
    to the reduced ring are ring maps, so the coefficients equal those of a
    separate expansion per cap and ring.  X_c -> 0 is a ring map too: when
    no index ending in c repeats c, no monomial read off c's longitude holds
    X_c, so that longitude is expanded with its own meridian deleted.
    """
    index = tuple(decode_int(j, "index entry") for j in index)
    if d.kind != "closed":
        raise StructureError("mu-bar needs a closed diagram")
    if len(index) < 2:
        raise StructureError("index must have length at least 2")
    for j in index:
        if not (1 <= j <= d.n):
            raise StructureError(f"component {j} out of range")
    subs = _sub_indices(index)
    caps: dict[int, tuple[int, bool]] = {}
    for i in subs:
        cap, full = caps.get(i[-1], (1, False))
        caps[i[-1]] = (max(cap, len(i) - 1),
                       full or len(set(i[:-1])) < len(i) - 1)
    longs = dg.wirtinger_longitudes(d, tuple(
        caps[c][0] + 1 if c in caps else 2 for c in range(1, d.n + 1)))
    repeats_last = {i[-1] for i in subs if i[-1] in i[:-1]}
    series = {c: magnus_expand(longs[c - 1] if c in repeats_last
                               else _without_meridian(longs[c - 1], c),
                               d.n, cap, not full).as_dict()
              for c, (cap, full) in caps.items()}
    values: dict[Index, tuple[int, int]] = {}
    for i in sorted(subs, key=len):
        value = _raw_mu(series, i)
        indet = 0
        for sub in subs[i]:
            v, d_sub = values[sub]
            indet = gcd(indet, v, d_sub)
        if indet:
            value %= indet
        values[i] = (value, indet)
    return values[index]


def is_homotopically_trivial(d: LinkDiagram) -> tuple[bool, MuTable]:
    """Vanishing of all non-repeating mu-bar of length 2..n, with the table.

    The longitude words are built once, after n Wirtinger sweeps, which is
    exact for every index of length up to n (Milnor).  A non-repeating index
    ending in c reads a monomial without X_c, and X_c -> 0 is a ring map, so
    each longitude is expanded with its own meridian deleted."""
    if d.kind != "closed":
        raise StructureError("homotopy test needs a closed diagram")
    m = d.n
    longs = dg.wirtinger_longitudes(d, (m,) * m) if m > 1 else []
    longs = [_without_meridian(w, c) for c, w in enumerate(longs, 1)]
    entries: list[tuple[Index, tuple[int, int]]] = []
    trivial_so_far = True
    for length in range(2, m + 1):
        series = {c: magnus_expand(w, m, length - 1).as_dict()
                  for c, w in enumerate(longs, 1)}
        for i in permutations(range(1, m + 1), length):
            value = _raw_mu(series, i)
            # lower-order invariants all vanish, so the value is exact
            entries.append((i, (value, 0)))
            if value != 0:
                trivial_so_far = False
        if not trivial_so_far:
            break
    return trivial_so_far, MuTable(tuple(entries))


def is_ht_plus_pair(p: PairedLink
                    ) -> tuple[bool, dict[str, tuple[bool, MuTable]]]:
    """Definition: K with the zero-framed parallel of each J_i is
    homotopically trivial, for every component J_i of J."""
    d = p.diagram
    results: dict[str, tuple[bool, MuTable]] = {}
    ok = True
    for label, strands in d.components:
        if len(strands) != 1:
            raise StructureError(f"component {label!r} is not a single circle")
        with_copy = dg.pushoff(d, label)
        old = {l for l, _ in d.components}
        copy_label = next(l for l, _ in with_copy.components if l not in old)
        keep = sorted(set(p.sublink) | {copy_label})
        tested = dg.delete_components(with_copy, keep)
        verdict, table = is_homotopically_trivial(tested)
        results[label] = (verdict, table)
        ok = ok and verdict
    return ok, results


def star_entries_zero(a: SeifertMatrix) -> bool:
    """All entries outside the 2x2 diagonal pair corners vanish."""
    from .smoves import _pair_coords

    pair_of = {}
    for p, (u, v) in enumerate(_pair_coords(a)):
        pair_of[u] = p
        pair_of[v] = p
    for r in range(a.side):
        for c in range(a.side):
            if pair_of[r] != pair_of[c] and a.entries[r][c] != 0:
                return False
    return True


class Certificate(Frozen):
    __slots__ = ("verdict", "checks", "input_hashes", "version")

    def __init__(self, verdict: str, checks: tuple[tuple[str, bool, str], ...],
                 input_hashes: tuple[tuple[str, str], ...],
                 version: str = __version__):
        # verdict: certified-freely-slice | hypothesis-failed | inconclusive
        setfield(self, "verdict", verdict)
        setfield(self, "checks", checks)
        setfield(self, "input_hashes", input_hashes)
        setfield(self, "version", version)

    def to_json(self) -> str:
        doc = {
            "verdict": self.verdict,
            "checks": [{"name": n, "passed": p, "detail": t}
                       for n, p, t in self.checks],
            "inputs": {n: h for n, h in self.input_hashes},
            "version": self.version,
        }
        return json.dumps(doc, separators=(", ", ": "), sort_keys=False)


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def certify_theorem_A(matrix: SeifertMatrix,
                      derived: dict[str, LinkDiagram]) -> Certificate:
    """Verify the certifier hypotheses: good-basis form plus homotopy
    triviality of every derived link.  A certificate never asserts more than
    that these hypotheses hold for the supplied combinatorial data."""
    from .smoves import good_basis_form_check

    checks: list[tuple[str, bool, str]] = []
    hashes = [("matrix", _sha256(matrix.to_json()))]
    for name in sorted(derived):
        hashes.append((f"derived:{name}", _sha256(derived[name].to_json())))

    form = good_basis_form_check(matrix)
    checks.append(("good-basis-form", form is not None,
                   f"ordering={list(form.ordering)} signs={list(form.signs)}"
                   if form else "no pair ordering yields the staircase form"))
    if form is None:
        return Certificate("hypothesis-failed", tuple(checks), tuple(hashes))

    stars = star_entries_zero(matrix)
    checks.append(("star-entries-zero", stars,
                   "" if stars else "nonzero entry outside the pair corners"))
    if not stars:
        return Certificate("hypothesis-failed", tuple(checks), tuple(hashes))

    g = matrix.side // 2
    names = [f"{side}{j}" for j in range(1, g + 1) for side in ("a", "b")]
    missing = [n for n in names if n not in derived]
    if missing:
        checks.append(("derived-diagrams-present", False,
                       f"missing: {', '.join(missing)}"))
        return Certificate("inconclusive", tuple(checks), tuple(hashes))

    failed = False
    tested: dict[LinkDiagram, tuple[bool, MuTable]] = {}
    for name in names:
        # L(beta) passes one diagram as a1 and a2: test each link once
        d = derived[name]
        if d not in tested:
            tested[d] = is_homotopically_trivial(d)
        verdict, table = tested[d]
        witness = ""
        if not verdict:
            bad = [(i, v) for i, (v, _) in table.entries if v != 0]
            i, v = bad[0]
            witness = f"mu-bar{tuple(i)} = {v}"
        checks.append((f"homotopy-trivial:{name}", verdict, witness))
        failed = failed or not verdict
    verdict = "hypothesis-failed" if failed else "certified-freely-slice"
    return Certificate(verdict, tuple(checks), tuple(hashes))


def build_l_beta_bundle(beta: LinkDiagram
                        ) -> tuple[SeifertMatrix, dict[str, LinkDiagram]]:
    """Good-basis matrix and derived links of the doubled link L(beta)."""
    from .seifert import whitehead_double_matrix

    if beta.kind != "string" or beta.n != 2:
        raise StructureError("beta must be a 2-strand string link")
    lk = dg.linking_number(dg.closure(beta), 0, 1)
    if lk != 0:
        raise StructureError(f"closure of beta has linking number {lk}, not 0")
    matrix = whitehead_double_matrix(2, (1, 1))
    b1 = dg.closure(dg.cable(beta, (2, 1)))
    b2 = dg.closure(dg.cable(beta, (1, 2)))
    a = dg.closure(dg.product(dg.split_union(dg.trivial(1), beta),
                              dg.cable(beta, (1, 2))))
    derived = {"b1": b1, "b2": b2, "a1": a, "a2": a}
    return matrix, derived
