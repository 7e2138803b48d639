#!/usr/bin/env python3
"""Walk through the library's headline computations and print the results.

Everything here is deterministic; run it twice and diff the output to check
reproducibility.  Exits nonzero if any claim fails to reproduce.
"""

from __future__ import annotations

import sys

from boundarylink import catalog, diagrams as dg, milnor, seifert, smoves


def section(title: str) -> None:
    print()
    print(f"== {title} ==")


def main() -> int:
    ok = True

    section("catalog")
    for e in catalog.entries():
        print(f"  {e.name:20s} {e.kind:8s} {e.description}")

    section("Milnor invariant table")
    rows = [
        ("hopf", (1, 2)),
        ("whitehead", (1, 2)),
        ("whitehead", (1, 1, 2, 2)),
        ("borromean", (1, 2, 3)),
        ("unlink2", (1, 1, 2, 2)),
    ]
    for name, idx in rows:
        d = catalog.load(name)
        v, ind = milnor.mu_bar(d, idx)
        print(f"  mu-bar{idx} of {name:10s} = {v}  (indeterminacy {ind})")

    section("link-homotopy verdicts")
    for name in ("unlink2", "hopf", "whitehead", "borromean"):
        verdict, _ = milnor.is_homotopically_trivial(catalog.load(name))
        print(f"  {name:10s} homotopically trivial: {verdict}")

    section("homotopically trivial+ pairs (J, J)")
    for name in ("hopf", "whitehead", "unlink2"):
        d = catalog.load(name)
        labels = tuple(lab for lab, _ in d.components)
        verdict, _ = milnor.is_ht_plus_pair(milnor.PairedLink(d, labels))
        lk = dg.linking_number(d, 0, 1)
        print(f"  {name:10s} ht+: {verdict}   (linking number {lk})")
        ok = ok and (verdict == (lk == 0))

    section("S-reduction search")
    wdm = seifert.whitehead_double_matrix(3, (1, 0, 1))
    res = smoves.reduce_to_null(wdm)
    print(f"  doubled 3-component matrix: {res.status}, "
          f"{len(res.sequence.moves)} reductions")
    ok = ok and res.found
    trefoil = catalog.load("trefoil-matrix")
    res = smoves.reduce_to_null(trefoil)
    print(f"  trefoil matrix: {res.status}")
    ok = ok and res.status == "exhausted"

    section("good-basis staircase form")
    form = smoves.good_basis_form_check(wdm)
    print(f"  doubled matrix: ordering={list(form.ordering)} "
          f"signs={list(form.signs)}")
    print(f"  trefoil matrix: {smoves.good_basis_form_check(trefoil)}")

    section("freely-slice certification of the doubled link")
    beta = catalog.load("beta")
    matrix, derived = milnor.build_l_beta_bundle(beta)
    cert = milnor.certify_theorem_A(matrix, derived)
    print(f"  verdict: {cert.verdict}")
    for name, passed, detail in cert.checks:
        extra = f"  [{detail}]" if detail else ""
        print(f"    {name:25s} {'ok' if passed else 'FAIL'}{extra}")
    ok = ok and cert.verdict == "certified-freely-slice"

    section("counterexample bundle: doubling the Borromean rings")
    bor = catalog.load("borromean")
    labels = [lab for lab, _ in bor.components]
    matrix = seifert.whitehead_double_matrix(3, (1, 1, 1))
    derived = {f"{side}{j}": dg.pushoff(bor, lab)
               for j, lab in enumerate(labels, start=1)
               for side in ("a", "b")}
    cert = milnor.certify_theorem_A(matrix, derived)
    print(f"  verdict: {cert.verdict}")
    for name, passed, detail in cert.checks:
        if not passed:
            print(f"    {name}: {detail}")
    ok = ok and cert.verdict == "hypothesis-failed"

    print()
    print("all claims reproduced" if ok else "SOME CLAIMS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
