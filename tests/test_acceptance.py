"""The eight acceptance checks for the whole package, one test each.

Every randomized check uses a fixed seed so the run is reproducible; the
timed checks assert the documented wall-clock budgets.
"""

import json
import random
import time

from boundarylink import (catalog, cli, diagrams as dg, magnus, milnor,
                          seifert, smoves)
from helpers import rand_congruence, rand_enlargement, rand_valid_matrix
from test_smoves import staircase


def test_01_move_round_trip_1000():
    rng = random.Random(1001)
    t0 = time.monotonic()
    for _ in range(1000):
        a = rand_valid_matrix(rng, max_m=3, max_side=8, mag=4)
        e = rand_enlargement(a, rng, mag=4)
        b = smoves.apply_enlargement(a, e)
        assert smoves.apply_reduction(b, e) == a
    assert time.monotonic() - t0 < 5.0


def test_02_local_minimum_rearrangement_200():
    rng = random.Random(1002)
    for trial in range(200):
        m = 2 if trial % 2 == 0 else 3
        c = rand_valid_matrix(rng, max_m=m, max_side=6, mag=3)
        red = rand_enlargement(c, rng, mag=3)
        a = smoves.apply_enlargement(c, red)
        p = rand_congruence(c, rng)
        c2 = smoves.apply_congruence(c, p)
        enl = rand_enlargement(c2, rng, mag=3)
        b = smoves.apply_enlargement(c2, enl)
        w = smoves.replace_min_by_max(a, c, c2, b, red, p, enl)
        # both witnesses replay: D enlarges A, and Q^T D Q enlarges B
        d = smoves.apply_enlargement(a, w.enlarge_a)
        assert d == w.d
        qtdq = smoves.apply_congruence(d, w.q)
        assert smoves.apply_enlargement(b, w.enlarge_b) == qtdq


def _random_sequence(rng, max_moves=6):
    start = rand_valid_matrix(rng, max_m=2, max_side=4, mag=2)
    moves = []
    cur = start
    for _ in range(rng.randrange(max_moves + 1)):
        choice = rng.random()
        reds = smoves.find_reductions(cur)
        if choice < 0.4 and reds:
            r = rng.choice(reds)
            moves.append(smoves.Reduce(r.k, r.offset, r.swapped))
        elif choice < 0.7:
            moves.append(rand_enlargement(cur, rng, mag=2))
        else:
            moves.append(rand_congruence(cur, rng))
        cur = smoves.apply_move(cur, moves[-1])
    return smoves.MoveSequence(start, tuple(moves))


def test_04_normalization_100():
    rng = random.Random(1004)
    for _ in range(100):
        seq = _random_sequence(rng)
        norm = smoves.normalize_sequence(seq)
        assert norm.start == seq.start
        assert norm.end == seq.end
        assert smoves.is_monotone(norm)


def test_05_good_basis_form():
    for m in range(1, 5):
        for bits in range(2 ** m):
            eps = tuple((bits >> i) & 1 for i in range(m))
            t0 = time.monotonic()
            form = smoves.good_basis_form_check(
                seifert.whitehead_double_matrix(m, eps))
            assert time.monotonic() - t0 < 1.0
            assert form is not None
            assert form.ordering == tuple(range(m))
            assert form.signs == eps
    t0 = time.monotonic()
    assert smoves.good_basis_form_check(catalog.load("trefoil-matrix")) is None
    assert time.monotonic() - t0 < 1.0
    t0 = time.monotonic()
    assert smoves.good_basis_form_check(staircase(3, eps=1, star=7)) is not None
    assert time.monotonic() - t0 < 1.0


# --- independent oracle for criterion 6 --------------------------------------
#
# The Whitehead-link longitude is recomputed here from scratch: the crossing
# relations below were read off the bundled diagram by hand (arc names a, a'
# on component 1 and b, b', b'' on component 2), the unknown arcs are solved
# by level-wise substitution (exact modulo the lower central series at each
# level), and the Magnus expansion is a separate brute-force implementation.
# None of the library's arc-walking or series code is used.

def _inv(w):
    return tuple((g, -e) for (g, e) in reversed(w))


def _subst(w, env):
    out = []
    for g, e in w:
        if g in env:
            out.extend(env[g] if e > 0 else _inv(env[g]))
        else:
            out.append((g, e))
    return tuple(out)


def _whitehead_arcs(levels):
    # relations at the five crossings, base arcs pinned to the meridians:
    #   a  = x,   b = y
    #   a' = b'' a b''^-1        (negative crossing, over-arc b'')
    #   b' = a'^-1 b a'          (positive crossing, over-arc a')
    #   b''= a b' a^-1           (negative crossing, over-arc a)
    env = {"A": (("x", 1),), "B": (("y", 1),), "C": (("y", 1),)}
    for _ in range(levels):
        env = {
            "A": _subst((("C", 1), ("x", 1), ("C", -1)), env),
            "B": _subst((("A", -1), ("y", 1), ("A", 1)), env),
            "C": _subst((("x", 1), ("B", 1), ("x", -1)), env),
        }
    return env


def _brute_magnus(word, deg):
    # x -> 1 + X, x^-1 -> 1 - X + X^2 - ... , truncated above degree deg
    gens = ("x", "y")
    series = {(): 1}
    for g, e in word:
        i = gens.index(g)
        for _ in range(abs(e)):
            if e > 0:
                factor = {(): 1, (i,): 1}
            else:
                factor = {(): 1}
                for d in range(1, deg + 1):
                    factor[(i,) * d] = (-1) ** d
            out = {}
            for k1, c1 in series.items():
                for k2, c2 in factor.items():
                    key = k1 + k2
                    if len(key) <= deg:
                        out[key] = out.get(key, 0) + c1 * c2
            series = out
    return series


def _oracle_whitehead():
    env = _whitehead_arcs(5)
    # longitude of component 2: over-arcs a', a^-1, b'^-1 at its three
    # under-passages, then the zero-framing correction in y
    lon = env["A"] + (("x", -1),) + _inv(env["B"])
    e = sum(v for g, v in lon if g == "y")
    lon = lon + (("y", -e),)
    series = _brute_magnus(lon, 4)
    return series.get((0,), 0), series.get((0, 0, 1), 0)


def test_06_mu_oracle_table():
    t0 = time.monotonic()
    hopf = catalog.load("hopf")
    v, indet = milnor.mu_bar(hopf, (1, 2))
    assert abs(v) == 1 and indet == 0
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    w = catalog.load("whitehead")
    assert milnor.mu_bar(w, (1, 2)) == (0, 0)
    sato_levine, indet = milnor.mu_bar(w, (1, 1, 2, 2))
    assert abs(sato_levine) == 1 and indet == 0
    # independent recomputation: hand-derived longitude, separate expander
    o12, o1122 = _oracle_whitehead()
    assert o12 == 0
    assert o1122 == sato_levine
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    bor = catalog.load("borromean")
    v, indet = milnor.mu_bar(bor, (1, 2, 3))
    assert abs(v) == 1 and indet == 0
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    unlink = catalog.load("unlink2")
    for idx in ((1, 2), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2), (1, 2, 1, 2)):
        assert milnor.mu_bar(unlink, idx)[0] == 0
    assert time.monotonic() - t0 < 1.0


def test_07_homotopy_verdicts():
    t0 = time.monotonic()
    assert milnor.is_homotopically_trivial(catalog.load("whitehead"))[0]
    assert not milnor.is_homotopically_trivial(catalog.load("borromean"))[0]
    # (J,J) ht+ must agree with the two-component fact: a 2-component link
    # is ht+ exactly when its linking number vanishes
    beta = catalog.load("beta")
    two_component = {
        "hopf": catalog.load("hopf"),
        "whitehead": catalog.load("whitehead"),
        "unlink2": catalog.load("unlink2"),
        "beta-closure": dg.closure(beta),
        "beta-squared-closure": dg.closure(dg.product(beta, beta)),
    }
    assert len(two_component) == 5
    for name, d in two_component.items():
        assert d.n == 2
        lk = dg.linking_number(d, 0, 1)
        labels = tuple(lab for lab, _ in d.components)
        ok, _ = milnor.is_ht_plus_pair(milnor.PairedLink(d, labels))
        assert ok == (lk == 0), name
    assert time.monotonic() - t0 < 5.0


def test_08_end_to_end_theorem_a(tmp_path):
    # positive side: the bundled doubled link certifies, exit code 0, and
    # every derived-link homotopy table is all-zero on non-repeating indices
    t0 = time.monotonic()
    beta_path = tmp_path / "beta.json"
    beta_path.write_text(catalog.raw_payload("beta"))
    outdir = tmp_path / "bundle"
    assert cli.main(["lbeta", str(beta_path), "--outdir", str(outdir)]) == 0
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["verdict"] == "certified-freely-slice"
    matrix, derived = milnor.build_l_beta_bundle(catalog.load("beta"))
    for name, d in derived.items():
        verdict, table = milnor.is_homotopically_trivial(d)
        assert verdict, name
        assert all(v == 0 for _, (v, _) in table.entries)
    assert time.monotonic() - t0 < 30.0

    # negative side: doubling the Borromean rings fails the hypotheses with
    # a triple Milnor invariant on the three original circles as witness
    t0 = time.monotonic()
    bor = catalog.load("borromean")
    labels = [lab for lab, _ in bor.components]
    matrix = seifert.whitehead_double_matrix(3, (1, 1, 1))
    derived = {}
    for j, lab in enumerate(labels, start=1):
        d = dg.pushoff(bor, lab)
        derived[f"a{j}"] = d
        derived[f"b{j}"] = d
    cert = milnor.certify_theorem_A(matrix, derived)
    assert cert.verdict == "hypothesis-failed"
    failing = [(n, det) for n, passed, det in cert.checks if not passed]
    assert failing
    for name, detail in failing:
        assert detail.startswith("mu-bar(")
        index = tuple(int(t) for t in
                      detail.split("(")[1].split(")")[0].split(","))
        value = int(detail.split("=")[1])
        assert len(index) == 3 and abs(value) == 1
        # the witness strands are the three distinct original circles
        diagram = derived[name.split(":")[1]]
        witness_labels = {diagram.components[i - 1][0] for i in index}
        assert witness_labels == set(labels)
    assert time.monotonic() - t0 < 30.0


def test_09_determinism(tmp_path):
    beta_path = tmp_path / "beta.json"
    beta_path.write_text(catalog.raw_payload("beta"))
    runs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        assert cli.main(["lbeta", str(beta_path), "--outdir", str(outdir)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    assert runs[0] == runs[1]

    wdm_path = tmp_path / "wdm.json"
    wdm_path.write_text(catalog.raw_payload("wh-double-matrix"))
    moves = []
    for tag in ("m1.json", "m2.json"):
        out = tmp_path / tag
        assert cli.main(["reduce", str(wdm_path), "--out", str(out)]) == 0
        moves.append(out.read_bytes())
    assert moves[0] == moves[1]

    # library-level determinism of the randomized helpers
    a1 = rand_valid_matrix(random.Random(99))
    a2 = rand_valid_matrix(random.Random(99))
    assert a1 == a2
