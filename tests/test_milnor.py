import json
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from boundarylink import catalog, diagrams as dg, magnus, milnor, seifert
from helpers import magnus_expand_dense, mu_bar_per_cap, per_cap_oracle

DATA = Path(__file__).parent / "data"


def test_magnus_expand_basics():
    s = magnus.magnus_expand((1,), 2, 3, reduced=False)
    assert s.as_dict().get((), 0) == 1 and s.as_dict().get((1,), 0) == 1
    inv = magnus.magnus_expand((-1,), 2, 3, reduced=False)
    assert inv.as_dict().get((1,), 0) == -1
    assert inv.as_dict().get((1, 1), 0) == 1
    assert inv.as_dict().get((1, 1, 1), 0) == -1


def test_magnus_commutator_lowest_term():
    # [x1, x2] = 1 + (X1 X2 - X2 X1) + higher order
    s = magnus.magnus_expand((1, 2, -1, -2), 2, 2, reduced=False)
    assert s.as_dict().get((1, 2), 0) == 1
    assert s.as_dict().get((2, 1), 0) == -1
    assert s.as_dict().get((1,), 0) == 0 and s.as_dict().get((2,), 0) == 0


def test_magnus_reduced_drops_repeats():
    s = magnus.magnus_expand((1, 1, 2), 2, 3, reduced=True)
    assert s.as_dict().get((1, 1), 0) == 0
    assert s.as_dict().get((1, 2), 0) == 2


@st.composite
def _word(draw, max_size):
    m = draw(st.integers(1, 5))
    letters = st.integers(1, m).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letters, max_size=max_size).map(tuple)), m


@st.composite
def _word_and_meridian(draw):
    w, m = draw(_word(24))
    return w, m, draw(st.integers(1, m))


@settings(max_examples=150, deadline=None)
@given(_word(24), st.integers(1, 6), st.booleans())
@example(((1, 2, -1, 2, 2, -2, 1), 2), 4, False)
def test_magnus_inverse_law(wm, cap, reduced):
    # the expansion is a group map into the units of either ring
    w, m = wm
    inv = dg.invert_word(w)
    for word in (w + inv, inv + w):
        assert magnus.magnus_expand(word, m, cap, reduced).as_dict() == {(): 1}


@settings(max_examples=150, deadline=None)
@given(_word_and_meridian(), st.integers(1, 4), st.booleans())
def test_deleting_a_meridian_keeps_monomials_without_it(wmc, cap, reduced):
    # x_c -> 1 is a group map and X_c -> 0 a ring map of the truncated and
    # the reduced ring: the expansion of w with +-c deleted is that of w
    # with every monomial holding X_c dropped
    w, m, c = wmc
    full = magnus.magnus_expand(w, m, cap, reduced).as_dict()
    cut = magnus.magnus_expand(milnor._without_meridian(w, c), m, cap,
                               reduced).as_dict()
    assert cut == {k: v for k, v in full.items() if c not in k}


@settings(max_examples=200, deadline=None)
@given(_word(40), st.integers(1, 6), st.booleans())
def test_magnus_matches_dense_oracle(wm, cap, reduced):
    # x_i multiplies by 1 + X_i and x_i^-1 divides by it, each in one pass;
    # the oracle multiplies by 1 + X_i and by the geometric series term by
    # term
    w, m = wm
    assert (magnus.magnus_expand(w, m, cap, reduced).as_dict()
            == magnus_expand_dense(w, m, cap, reduced))


@settings(max_examples=100, deadline=None)
@given(_word(200), st.integers(1, 3), st.booleans())
def test_magnus_coefficients_are_ordered_nonzero_and_exact(wm, cap, reduced):
    # the kernel holds zeros until the end; the series it returns lists its
    # monomials in (degree, key) order and no zero coefficient
    w, m = wm
    coeffs = magnus.magnus_expand(w, m, cap, reduced).coefficients
    keys = [k for k, _ in coeffs]
    assert keys == sorted(keys, key=lambda k: (len(k), k))
    assert all(v for _, v in coeffs)
    assert dict(coeffs) == magnus_expand_dense(w, m, cap, reduced)


def test_magnus_inverse_power_closed_form():
    # x_1^k = (1 + X_1)^k = sum_d C(k, d) X_1^d, for k < 0 the series
    # sum_d (-1)^d C(d - k - 1, d) X_1^d; X_1^2 = 0 in the reduced ring,
    # which leaves 1 + k X_1
    for k in range(-5, 6):
        word = (1 if k > 0 else -1,) * abs(k)
        for cap in range(1, 7):
            full = {(1,) * d: comb(k, d) if k >= 0
                    else (-1) ** d * comb(d - k - 1, d)
                    for d in range(cap + 1)}
            for reduced, want in ((False, full), (True, {(): 1, (1,): k})):
                s = magnus.magnus_expand(word, 1, cap, reduced)
                assert s.as_dict() == {key: v for key, v in want.items()
                                       if v}, (k, cap, reduced)


def test_magnus_rejects_bad_letters():
    with pytest.raises(seifert.StructureError):
        magnus.magnus_expand((3,), 2, 2)
    with pytest.raises(seifert.StructureError):
        magnus.magnus_expand((0,), 2, 2)


# --- mu-bar -----------------------------------------------------------------

def test_mu_hopf():
    h = catalog.load("hopf")
    assert milnor.mu_bar(h, (1, 2)) == (1, 0)
    assert milnor.mu_bar(h, (2, 1)) == (1, 0)


def test_mu_borromean():
    b = catalog.load("borromean")
    v, ind = milnor.mu_bar(b, (1, 2, 3))
    assert abs(v) == 1 and ind == 0
    # all linking numbers vanish
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert milnor.mu_bar(b, (i, j)) == (0, 0)
    # cyclic symmetry of the triple invariant
    assert milnor.mu_bar(b, (2, 3, 1))[0] == v
    assert milnor.mu_bar(b, (3, 1, 2))[0] == v


def test_mu_whitehead():
    w = catalog.load("whitehead")
    assert milnor.mu_bar(w, (1, 2)) == (0, 0)
    v, ind = milnor.mu_bar(w, (1, 1, 2, 2))
    assert abs(v) == 1 and ind == 0


def test_mu_unlink_all_zero():
    u = catalog.load("unlink2")
    for idx in ((1, 2), (2, 1), (1, 1, 2), (1, 2, 2), (1, 1, 2, 2)):
        v, _ = milnor.mu_bar(u, idx)
        assert v == 0


def test_mu_indeterminacy_borromean_length4():
    # with a nonzero triple invariant, length-4 values acquire indeterminacy
    b = catalog.load("borromean")
    _, ind = milnor.mu_bar(b, (1, 2, 2, 3))
    assert ind != 0


def test_mu_indeterminacy_includes_sub_index_indeterminacy():
    # mu-bar(1,2,3) = +-1 makes the length-4 invariants indeterminate mod 1,
    # so every length-5 index above them is indeterminate mod 1 as well
    b = catalog.load("borromean")
    assert milnor.mu_bar(b, (2, 1, 1, 3, 1)) == (0, 1)
    assert milnor.mu_bar(b, (3, 1, 2, 1, 1)) == (0, 1)


A12, A23, A34, A45 = (1, 1), (2, 2), (3, 3), (4, 4)   # Artin generators


def _commutator(u, v):
    return u + v + dg.invert_word(u) + dg.invert_word(v)


def _oracle_links():
    _, derived = milnor.build_l_beta_bundle(catalog.load("beta"))
    commutator = _commutator(_commutator(A12, A23), A12)
    links = {name: catalog.load(name)
             for name in ("whitehead", "borromean", "hopf")}
    links.update(a1=derived["a1"], b2=derived["b2"],
                 commutator=dg.closure(dg.braid(3, list(commutator))))
    return links


def test_mu_matches_per_cap_oracle():
    # one expansion per component, read at every cap and ring the recursion
    # needs, equals a separate expansion per (component, cap, ring)
    rng = random.Random(20181)
    links = _oracle_links()
    for name, d in links.items():
        for length in range(2, 6):
            indices = [tuple(rng.randint(1, d.n) for _ in range(length))]
            if length <= d.n:
                indices.append(tuple(rng.sample(range(1, d.n + 1), length)))
            for i in indices:
                assert milnor.mu_bar(d, i) == mu_bar_per_cap(d, i), (name, i)
    # longitude words from too few sweeps (two) get these two wrong
    assert milnor.mu_bar(links["b2"], (1, 2, 2, 3, 2)) == (0, 0)
    assert milnor.mu_bar(links["b2"], (1, 2, 3, 2, 3)) == (0, 0)


def test_mu_deeper_words_change_nothing():
    rng = random.Random(7)
    for d in _oracle_links().values():
        for length in (2, 3, 4):
            i = tuple(rng.randint(1, d.n) for _ in range(length))
            assert milnor.mu_bar(d, i) == mu_bar_per_cap(d, i, depth=len(i) + 2)


def test_ht_table_matches_deeper_per_cap_oracle():
    # every entry of the homotopy table, read after n sweeps, equals the
    # per-cap oracle on words two sweeps deeper than its index needs
    beta = catalog.load("beta")
    links = {
        "borromean": catalog.load("borromean"),
        "cable22": dg.closure(dg.cable(beta, (2, 2))),
        "cable23": dg.closure(dg.cable(beta, (2, 3))),
        "pure3": _oracle_links()["commutator"],
        "pure4": dg.closure(dg.braid(4, list(
            _commutator(_commutator(A12, A23), A34)))),
    }
    lengths = set()
    for name, d in links.items():
        _, table = milnor.is_homotopically_trivial(d)
        oracles = {}
        for i, entry in table.entries:
            if len(i) not in oracles:
                oracles[len(i)] = per_cap_oracle(d, len(i) + 2)
            assert entry == oracles[len(i)](i), (name, i)
        lengths.add(max(oracles))
    # the checks reach indices of length 4 and beyond
    assert max(lengths) >= 4


def test_mu_expands_each_component_once(monkeypatch):
    calls = []

    def counting(w, m, cap, reduced=True):
        calls.append((cap, reduced))
        return magnus.magnus_expand(w, m, cap, reduced)

    monkeypatch.setattr(milnor, "magnus_expand", counting)
    b = catalog.load("borromean")
    milnor.mu_bar(b, (3, 2, 3, 1, 2))
    # component 2 ends the index (cap 4); 1 and 3 end sub-indices (cap 3);
    # each has a sub-index whose monomial repeats a variable
    assert sorted(calls) == [(3, False), (3, False), (4, False)]
    calls.clear()
    milnor.mu_bar(b, (1, 2, 3))
    assert sorted(calls) == [(1, True), (1, True), (2, True)]


def test_longitudes_per_component_depth_is_a_snapshot():
    d = _oracle_links()["b2"]
    mixed = dg.wirtinger_longitudes(d, (3, 4, 2))
    for s, depth in enumerate((3, 4, 2)):
        assert mixed[s] == dg.wirtinger_longitudes(d, depth)[s]
    with pytest.raises(seifert.StructureError):
        dg.wirtinger_longitudes(d, (3, 4))
    with pytest.raises(seifert.StructureError):
        dg.wirtinger_longitudes(d, (3, 1, 4))


def test_mu_rejects_bad_index():
    h = catalog.load("hopf")
    for index in ((1,), (1, 3), (1.9, 2), ("1", 2), (True, 2)):
        with pytest.raises(seifert.StructureError):
            milnor.mu_bar(h, index)


def test_mu_table_json_stable():
    h = catalog.load("hopf")
    t = milnor.MuTable(tuple(
        (idx, milnor.mu_bar(h, idx)) for idx in ((1, 2), (2, 1))))
    doc = json.loads(t.to_json())
    assert doc == json.loads(t.to_json())


# --- homotopy triviality ----------------------------------------------------

def test_homotopy_verdicts():
    assert milnor.is_homotopically_trivial(catalog.load("whitehead"))[0]
    assert not milnor.is_homotopically_trivial(catalog.load("borromean"))[0]
    assert not milnor.is_homotopically_trivial(catalog.load("hopf"))[0]
    assert milnor.is_homotopically_trivial(catalog.load("unlink2"))[0]


def test_ht_table_of_five_component_closure_is_pinned():
    # the closure of [[A12, A23], [A34, A45]]: 32 crossings, 320 entries of
    # which 40 are nonzero; longitude words from two sweeps get 16 wrong
    word = _commutator(_commutator(A12, A23), _commutator(A34, A45))
    d = dg.closure(dg.braid(5, list(word)))
    assert len(d.crossings) == 32
    verdict, table = milnor.is_homotopically_trivial(d)
    assert not verdict
    assert table.to_json() + "\n" == \
        (DATA / "ht-pure5-table.json").read_text()


def test_ht_table_of_cable44_closure_is_pinned():
    # closure(cable(beta, (4, 4))): 8 components, 92 crossings; length 4
    # is the first with a nonzero entry, so the table has 2,072 entries
    d = dg.closure(dg.cable(catalog.load("beta"), (4, 4)))
    assert (d.n, len(d.crossings)) == (8, 92)
    verdict, table = milnor.is_homotopically_trivial(d)
    assert not verdict and len(table.entries) == 2072
    assert table.to_json() + "\n" == \
        (DATA / "ht-cable44-table.json").read_text()


def test_homotopy_witness_is_first_failure():
    verdict, table = milnor.is_homotopically_trivial(catalog.load("hopf"))
    assert not verdict
    bad = [(i, v) for i, (v, _) in table.entries if v != 0]
    assert bad[0] == ((1, 2), 1)


def test_ht_plus_whitehead_pair():
    w = catalog.load("whitehead")
    ok, results = milnor.is_ht_plus_pair(milnor.PairedLink(w, ("1", "2")))
    assert ok
    assert set(results) == {"1", "2"}


def test_ht_plus_fails_on_hopf():
    h = catalog.load("hopf")
    ok, _ = milnor.is_ht_plus_pair(milnor.PairedLink(h, ("1", "2")))
    assert not ok


def test_ht_plus_ramification_consistency():
    # if J is K plus a zero-framed parallel copy of a component (a
    # ramification), the pair (J, K) is ht+ exactly when (K, K) is
    for name, expect in (("whitehead", True), ("unlink2", True), ("hopf", False)):
        k = catalog.load(name)
        labels = tuple(lab for lab, _ in k.components)
        base, _ = milnor.is_ht_plus_pair(milnor.PairedLink(k, labels))
        j = dg.pushoff(k, labels[0])
        ram_ok, _ = milnor.is_ht_plus_pair(milnor.PairedLink(j, labels))
        assert ram_ok == base == expect


# --- certification ----------------------------------------------------------

def _good_matrix(m):
    return seifert.whitehead_double_matrix(m, (1,) * m)


def test_star_entries_zero():
    mat = _good_matrix(2)
    assert milnor.star_entries_zero(mat)


def test_certificate_requires_derived_diagrams():
    matrix, _ = milnor.build_l_beta_bundle(catalog.load("beta"))
    cert = milnor.certify_theorem_A(matrix, {})
    assert cert.verdict == "inconclusive"


def test_l_beta_bundle_certifies():
    matrix, derived = milnor.build_l_beta_bundle(catalog.load("beta"))
    cert = milnor.certify_theorem_A(matrix, derived)
    assert cert.verdict == "certified-freely-slice"
    assert all(passed for _, passed, _ in cert.checks)


def test_certify_tests_each_distinct_link_once(monkeypatch):
    # L(beta) passes one diagram as a1 and a2: 4 names, 3 distinct links
    matrix, derived = milnor.build_l_beta_bundle(catalog.load("beta"))
    assert len(derived) == 4 and len(set(derived.values())) == 3
    real = milnor.is_homotopically_trivial
    calls = []
    monkeypatch.setattr(milnor, "is_homotopically_trivial",
                        lambda d: calls.append(d) or real(d))
    cert = milnor.certify_theorem_A(matrix, derived)
    assert len(calls) == 3
    assert [n for n, _, _ in cert.checks if n.startswith("homotopy")] == [
        "homotopy-trivial:a1", "homotopy-trivial:b1",
        "homotopy-trivial:a2", "homotopy-trivial:b2"]
    assert cert.verdict == "certified-freely-slice"


def test_certificate_json_embeds_hashes_and_version():
    matrix, derived = milnor.build_l_beta_bundle(catalog.load("beta"))
    cert = milnor.certify_theorem_A(matrix, derived)
    doc = json.loads(cert.to_json())
    assert doc["version"]
    assert doc["inputs"]
    assert doc["verdict"] == "certified-freely-slice"


def test_build_l_beta_bundle_rejects_linking():
    hopf_string = dg.braid(2, [1, 1])
    with pytest.raises(seifert.StructureError):
        milnor.build_l_beta_bundle(hopf_string)
