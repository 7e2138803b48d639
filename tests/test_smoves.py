import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from boundarylink import catalog, seifert, smoves
from helpers import (blocked_pairs_matrix, good_basis_form_backtrack,
                     rand_congruence, rand_enlargement,
                     rand_perturbed_doubled_matrix, rand_valid_matrix)


def staircase(g: int, eps: int = 1, star: int = 7) -> seifert.SeifertMatrix:
    """One-component staircase matrix: g corner pairs, star entries between
    the second coordinates of distinct pairs, first coordinates isolated."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        rows[a][b] = eps
        rows[b][a] = 1 - eps
        for j in range(i + 1, g):
            b2 = 2 * j + 1
            rows[b][b2] = rows[b2][b] = star
    return seifert.SeifertMatrix(1, (n,), tuple(tuple(r) for r in rows))


# --- congruence ------------------------------------------------------------

def test_congruence_identity_and_inverse():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_valid_matrix(rng)
        p = rand_congruence(a, rng)
        b = smoves.apply_congruence(a, p)
        assert seifert.is_valid(b)
        assert smoves.apply_congruence(b, p.inverse()) == a
        assert smoves.apply_congruence(a, smoves.Congruence.identity(a)) == a


def test_congruence_block_shape_mismatch():
    a = seifert.whitehead_double_matrix(2, (1, 1))
    bad = smoves.Congruence((((1,),), ((1, 0), (0, 1))))
    with pytest.raises(smoves.ReplayError):
        smoves.apply_congruence(a, bad)


def test_congruence_compose_matches_sequential_application():
    rng = random.Random(12)
    a = rand_valid_matrix(rng, max_m=2)
    p = rand_congruence(a, rng)
    q = rand_congruence(a, rng)
    lhs = smoves.apply_congruence(smoves.apply_congruence(a, p), q)
    assert smoves.apply_congruence(a, p.compose(q)) == lhs


# --- enlargement / reduction ------------------------------------------------

def test_enlargement_smallest_case():
    a = seifert.null_matrix(1)
    e = smoves.Enlargement(k=0, eps=(1, 0), rows=((),))
    b = smoves.apply_enlargement(a, e)
    assert b.block_sizes == (2,)
    assert b.entries == ((0, 0), (1, 0))
    assert smoves.apply_reduction(b, e) == a


def test_enlargement_offset_and_swap_positions():
    a = seifert.whitehead_double_matrix(1, (1,))
    e = smoves.Enlargement(k=0, eps=(0, 1), rows=((3, -2),), offset=1,
                           swapped=True)
    b = smoves.apply_enlargement(a, e)
    assert b.block_sizes == (4,)
    # swapped: witness row first (position 1), zero row second (position 2)
    assert b.entries[1] == (3, 0, 0, -2)
    assert b.entries[2] == (0, 1, 0, 0)
    assert b.entries[0][1] == 3 and b.entries[3][1] == -2
    assert smoves.apply_reduction(b, e) == a


def test_reduction_witness_rejects_broken_pattern():
    a = seifert.whitehead_double_matrix(1, (1,))
    e = smoves.Enlargement(k=0, eps=(1, 0), rows=((1, 2),))
    b = smoves.apply_enlargement(a, e)
    rows = [list(r) for r in b.entries]
    rows[0][2] = 9          # damage the zero row
    broken = seifert.SeifertMatrix(b.m, b.block_sizes,
                                   tuple(tuple(r) for r in rows))
    with pytest.raises(smoves.ReplayError):
        smoves.reduction_witness(broken, 0, 0)


def test_find_reductions_counts():
    wdm2 = seifert.whitehead_double_matrix(2, (1, 0))
    assert len(smoves.find_reductions(wdm2)) == 2
    trefoil = catalog.load("trefoil-matrix")
    assert smoves.find_reductions(trefoil) == []


def test_find_reductions_reports_zero_witness_once():
    # for a zero witness row the swapped and unswapped patterns coincide;
    # only one is reported per slot
    b = smoves.apply_enlargement(seifert.null_matrix(1),
                                 smoves.Enlargement(k=0, eps=(1, 0), rows=((),)))
    reds = smoves.find_reductions(b)
    assert len(reds) == 1 and reds[0].swapped is False


def test_reduce_to_null_staircase():
    res = smoves.reduce_to_null(staircase(3))
    assert res.status == "found"
    assert len(res.sequence.moves) == 3
    assert res.sequence.replay()[-1] == seifert.null_matrix(1)


def test_reduce_to_null_wdm():
    wdm3 = seifert.whitehead_double_matrix(3, (1, 0, 1))
    res = smoves.reduce_to_null(wdm3)
    assert res.status == "found"
    assert res.sequence.replay()[-1] == seifert.null_matrix(3)


def test_reduce_to_null_trefoil_exhausted():
    res = smoves.reduce_to_null(catalog.load("trefoil-matrix"))
    assert res.status == "exhausted"


def test_reduce_to_null_budget():
    res = smoves.reduce_to_null(staircase(3), budget=1)
    assert res.status == "budget"
    assert res.status == "budget"


# --- rearrangement lemmas ---------------------------------------------------

def _random_min_shape(rng):
    """A local size minimum: A reduces to C, C is congruent to C', C'
    enlarges to B."""
    c = rand_valid_matrix(rng, max_m=2, max_side=4, mag=2)
    red = rand_enlargement(c, rng, mag=2)
    a = smoves.apply_enlargement(c, red)     # reducing A by red gives C
    p = rand_congruence(c, rng)
    c2 = smoves.apply_congruence(c, p)
    enl = rand_enlargement(c2, rng, mag=2)
    b = smoves.apply_enlargement(c2, enl)
    return a, c, c2, b, red, p, enl


def test_replace_min_by_max_random():
    rng = random.Random(21)
    for _ in range(30):
        a, c, c2, b, red, p, enl = _random_min_shape(rng)
        w = smoves.replace_min_by_max(a, c, c2, b, red, p, enl)
        d = smoves.apply_enlargement(a, w.enlarge_a)
        assert d == w.d
        assert d.side == a.side + 2 == b.side + 2
        # Q^T D Q reduces back to B via the second witness
        qtdq = smoves.apply_congruence(d, w.q)
        back = smoves.apply_reduction(qtdq, w.enlarge_b)
        assert back == b


# --- normalization ----------------------------------------------------------

def _random_sequence(rng, max_moves=6):
    start = rand_valid_matrix(rng, max_m=2, max_side=4, mag=2)
    mats = [start]
    moves = []
    for _ in range(rng.randrange(max_moves + 1)):
        cur = mats[-1]
        kind = rng.random()
        reds = smoves.find_reductions(cur)
        if kind < 0.4 and reds:
            r = rng.choice(reds)
            moves.append(smoves.Reduce(r.k, r.offset, r.swapped))
        elif kind < 0.7:
            moves.append(rand_enlargement(cur, rng, mag=2))
        else:
            moves.append(rand_congruence(cur, rng))
        mats.append(smoves.apply_move(cur, moves[-1]))
    return smoves.MoveSequence(start, tuple(moves))


def test_normalize_sequence_random():
    rng = random.Random(31)
    for _ in range(40):
        seq = _random_sequence(rng)
        norm = smoves.normalize_sequence(seq)
        assert norm.start == seq.start
        assert norm.replay()[-1] == seq.replay()[-1]
        assert smoves.is_monotone(norm)


def test_is_monotone_flags_min():
    a = seifert.null_matrix(1)
    e = smoves.Enlargement(k=0, eps=(1, 0), rows=((),))
    b = smoves.apply_enlargement(a, e)
    seq = smoves.MoveSequence(b, (smoves.Reduce(0, 0), e))
    assert not smoves.is_monotone(seq)
    assert smoves.is_monotone(smoves.normalize_sequence(seq))


# --- good basis form --------------------------------------------------------

def test_good_basis_identity_ordering():
    for m in (1, 2, 3):
        eps = tuple((i % 2) for i in range(m))
        form = smoves.good_basis_form_check(
            seifert.whitehead_double_matrix(m, eps))
        assert form is not None
        assert form.ordering == tuple(range(m))
        assert form.signs == eps


def test_good_basis_rejects_trefoil():
    assert smoves.good_basis_form_check(catalog.load("trefoil-matrix")) is None


def test_good_basis_staircase():
    form = smoves.good_basis_form_check(staircase(3, eps=0))
    assert form is not None


def test_good_basis_rejects_asymmetric_witness():
    # corner pattern present but the witness row/column disagree
    rows = ((0, 1, 0, 5),
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (4, 0, 0, 0))
    a = seifert.SeifertMatrix(1, (4,), rows)
    assert smoves.good_basis_form_check(a) is None



def test_good_basis_matches_backtracking_oracle():
    rng = random.Random(2025)
    accepted = reordered = 0
    for _ in range(2000):
        a = rand_perturbed_doubled_matrix(rng)
        form = smoves.good_basis_form_check(a)
        assert form == good_basis_form_backtrack(a)
        if form is not None:
            accepted += 1
            reordered += form.ordering != tuple(sorted(form.ordering))
    assert 200 < accepted < 1800
    assert reordered > 0


@pytest.mark.parametrize("g", [5, 6, 7])
def test_good_basis_reject_family_matches_oracle(g):
    a = blocked_pairs_matrix(random.Random(g), g)
    assert good_basis_form_backtrack(a) is None
    assert smoves.good_basis_form_check(a) is None


def test_good_basis_reject_family_is_polynomial():
    a = blocked_pairs_matrix(random.Random(12), 12)
    t0 = time.monotonic()
    assert smoves.good_basis_form_check(a) is None
    assert time.monotonic() - t0 < 1.0

# --- serialization ----------------------------------------------------------

def test_moves_json_round_trip():
    rng = random.Random(41)
    seq = _random_sequence(rng)
    text = smoves.moves_to_json(seq.moves)
    again = smoves.moves_from_json(text)
    assert again == seq.moves
    assert smoves.moves_to_json(again) == text


def test_moves_from_json_rejects_garbage():
    with pytest.raises(seifert.StructureError):
        smoves.moves_from_json("][")
    with pytest.raises(seifert.StructureError):
        smoves.moves_from_json('[{"type": "mystery"}]')


def test_move_keys_are_exact():
    # offset and swapped may be left out where they have defaults; a key
    # no move kind defines is refused
    assert smoves.moves_from_json(
        '[{"move": "enlarge", "k": 0, "eps": [1, 0], "rows": [[0]]},'
        ' {"move": "reduce", "k": 0, "offset": 0}]') == (
        smoves.Enlargement(0, (1, 0), ((0,),)), smoves.Reduce(0, 0))
    for doc in ('[{"move": "reduce", "k": 0, "offset": 0, "note": ""}]',
                '[{"move": "enlarge", "k": 0, "eps": [1, 0], "rows": [[0]],'
                ' "swap": true}]',
                '[{"move": "congruence", "blocks": [], "moves": []}]'):
        with pytest.raises(seifert.StructureError, match="unknown"):
            smoves.moves_from_json(doc)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 62))
def test_enlarge_reduce_round_trip_property(seed):
    rng = random.Random(seed)
    a = rand_valid_matrix(rng)
    e = rand_enlargement(a, rng)
    b = smoves.apply_enlargement(a, e)
    assert seifert.is_valid(b)
    assert smoves.apply_reduction(b, e) == a
    # the witness can be rediscovered from the enlarged matrix alone
    w = smoves.reduction_witness(b, e.k, e.offset, e.swapped)
    assert smoves.apply_reduction(b, w) == a


def test_congruence_refuses_non_integer_entries():
    for block in (((1.0, 0), (0, 1)), ((1, 0), (0, True)),
                  ((1, 0), ("0", 1))):
        with pytest.raises(seifert.StructureError):
            smoves.Congruence((block,))
    assert smoves.Congruence(([[1, 0], [0, 1]],)).blocks == (((1, 0), (0, 1)),)


def test_enlargement_refuses_non_integer_values():
    # int() would turn eps (1.0, 0) and row (2.7, 0) into (1, 0) and (2, 0)
    for kwargs in (dict(eps=(1.0, 0), rows=((2, 0),)),
                   dict(eps=(1, 0), rows=((2.7, 0),)),
                   dict(eps=(True, 0), rows=((2, 0),)),
                   dict(eps=(1, 0), rows=((2, "0"),)),
                   dict(eps=(1, 0), rows=((2, 0),), offset=0.0)):
        with pytest.raises(seifert.StructureError):
            smoves.Enlargement(k=0, **kwargs)
    with pytest.raises(seifert.StructureError):
        smoves.Enlargement(k=0.0, eps=(1, 0), rows=((2, 0),))
