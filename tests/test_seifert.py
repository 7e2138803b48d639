import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from boundarylink import seifert
from helpers import rand_valid_matrix


def test_null_matrix_is_valid():
    for m in range(1, 5):
        mat = seifert.null_matrix(m)
        assert mat.m == m
        assert mat.side == 0
        assert seifert.is_valid(mat)


def test_whitehead_double_matrix_shape():
    mat = seifert.whitehead_double_matrix(2, (1, 1))
    assert mat.block_sizes == (2, 2)
    assert seifert.is_valid(mat)
    assert mat.block(0, 0) == ((0, 1), (0, 0))
    # off-diagonal blocks are mutual transposes and zero here
    assert mat.block(0, 1) == ((0, 0), (0, 0))


def test_whitehead_double_matrix_eps_zero():
    mat = seifert.whitehead_double_matrix(1, (0,))
    assert mat.block(0, 0) == ((0, 0), (1, 0))
    assert seifert.is_valid(mat)


def test_whitehead_double_matrix_refuses_non_integer_signs():
    for eps in ((1.9,), ("1",), (True,)):
        with pytest.raises(seifert.StructureError):
            seifert.whitehead_double_matrix(1, eps)
    with pytest.raises(seifert.StructureError):
        seifert.whitehead_double_matrix(1, (1,), (0.0,))


def test_validate_reports_offdiagonal_violation():
    bad = seifert.SeifertMatrix(
        m=2, block_sizes=(2, 2),
        entries=(
            (0, 1, 5, 0),
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 0, 0),
        ))
    rep = seifert.validate(bad)
    assert not rep.valid
    assert any(v.rule == "offdiagonal-transpose" for v in rep.violations)


def test_validate_reports_nonunimodular_intersection():
    bad = seifert.SeifertMatrix(
        m=1, block_sizes=(2,),
        entries=((0, 2), (0, 0)))
    rep = seifert.validate(bad)
    assert not rep.valid
    assert any(v.rule == "diagonal-unimodular" for v in rep.violations)


def test_odd_block_size_rejected():
    bad = seifert.SeifertMatrix(m=1, block_sizes=(3,),
                                entries=tuple((0,) * 3 for _ in range(3)))
    assert not seifert.is_valid(bad)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        mat = rand_valid_matrix(rng)
        again = seifert.SeifertMatrix.from_json(mat.to_json())
        assert again == mat
        # serialization is stable
        assert again.to_json() == mat.to_json()


def test_from_json_rejects_garbage():
    with pytest.raises(seifert.StructureError):
        seifert.SeifertMatrix.from_json("{not json")
    with pytest.raises(seifert.StructureError):
        seifert.SeifertMatrix.from_json(json.dumps({"m": 1}))
    with pytest.raises(seifert.StructureError):
        seifert.SeifertMatrix.from_json(
            json.dumps({"m": 1, "block_sizes": [2], "rows": [[0, 1]]}))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 62))
def test_random_valid_generator_agrees_with_validate(seed):
    mat = rand_valid_matrix(random.Random(seed))
    rep = seifert.validate(mat)
    assert rep.valid and not rep.violations


def test_constructor_refuses_non_integer_values():
    # int() would truncate these to a valid-looking matrix
    for m, sizes, entries in ((1, (2.0,), ((0, 1), (0, 0))),
                              (1, (2,), ((0, 1.9), (0, 0))),
                              (1, (2,), ((0, True), (0, 0))),
                              (1, (2,), ((0, "1"), (0, 0))),
                              (1.0, (2,), ((0, 1), (0, 0)))):
        with pytest.raises(seifert.StructureError):
            seifert.SeifertMatrix(m, sizes, entries)
    ok = seifert.SeifertMatrix(1, [2], [[0, 1], [0, 0]])
    assert ok.block_sizes == (2,) and ok.entries == ((0, 1), (0, 0))
