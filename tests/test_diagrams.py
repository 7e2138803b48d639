import json

import pytest

from boundarylink import catalog, diagrams as dg, seifert


def hopf() -> dg.LinkDiagram:
    return dg.closure(dg.braid(2, [1, 1]))


def test_trivial_and_braid_shapes():
    t = dg.trivial(3)
    assert t.kind == "string" and t.n == 3 and t.crossings == ()
    b = dg.braid(3, [1, 1, 2, 2])
    assert b.n == 3 and len(b.crossings) == 4


def test_braid_rejects_non_pure_word():
    with pytest.raises(ValueError):
        dg.braid(2, [1])            # a single crossing permutes the strands


def test_product_identity():
    beta = catalog.load("beta")
    assert dg.product(dg.trivial(beta.n), beta) == beta
    prod = dg.product(beta, beta)
    assert len(prod.crossings) == 2 * len(beta.crossings)


def test_product_requires_matching_labels():
    with pytest.raises(ValueError):
        dg.product(dg.trivial(2), dg.trivial(3))


def test_split_union_components_disjoint():
    beta = catalog.load("beta")
    u = dg.split_union(dg.trivial(1), beta)
    assert u.n == beta.n + 1
    labels = [lab for lab, _ in u.components]
    assert len(set(labels)) == len(labels)
    for s in range(1, u.n):
        assert dg.linking_number(u, 0, s) == 0


def test_closure_linking_numbers():
    h = hopf()
    assert h.kind == "closed"
    assert dg.linking_number(h, 0, 1) == 1
    t24 = dg.closure(dg.braid(2, [1, 1, 1, 1]))
    assert dg.linking_number(t24, 0, 1) == 2
    neg = dg.closure(dg.braid(2, [-1, -1]))
    assert dg.linking_number(neg, 0, 1) == -1


def test_writhe():
    assert dg.writhe(dg.braid(2, [1, 1]), 0) == 0   # crossings between strands
    k = dg.closure(dg.braid(1, []))
    assert dg.writhe(k, 0) == 0


def test_cable_multiplicity_one_is_identity():
    beta = catalog.load("beta")
    assert dg.cable(beta, (1,) * beta.n) == beta


def test_cable_zero_framing():
    c = dg.closure(dg.cable(dg.braid(2, [1, 1, 1, 1]), (2, 1)))
    # the two parallel copies of strand 0 have linking number zero
    assert dg.linking_number(c, 0, 1) == 0
    # each copy still links the untouched component as before
    assert dg.linking_number(c, 0, 2) == 2
    assert dg.linking_number(c, 1, 2) == 2


def test_pushoff_unknot_split():
    k = dg.closure(dg.braid(1, []))
    p = dg.pushoff(k, k.components[0][0])
    assert p.n == 2
    assert dg.linking_number(p, 0, 1) == 0


def test_pushoff_labels():
    w = catalog.load("whitehead")
    p = dg.pushoff(w, "1")
    labels = sorted(lab for lab, _ in p.components)
    assert labels == ["1", "1+", "2"]
    s_orig = p.label_strands("1")[0]
    s_copy = p.label_strands("1+")[0]
    assert dg.linking_number(p, s_orig, s_copy) == 0


def test_delete_components():
    w = catalog.load("whitehead")
    only = dg.delete_components(w, ["2"])
    assert [lab for lab, _ in only.components] == ["2"]
    assert only.n == 1


def test_diagram_json_round_trip():
    for name in ("hopf", "whitehead", "borromean", "beta"):
        d = catalog.load(name)
        again = dg.LinkDiagram.from_json(d.to_json())
        assert again == d
        assert again.to_json() == d.to_json()


def test_diagram_keys_are_exact():
    # components may be left out; a key a diagram does not define is refused
    doc = json.loads(catalog.raw_payload("hopf"))
    del doc["components"]
    assert dg.LinkDiagram.from_json(json.dumps(doc)) == catalog.load("hopf")
    with pytest.raises(seifert.StructureError, match="'name'"):
        dg.LinkDiagram.from_json(json.dumps(dict(doc, name="hopf")))


def test_diagram_validation_rejects_dangling_crossing():
    with pytest.raises(ValueError):
        dg.LinkDiagram(kind="closed",
                       strands=(((0, "o"),),),
                       crossings=((0, 0, 1),),
                       components=(("1", (0,)),))


def test_word_utilities():
    assert dg.reduce_word((1, -1, 2)) == (2,)
    assert dg.invert_word((1, -2)) == (2, -1)
    assert dg.exponent_sum((1, 1, 2, -1), 1) == 1
    assert dg.concat((1, 2), (-2, 3)) == (1, 3)


def test_longitudes_abelianize_to_linking_numbers():
    # degree-1 Magnus coefficients of each longitude equal the linking
    # numbers with the other components: the diagrammatic count and the
    # group-theoretic count must agree
    from boundarylink import magnus
    for name in ("hopf", "whitehead", "borromean"):
        d = catalog.load(name)
        longs = dg.wirtinger_longitudes(d, depth=2)
        for i, w in enumerate(longs):
            series = magnus.magnus_expand(w, d.n, 1, reduced=False)
            for j in range(d.n):
                expect = 0 if j == i else dg.linking_number(d, i, j)
                assert series.as_dict().get((j + 1,), 0) == expect


def test_longitude_nullhomologous():
    # zero framing: the longitude has exponent sum zero in its own meridian
    for name in ("hopf", "whitehead", "borromean"):
        d = catalog.load(name)
        for i, w in enumerate(dg.wirtinger_longitudes(d, depth=3)):
            assert dg.exponent_sum(w, i + 1) == 0


def test_diagram_refuses_non_integer_values():
    # the Hopf link's two crossings, one value at a time made a float, a
    # boolean or a string that int() would have accepted
    strands = (((0, "o"), (1, "u")), ((0, "u"), (1, "o")))
    crossings = ((0, 1, 1), (1, 0, 1))
    assert dg.LinkDiagram("closed", strands, crossings) == hopf()
    for bad_crossings in (((0, 1, 1.0), (1, 0, 1)), ((0, 1, 1), (1, 0, True)),
                          ((0.0, 1, 1), (1, 0, 1)), ((0, "1", 1), (1, 0, 1))):
        with pytest.raises(dg.StructureError):
            dg.LinkDiagram("closed", strands, bad_crossings)
    for bad_strands in ((((0.0, "o"), (1, "u")), ((0, "u"), (1, "o"))),
                        (((0, "o"), (1, "u")), ((0, "u"), (True, "o")))):
        with pytest.raises(dg.StructureError):
            dg.LinkDiagram("closed", bad_strands, crossings)
    with pytest.raises(dg.StructureError):
        dg.LinkDiagram("closed", strands, crossings,
                       (("1", (0.0,)), ("2", (1,))))
