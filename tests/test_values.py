"""Value semantics of every immutable value class of the package."""

import copy
import pickle

import pytest

from boundarylink import catalog, magnus, milnor, seifert, smoves
from boundarylink import diagrams as dg


def _enlargement():
    return smoves.Enlargement(0, (1, 0), ((0, 0),), 2, True)


def _congruence():
    return smoves.Congruence((((0, 1), (1, 0)),))


def _violation():
    return seifert.Violation("offdiagonal-transpose", (0, 1),
                             "A_01 != A_10^T")


def _sequence():
    return smoves.MoveSequence(seifert.whitehead_double_matrix(1, (1,)),
                               (smoves.Reduce(0, 0),))


# each builds a fresh instance, equal to the one built by the last call
BUILDERS = [
    lambda: catalog.CatalogEntry("beta", "diagram", "beta.json", "0" * 64,
                                 "a 2-strand string link"),
    lambda: dg.braid(2, [1, 1]),
    lambda: magnus.magnus_expand((1, 2, -1, -2), 2, 3),
    lambda: milnor.PairedLink(dg.closure(dg.braid(2, [1, 1])), ("1",)),
    lambda: milnor.MuTable((((1, 2), (1, 0)), ((2, 1), (1, 0)))),
    lambda: milnor.Certificate("inconclusive", (("good-basis-form", True, ""),),
                               (("matrix", "ab"),)),
    lambda: seifert.whitehead_double_matrix(2, (1, 0)),
    _violation,
    lambda: seifert.ValidationReport(False, (_violation(),)),
    _congruence,
    _enlargement,
    lambda: smoves.Reduce(0, 2, True),
    _sequence,
    lambda: smoves.SearchResult("found", _sequence(), 3),
    lambda: smoves.MinMaxWitness(seifert.whitehead_double_matrix(1, (1,)),
                                 _congruence(), _enlargement(), _enlargement()),
    lambda: smoves.GoodBasisForm((1, 0), (1, 0), (False, True)),
]


def test_every_value_class_is_covered():
    assert ({type(build()) for build in BUILDERS}
            == set(seifert.Frozen.__subclasses__()))


@pytest.mark.parametrize("k", range(len(BUILDERS)),
                         ids=lambda k: type(BUILDERS[k]()).__name__)
def test_value_semantics(k):
    value, again = BUILDERS[k](), BUILDERS[k]()
    assert value is not again
    assert value == again and hash(value) == hash(again)

    other = BUILDERS[(k + 1) % len(BUILDERS)]()
    fields = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != other and other != value
    assert value != fields
    assert value.__eq__(other) is NotImplemented

    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == again

    for dup in (copy.copy(value), copy.deepcopy(value),
                pickle.loads(pickle.dumps(value))):
        assert type(dup) is type(value)
        assert dup == value and hash(dup) == hash(value)


def test_defaults():
    m = seifert.null_matrix(1)
    assert smoves.Reduce(0, 2).swapped is False
    assert seifert.ValidationReport(True).violations == ()
    assert smoves.MoveSequence(m).moves == ()
    assert smoves.SearchResult("exhausted").nodes == 0
    assert smoves.SearchResult("exhausted").sequence is None
    e = smoves.Enlargement(0, (1, 0), ((),))
    assert (e.offset, e.swapped) == (0, False)
    assert dg.LinkDiagram("string", ((), ()), ()).components == (
        ("1", (0,)), ("2", (1,)))


def test_repr_is_pinned():
    # bench job keys format these with f"{value}"; smoves error messages
    # with {move!r}
    assert repr(smoves.Reduce(0, 2)) == "Reduce(k=0, offset=2, swapped=False)"
    assert repr(seifert.Violation("diagonal-unimodular", (0,), "det = 0")) == (
        "Violation(rule='diagonal-unimodular', blocks=(0,), detail='det = 0')")
    assert f"{seifert.whitehead_double_matrix(1, (1,))}" == (
        "SeifertMatrix(m=1, block_sizes=(2,), entries=((0, 1), (0, 0)))")
