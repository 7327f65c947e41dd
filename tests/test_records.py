"""The seven frozen records against the frozen dataclasses they replace."""

import copy
import dataclasses
import pickle

import pytest

from tanglekit import tangles
from tanglekit.annulus import AnnulusElement, CounterexampleReport
from tanglekit.bracket import BracketVec2
from tanglekit.rationals import ExtRational, TwistVector
from tanglekit.ring import LaurentPoly, RatFunc
from tanglekit.tangles import RationalTangle, TwistWord

A = LaurentPoly.variable()
Z = AnnulusElement({0: 1, 2: A})

#: class, field names, then two field tuples of unequal records, each as
#: stored (already in canonical form)
RECORDS = [
    (ExtRational, ("p", "q"), (-18, 7), (1, 0)),
    (TwistVector, ("entries",), ((3, 2, -3),), ((3, 2),)),
    (RationalTangle, ("tv",), (TwistVector((3, 2)),), (None,)),
    (TwistWord, ("start", "runs"), ("0", (("R", 3), ("B", -2))), ("inf", ())),
    (RatFunc, ("num", "den"), (A, LaurentPoly({0: 1, 4: 1})), (A, LaurentPoly.one())),
    (BracketVec2, ("alpha", "beta"), (A, LaurentPoly.one()), (LaurentPoly.one(), A)),
    (CounterexampleReport,
     ("llk_single", "llk_double", "tangles_distinguished", "closure_single",
      "closure_double", "closures_equal"),
     (1, 2, True, Z, Z, True), (1, 2, True, Z, Z.scale(2), False)),
]


def _dataclass(cls, fields):
    """The frozen dataclass of the same name and fields: the referee of the
    repr text, the equality and the hash."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, fields, values, other", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_records_behave_as_their_frozen_dataclasses(cls, fields, values, other):
    ref = _dataclass(cls, fields)
    x = cls(*values)
    # positional and keyword construction, and the fields read back
    assert tuple(getattr(x, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == x
    # equality and hash follow the fields, as the dataclass's do
    y, z = cls(*values), cls(*other)
    assert x == y and hash(x) == hash(y) == hash(ref(*values))
    assert x != z and not x == z
    assert (x == z) == (ref(*values) == ref(*other))
    # equal only to a record of its own class
    assert x != values and x != ref(*values) and x.__eq__(ref(*values)) is NotImplemented
    # the repr text is the dataclass's, but RatFunc's own
    if cls is RatFunc:
        assert repr(x) == f"RatFunc({x})"
    else:
        assert repr(x) == repr(ref(*values))
    # assignment and deletion are refused, of a field or of a new name
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values
    # copies and pickles go through __init__ (an AnnulusElement, which
    # holds a mappingproxy, is copied but not pickled)
    twins = [copy.copy(x)]
    if cls is not CounterexampleReport:
        twins += [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    for twin in twins:
        assert type(twin) is cls and twin == x


def test_a_fraction_is_not_its_pair():
    assert ExtRational(1, 2) != (1, 2)
    assert (1, 2) != ExtRational(1, 2)
    assert TwistVector((1, 2)) != (1, 2)
    assert len({ExtRational(1, 2), (1, 2)}) == 2


def test_records_validate_as_before():
    assert ExtRational(4, -6) == ExtRational(p=-2, q=3)
    assert repr(ExtRational(-36, 14)) == "ExtRational(p=-18, q=7)"
    assert ExtRational(True) == ExtRational(1, 1)
    with pytest.raises(ZeroDivisionError):
        ExtRational(0, 0)
    with pytest.raises(TypeError):
        ExtRational(1.5)
    assert TwistVector([True, 2]).entries == (1, 2)
    with pytest.raises(ValueError, match="interior zero"):
        TwistVector((1, 0, 1))
    with pytest.raises(ValueError, match="twist word start"):
        TwistWord("1", ())
    with pytest.raises(ValueError, match="twist word run"):
        TwistWord(start="0", runs=(("R", 0),))


def test_a_tangle_computes_its_fraction_once(monkeypatch):
    calls = []
    continued_fraction = tangles.continued_fraction

    def counted(tv):
        calls.append(tv)
        return continued_fraction(tv)

    monkeypatch.setattr(tangles, "continued_fraction", counted)
    t = RationalTangle(TwistVector((3, 2)))
    assert t.fraction is t.fraction
    assert t.fraction == ExtRational(7, 3) and len(calls) == 1
    # the cached fraction is no field: equality, hash and repr ignore it
    u = RationalTangle(TwistVector((3, 2)))
    assert t == u and hash(t) == hash(u)
    assert repr(t) == "RationalTangle(tv=TwistVector(entries=(3, 2)))"
    assert RationalTangle.infinity().fraction == ExtRational.infinity()
