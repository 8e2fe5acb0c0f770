"""The package's record classes: construction, repr, ==, hash and immutability.

One table row per class pins the public behaviour every consumer relies on:
reprs feed the bit digests, equality sees only the compared fields of two
instances of the same class, every record hashes by those fields and refuses
assignment, and the constructors normalize and validate their arguments.
"""

import pickle
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from czeta.classify import ZeroClassification
from czeta.errors import ParameterError
from czeta.exact import ExactMatrix
from czeta.hankel import CoulombHankel, RayleighHankel, RecurrenceCoeffs
from czeta.numeric import Rect, ZeroReport
from czeta.verify import FamilyResult
from czeta.zeta import CoulombParams, ZetaTable

P = CoulombParams(F(1, 3), 0)
P_REPR = "CoulombParams(L=Fraction(1, 3), eta=Fraction(0, 1))"
M = ExactMatrix([[1, F(1, 2)], [F(1, 2), 3]])
M_REPR = "ExactMatrix(entries=((Fraction(1, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 1))))"
R = Rect(-1.0, 1.0, 0.0, 2.0)
R_REPR = "Rect(re_min=-1.0, re_max=1.0, im_min=0.0, im_max=2.0)"


class Case(NamedTuple):
    cls: type
    fields: tuple  # constructor parameters, in order
    args: tuple  # one argument per field, or a prefix when the rest default
    text: str  # repr of cls(*args)
    other: tuple  # arguments of an unequal instance
    hidden: dict = {}  # keyword arguments that must change neither == nor hash
    defaults: dict = {}  # values of the fields that args leaves to the constructor
    rejects: tuple = ()  # argument tuples the constructor refuses with ParameterError


CASES = [
    Case(CoulombParams, ("L", "eta"), (F(1, 3), 0), P_REPR, (F(1, 3), F(1, 2)),
         rejects=((F(-3, 2), 1), (F(-5, 2), 0), (-1, F(1, 2)))),
    Case(ZetaTable, ("params", "_values"), (P, (F(3, 11),)),
         f"ZetaTable(params={P_REPR}, _values=(Fraction(3, 11),))", (CoulombParams(0, 0), (F(3, 11),))),
    Case(ExactMatrix, ("entries",), ([[1, F(1, 2)], [F(1, 2), 3]],), M_REPR, ([[1]],),
         rejects=(([],), ([[1, 2]],))),
    Case(CoulombHankel, ("params", "n", "matrix"), (P, 2, M),
         f"CoulombHankel(params={P_REPR}, n=2, matrix={M_REPR})", (P, 3, M)),
    Case(RayleighHankel, ("nu", "ell", "n", "matrix"), (F(1, 2), 1, 2, M),
         f"RayleighHankel(nu=Fraction(1, 2), ell=1, n=2, matrix={M_REPR})", (F(1, 2), 0, 2, M)),
    Case(RecurrenceCoeffs, ("params", "_a", "_b"), (P, (F(1),), (F(0),)),
         f"RecurrenceCoeffs(params={P_REPR}, _a=(Fraction(1, 1),), _b=(Fraction(0, 1),))",
         (P, (F(2),), (F(0),))),
    Case(ZeroClassification, ("params", "pair_count", "sign_sequence", "all_real"),
         (P, 1, (1, -1), False),
         f"ZeroClassification(params={P_REPR}, pair_count=1, sign_sequence=(1, -1), all_real=False)",
         (P, 0, (1, -1), False)),
    Case(Rect, ("re_min", "re_max", "im_min", "im_max"), (-1.0, 1.0, 0.0, 2.0), R_REPR,
         (-1.0, 1.0, 0.0, 3.0),
         rejects=((0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0),
                  (float("nan"), 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, float("inf")))),
    Case(ZeroReport, ("region", "zeros", "residuals", "counts", "unresolved", "stats"),
         (R, (1j,), (0.0,), {"real": 0}),
         f"ZeroReport(region={R_REPR}, zeros=(1j,), residuals=(0.0,), counts={{'real': 0}}, "
         "unresolved=(), stats={})",
         (R, (2j,), (0.0,), {"real": 0}),
         hidden={"stats": {"series_evals": 3}}, defaults={"unresolved": (), "stats": {}}),
    Case(FamilyResult, ("name", "passed", "cases", "detail", "seconds"), ("x", True, 3, "ok"),
         "FamilyResult(name='x', passed=True, cases=3, detail='ok', seconds=0.0)",
         ("x", False, 3, "ok"), hidden={"seconds": 1.5}, defaults={"seconds": 0.0}),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_behaviour(case):
    cls = case.cls
    a = cls(*case.args)
    b = cls(**dict(zip(case.fields, case.args)))
    assert repr(a) == repr(b) == case.text
    assert a == b and not a != b
    other = cls(*case.other)
    assert a != other and not a == other
    # only two instances of the same class compare
    assert a.__eq__(case.args) is NotImplemented and a != case.args
    sub = type("Sub", (cls,), {})
    assert a.__eq__(sub(*case.args)) is NotImplemented and a != sub(*case.args)
    for name, value in case.defaults.items():
        assert getattr(a, name) == value
    if "stats" in case.defaults:  # a fresh dict per instance
        assert a.stats is not b.stats
    if case.hidden:
        c = cls(*case.args, **case.hidden)
        assert c == a and not c != a
        assert repr(c) != repr(a)  # shown, though not compared
    # the hash of the compared fields' tuple; a dict field makes it unhashable
    compared = tuple(getattr(a, name) for name in case.fields if name not in case.hidden)
    try:
        expected = hash(compared)
    except TypeError:
        for record in (a, b):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
    else:
        assert hash(a) == hash(b) == expected
        assert hash(cls(*case.args, **case.hidden)) == expected
    for name in case.fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert repr(a) == case.text
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and repr(copy) == repr(a)
    for bad in case.rejects:
        with pytest.raises(ParameterError):
            cls(*bad)


def test_rect_message_names_the_rectangle():
    with pytest.raises(ParameterError, match=r"^degenerate rectangle Rect\(re_min=0, re_max=0, "
                                             r"im_min=0, im_max=1\)$"):
        Rect(0, 0, 0, 1)


def test_records_normalize_their_fields():
    assert type(P.L) is F and P.eta == 0 and type(P.eta) is F
    assert CoulombParams("-7/4", 1.5) == CoulombParams(F(-7, 4), F(3, 2))
    assert M.entries == ((1, F(1, 2)), (F(1, 2), 3)) and M.dim == 2
    assert all(type(e) is F for row in M.entries for e in row)
    assert type(M.entries) is tuple and all(type(row) is tuple for row in M.entries)
