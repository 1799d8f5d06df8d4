"""Value semantics of the package's record classes.

``Params``, ``SeriesControl`` and ``PhiSpec`` compare and hash by their
fields, print like a dataclass, refuse assignment and keep their validation
messages; ``JFamily``, ``QIntegrand`` and ``CheckResult`` are NamedTuples
built positionally or by keyword.
"""

import copy
import pickle

import pytest

from qfraclab.errors import DomainError
from qfraclab.moments import QIntegrand
from qfraclab.qseries import DEFAULT_CONTROL, PhiSpec, SeriesControl
from qfraclab.recurrence import JCoeffs, JFamily, Params
from qfraclab.verify import CheckResult

# class, field names, constructor arguments, arguments differing in one field, repr
FROZEN = [
    (Params, ("q", "a", "b", "lam"), (0.4, 0.3, -0.25, 0.2), (0.4, 0.3, -0.25, 0.5),
     "Params(q=0.4, a=0.3, b=-0.25, lam=0.2)"),
    (SeriesControl, ("rel_tol", "consecutive_small", "max_terms"), (1e-12, 4, 500), (1e-12, 4, 600),
     "SeriesControl(rel_tol=1e-12, consecutive_small=4, max_terms=500)"),
    (PhiSpec, ("upper", "lower", "base", "argument"), ((0.5,), (0.25j,), 0.3, 0.7), ((0.5,), (0.25j,), 0.3, 0.6),
     "PhiSpec(upper=(0.5,), lower=(0.25j,), base=0.3, argument=0.7)"),
]
IDS = [entry[0].__name__ for entry in FROZEN]


@pytest.mark.parametrize("cls,fields,args,other,text", FROZEN, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, args, other, text):
    u, v, w = cls(*args), cls(*args), cls(*other)
    assert u == v and not u != v
    assert hash(u) == hash(v)
    assert len({u, v, w}) == 2
    assert u != w and not u == w
    assert u != args  # a tuple of the same values is another kind of object
    assert cls(**dict(zip(fields, args))) == u


@pytest.mark.parametrize("cls,fields,args,other,text", FROZEN, ids=IDS)
def test_repr_names_every_field(cls, fields, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,fields,args,other,text", FROZEN, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args, other, text):
    obj = cls(*args)
    for name, value in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls,fields,args,other,text", FROZEN, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, args, other, text):
    obj = cls(*args)
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj


def test_series_control_defaults():
    assert SeriesControl() == SeriesControl(1e-15, 3, 10_000) == DEFAULT_CONTROL


def test_phispec_stores_sequences_as_tuples():
    spec = PhiSpec([0.5, 0.1], [0.25j], 0.3, 0.7)
    assert spec.upper == (0.5, 0.1) and spec.lower == (0.25j,)
    assert spec == PhiSpec((0.5, 0.1), (0.25j,), 0.3, 0.7)
    assert hash(spec) == hash(PhiSpec((0.5, 0.1), (0.25j,), 0.3, 0.7))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Params(1.5, 0.3, -0.25, 0.2), "Params require 0 < |q| < 1"),
        (lambda: Params(0, 0.3, -0.25, 0.2), "Params require 0 < |q| < 1"),
        (lambda: Params(0.4, 0.3, 1, 0.2), "b = 1 zeroes every linear coefficient A_k"),
        (lambda: SeriesControl(rel_tol=0.0), "rel_tol must be positive"),
        (lambda: SeriesControl(consecutive_small=0), "consecutive_small must be at least 1"),
        (lambda: SeriesControl(max_terms=2, consecutive_small=3), "max_terms must be at least consecutive_small"),
        (lambda: PhiSpec((0.5,), (), 1.2, 0.7), "PhiSpec requires 0 < |q| < 1"),
        (lambda: PhiSpec((0.5,), [2.0], 0.5, 0.7), "lower parameter 2.0 is q^(-m); denominator would vanish"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def _coeffs(k):
    return JCoeffs(1, 0.5, 0.25)


@pytest.mark.parametrize(
    "positional,keyword",
    [
        (lambda: JFamily("f", _coeffs), lambda: JFamily(name="f", coeffs=_coeffs, index_shift=0)),
        (lambda: JFamily("f", _coeffs, 1), lambda: JFamily(coeffs=_coeffs, name="f", index_shift=1)),
        (lambda: QIntegrand(abs, 0.0, 1.0), lambda: QIntegrand(evaluator=abs, lower=0.0, upper=1.0)),
        (lambda: CheckResult("c", True, "d"), lambda: CheckResult(name="c", passed=True, detail="d")),
    ],
    ids=["JFamily", "JFamily-shifted", "QIntegrand", "CheckResult"],
)
def test_named_tuples_build_positionally_or_by_keyword(positional, keyword):
    u, v = positional(), keyword()
    assert u == v
    assert type(u)._fields == tuple(v._asdict())


def test_named_tuple_fields():
    fam = JFamily("f", _coeffs)
    assert (fam.name, fam.coeffs, fam.index_shift) == ("f", _coeffs, 0)
    f = QIntegrand(abs, 0.0, 1.0)
    assert (f.evaluator, f.lower, f.upper) == (abs, 0.0, 1.0)
    res = CheckResult("c", False, "d")
    assert (res.name, res.passed, res.detail) == ("c", False, "d")
