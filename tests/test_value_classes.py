"""Value semantics of the package's record classes.

``Params`` compares and hashes by its fields, prints like a dataclass,
refuses assignment and keeps its validation messages, as does ``phi`` for
its arguments; ``JFamily`` and ``CheckResult`` are NamedTuples built
positionally or by keyword.
"""

import copy
import pickle

import pytest

from qfraclab.errors import DomainError
from qfraclab.qseries import phi
from qfraclab.recurrence import JCoeffs, JFamily, Params
from qfraclab.verify import CheckResult

# class, field names, constructor arguments, arguments differing in one field, repr
FROZEN = [
    (Params, ("q", "a", "b", "lam"), (0.4, 0.3, -0.25, 0.2), (0.4, 0.3, -0.25, 0.5),
     "Params(q=0.4, a=0.3, b=-0.25, lam=0.2)"),
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


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Params(1.5, 0.3, -0.25, 0.2), "Params require 0 < |q| < 1"),
        (lambda: Params(0, 0.3, -0.25, 0.2), "Params require 0 < |q| < 1"),
        (lambda: Params(0.4, 0.3, 1, 0.2), "b = 1 zeroes every linear coefficient A_k"),
        (lambda: Params(0.4, float("nan"), -0.25, 0.2), "Params require finite a, got nan"),
        (lambda: Params(0.4, 0.3, float("-inf"), 0.2), "Params require finite b, got -inf"),
        (lambda: Params(0.4, 0.3, -0.25, complex(0.2, float("inf"))), "Params require finite lam, got (0.2+infj)"),
        (lambda: phi((0.5,), (), 1.2, 0.7), "phi requires 0 < |q| < 1"),
        (lambda: phi((0.5,), [2.0], 0.5, 0.7), "lower parameter 2.0 is q^(-m); denominator would vanish"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


def _coeffs(k):
    return JCoeffs(1, 0.5, 0.25)


def _constants():
    return 1, 0.5, 0.25, 0, 0.5


@pytest.mark.parametrize(
    "positional,keyword",
    [
        (lambda: JFamily("f", _coeffs), lambda: JFamily(name="f", coeffs=_coeffs, index_shift=0)),
        (lambda: JFamily("f", _coeffs, 1), lambda: JFamily(coeffs=_coeffs, name="f", index_shift=1)),
        (lambda: JFamily("f", _coeffs, 0, _constants), lambda: JFamily(constants=_constants, coeffs=_coeffs, name="f")),
        (lambda: CheckResult("c", True, "d"), lambda: CheckResult(name="c", passed=True, detail="d")),
    ],
    ids=["JFamily", "JFamily-shifted", "JFamily-constants", "CheckResult"],
)
def test_named_tuples_build_positionally_or_by_keyword(positional, keyword):
    u, v = positional(), keyword()
    assert u == v
    assert type(u)._fields == tuple(v._asdict())


def test_named_tuple_fields():
    fam = JFamily("f", _coeffs)
    assert (fam.name, fam.coeffs, fam.index_shift, fam.constants) == ("f", _coeffs, 0, None)
    assert JFamily._fields == ("name", "coeffs", "index_shift", "constants")
    res = CheckResult("c", False, "d")
    assert (res.name, res.passed, res.detail, res.rows) == ("c", False, "d", ())
