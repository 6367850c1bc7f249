"""Records made by `_ser.frozen` against `dataclasses` as the oracle.

Each record class gets a `dataclasses.dataclass(frozen=True)` twin built
from the same annotations and defaults (and `__post_init__`); a record
and its twin, built from the same field values, must agree on repr,
equality, hashing, constructor errors, immutability, copying, pickling
and `__match_args__`.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import sys
import types
from fractions import Fraction as F
from pathlib import Path
from unittest.mock import ANY

import pytest

from fixloc import (
    InvalidDatum,
    decomposition_report,
    double_class,
    enumerate_lambda,
    flagged_class,
    hyperelliptic_delta,
    hyperelliptic_profile,
    hyperelliptic_report,
    make_bundle,
    make_profile,
    stability_classify,
    to_parabolic,
    unramified_census,
)
from fixloc.covers import CoverProfile, SpecialOrbit
from fixloc.divisors import InvariantDivisor, LineNumericData, RootExponent
from fixloc.equivariant import (
    AdmissibleParabolicDatum,
    DeterminantLift,
    FlagSelector,
    Rank2EqData,
)
from fixloc.locus import (
    CensusComponent,
    CensusRecord,
    ComponentRecord,
    DecompositionReport,
    GradedPoint,
    GradedSummand,
    HyperellipticReport,
)
from fixloc.stability import ParabolicP1, StabilityVerdict, SubbundleWitness

sys.path.insert(0, str(Path(__file__).resolve().parent / "fixtures"))
import record_serializer_outputs as recorder  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src" / "fixloc"


def _frozen_classes():
    """Every class in the package source decorated with @frozen."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "frozen" for d in node.decorator_list):
                yield getattr(importlib.import_module(f"fixloc.{path.stem}"), node.name)


RECORDS = list(_frozen_classes())

# twins live in a module of their own, so that pickle finds them by qualname
TWINS = types.ModuleType("fixloc_record_twins")
sys.modules[TWINS.__name__] = TWINS


def _twin(cls):
    namespace = {"__annotations__": dict(cls.__annotations__), "__module__": TWINS.__name__,
                 "__qualname__": cls.__qualname__}
    namespace.update((name, cls.__dict__[name])
                     for name in cls.__annotations__ if name in cls.__dict__)
    # the methods the class defines itself; those `frozen` generates have no module
    namespace.update((name, cls.__dict__[name]) for name in ("__post_init__", "__hash__")
                     if getattr(cls.__dict__.get(name), "__module__", None) == cls.__module__)
    twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
    setattr(TWINS, cls.__qualname__, twin)
    return twin


TWIN = {cls: _twin(cls) for cls in RECORDS}


def _samples():
    """Instances of each record class, at least two unequal ones, mostly from the API."""
    p12 = make_profile(12, {"a": 4, "b": 6, "c": 3})
    p6 = make_profile(6, [("x", 2), ("y", 3)], genus_base=1)
    profile = hyperelliptic_profile(1)
    plus, minus = hyperelliptic_delta(1, 0), hyperelliptic_delta(1, 1)
    datum = Rank2EqData(numeric=enumerate_lambda(plus, profile)[1], det=plus)
    unstable = make_bundle(-1, -3, [0, 1, 2, 3], [(1, 0)] * 4, [F(1, 2)] * 4)
    stable = make_bundle(-1, -2, [0, 1, 2, 3], [(1, 0), (0, 1), (1, 1), (1, 2)], [F(1, 2)] * 4)
    verdicts = [stability_classify(unstable, 1), stability_classify(stable, 1)]
    census = [unramified_census(4, 8, 2), unramified_census(3, 9, 2)]
    reports = [hyperelliptic_report(2), hyperelliptic_report(3, with_classes=False)]
    return {
        SpecialOrbit: list(p12.orbits),
        CoverProfile: [p12, p6, CoverProfile(n=12, orbits=p12.orbits)],
        RootExponent: [RootExponent(5, 3), RootExponent(-1, 4), RootExponent(a=2, modulus=3)],
        InvariantDivisor: [InvariantDivisor({"a": 1}, 0),
                           InvariantDivisor(residues={"a": 1, "b": 2}, base_degree=-1)],
        LineNumericData: [LineNumericData({"a": 1}), LineNumericData(values={})],
        DeterminantLift: [plus, minus, DeterminantLift({"a": 0}, 4)],
        Rank2EqData: [datum, Rank2EqData(numeric=datum.numeric, det=minus)],
        FlagSelector: [FlagSelector({"a": "first"}), FlagSelector(choice={"a": "second"})],
        AdmissibleParabolicDatum: [to_parabolic(datum, profile),
                                   AdmissibleParabolicDatum(1, {"a": F(1, 2)}, {"a": 1})],
        GradedSummand: [GradedSummand(0, frozenset()), GradedSummand(-1, frozenset({"a"}))],
        GradedPoint: [double_class(1, [0, 1]), flagged_class(1, [0, 1]),
                      GradedPoint((GradedSummand(0, frozenset()), GradedSummand(-1, frozenset({"a"}))))],
        DecompositionReport: [decomposition_report(p) for p in (p12, profile, make_profile(5, {}))],
        ComponentRecord: [c for r in reports for c in r.components],
        HyperellipticReport: reports,
        CensusComponent: [c for r in census for c in r.components],
        CensusRecord: census,
        ParabolicP1: [unstable, stable],
        SubbundleWitness: [v.witness for v in verdicts if v.witness is not None]
                          + [SubbundleWitness(0, (), (F(1),), frozenset())],
        StabilityVerdict: verdicts,
    }


SAMPLES = _samples()
CASES = [(cls, i) for cls in RECORDS for i in range(len(SAMPLES[cls]))]


def _fields(record):
    return [getattr(record, name) for name in type(record).__match_args__]


def _error(fn, *args, **kwargs):
    """The type and text of the exception fn raises, or None."""
    try:
        fn(*args, **kwargs)
    except AttributeError as exc:  # the twin raises FrozenInstanceError, a subclass
        return AttributeError, str(exc)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_the_package_has_nineteen_records_and_each_is_sampled():
    assert len(RECORDS) == 19
    assert set(SAMPLES) == set(RECORDS)
    for cls in RECORDS:
        samples = SAMPLES[cls]
        assert len(samples) >= 2 and all(type(s) is cls for s in samples)
        assert len({repr(s) for s in samples}) >= 2, cls


def test_no_record_is_a_dataclass():
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls, i", CASES, ids=[f"{c.__name__}-{i}" for c, i in CASES])
def test_a_record_agrees_with_its_dataclass_twin(cls, i):
    record = SAMPLES[cls][i]
    fields = _fields(record)
    twin = TWIN[cls](*fields)
    assert cls(*fields) == record
    assert repr(twin) == repr(record)
    assert cls.__match_args__ == TWIN[cls].__match_args__ == tuple(cls.__annotations__)
    assert _error(hash, record) == _error(hash, twin)
    if _error(hash, record) is None:
        assert hash(record) == hash(twin)

    # equality within the class and across classes
    others = [s for c in RECORDS for s in SAMPLES[c]]
    for other in others:
        twin_other = TWIN[type(other)](*_fields(other))
        assert (record == other) == (twin == twin_other), other
        assert (record != other) == (twin != twin_other), other
    assert record != twin and twin != record
    assert record != tuple(fields) and twin != tuple(fields)
    # across classes __eq__ returns NotImplemented, so the other operand decides
    assert record == ANY and twin == ANY

    # constructor errors: missing, extra and duplicate arguments
    kwargs = dict(zip(cls.__match_args__, fields))
    name = cls.__match_args__[0]
    for args, extra in [((), {}), ((*fields, 0), {}), (fields, {"no_such_field": 0}),
                        (fields, {name: kwargs[name]}), ((), {**kwargs, "no_such_field": 0})]:
        error = _error(cls, *args, **extra)
        assert error is not None and error[0] is TypeError
        assert error == _error(TWIN[cls], *args, **extra)
    assert cls(**kwargs) == record

    # immutability
    for fn, *rest in [(setattr, name, 0), (setattr, "not_a_field", 0), (delattr, name)]:
        error = _error(fn, record, *rest)
        assert error is not None and error == _error(fn, twin, *rest)
    assert _fields(record) == fields

    # copying and pickling keep class and fields
    for obj in (record, twin):
        for clone in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj)
            assert clone == obj


def test_root_exponents_normalise_like_their_twin():
    twin = TWIN[RootExponent]
    for a, modulus in [(5, 3), (-1, 4), (9, 4), (0, 1), (-13, 6)]:
        record = RootExponent(a, modulus)
        assert record.a == twin(a, modulus).a == a % modulus
        assert repr(record) == repr(twin(a, modulus))
        assert record == RootExponent(a % modulus, modulus)
    for modulus in (0, -2):
        error = _error(RootExponent, 1, modulus)
        assert error is not None and error[0] is InvalidDatum
        assert error == _error(twin, 1, modulus)


def test_cached_properties_stay_outside_the_fields():
    profile = make_profile(12, {"a": 4, "b": 6})
    fresh = make_profile(12, {"a": 4, "b": 6})
    assert profile.orbit("a").k == 4  # fills the cache
    assert profile == fresh and hash(profile) == hash(fresh)
    assert repr(profile) == repr(fresh) == repr(TWIN[CoverProfile](*_fields(fresh)))


def test_serializers_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_serializer_outputs.py before the record
    # serializers became one _ser.to_json; the key order is part of the text
    assert recorder.render(recorder.corpus()) == recorder.FIXTURE.read_text()
