"""Records made by `_ser.frozen` against `dataclasses` as the oracle.

Each record class gets a `dataclasses.dataclass(frozen=True)` twin built
from the same annotations and defaults (and `__post_init__`); a record
and its twin, built from the same field values, must agree on repr,
equality, hashing, constructor errors, immutability, copying, pickling
and `__match_args__`.
"""

import ast
import copy
import copyreg
import dataclasses
import importlib
import io
import json
import pickle
import sys
import types
import weakref
from collections.abc import Mapping
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
    from_parabolic,
    hyperelliptic_delta,
    hyperelliptic_profile,
    hyperelliptic_report,
    make_bundle,
    make_profile,
    stability_classify,
    to_parabolic,
    unramified_census,
)
from fixloc import equivariant
from fixloc._ser import FrozenDict
from fixloc.covers import CoverProfile, SpecialOrbit
from fixloc.divisors import InvariantDivisor, LineNumericData, RootExponent
from fixloc.equivariant import (
    AdmissibleParabolicDatum,
    DeterminantLift,
    FlagSelector,
    Rank2EqData,
)
from fixloc.graded import GradedPoint, GradedSummand, validate_graded
from fixloc.locus import (
    CensusComponent,
    CensusRecord,
    ComponentRecord,
    DecompositionReport,
    HyperellipticReport,
)
from fixloc.stability import ParabolicP1, StabilityVerdict, SubbundleWitness

import record_serializer_outputs as recorder

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
    # the defaults, read from the record's __init__: its class holds slots under those names
    defaults = cls.__init__.__defaults__ or ()
    namespace.update(zip(tuple(cls.__annotations__)[len(cls.__annotations__) - len(defaults):],
                         defaults))
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


MARKABLE = {DeterminantLift, Rank2EqData, AdmissibleParabolicDatum, GradedPoint}
MARK = object()  # a validity mark no validator hands out


def test_a_record_keeps_its_fields_and_its_mark_in_slots():
    # only CoverProfile has an instance __dict__, for its cached properties; a
    # markable record's slots sit on its one private base, which _new_marked builds
    for cls in RECORDS:
        holder = cls.__bases__[0] if cls in MARKABLE else cls
        assert holder.__slots__ == (*cls.__match_args__, *("_mark",) * (cls in MARKABLE),
                                    *("__dict__",) * (cls is CoverProfile))
        if cls in MARKABLE:
            assert cls.__slots__ == () and cls.__bases__ == (holder,)
            assert holder.__bases__ == (object,) and holder.__name__.startswith("_")
            assert "__setattr__" not in vars(holder) and "__init__" not in vars(holder)
        for record in SAMPLES[cls]:
            fresh = cls(*_fields(record))
            if cls in MARKABLE:
                assert fresh._mark is None
                marked = cls._new_marked(MARK, *_fields(fresh))
                assert type(marked) is cls and marked == fresh and marked._mark is MARK
            if cls is CoverProfile:
                assert vars(fresh) == {}
            else:
                with pytest.raises(TypeError):
                    vars(fresh)
            with pytest.raises(TypeError):
                weakref.ref(fresh)


@pytest.mark.parametrize("cls, i", CASES, ids=[f"{c.__name__}-{i}" for c, i in CASES])
def test_a_copy_of_a_record_is_equal_and_unmarked(cls, i):
    fresh = cls(*_fields(SAMPLES[cls][i]))
    records = [fresh]
    if cls in MARKABLE:
        records.append(cls._new_marked(MARK, *_fields(fresh)))
    for record in records:
        clones = [copy.copy(record), copy.deepcopy(record)]
        clones += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is cls
            assert clone == record and _fields(clone) == _fields(record)
            assert getattr(clone, "_mark", None) is None


def test_a_record_reduces_to_a_constructor_call():
    # copy and pickle rebuild a record through __init__ and its checks, so a
    # marked build reduces as a fresh one does, never through _new_marked
    for cls in RECORDS:
        for sample in SAMPLES[cls]:
            records = [sample]
            if cls in MARKABLE:
                records.append(cls._new_marked(MARK, *_fields(sample)))
            for record in records:
                reduced = record.__reduce__()
                assert reduced[0] is type(record) is cls
                assert reduced == (cls, tuple(_fields(record)))


def _by_name_pickle(cls, state: dict, protocol: int) -> bytes:
    """A pickle in the form records took before they reduced to a constructor
    call: the class made by object.__new__, then the fields by name as its state."""
    class ByName(pickle.Pickler):
        def reducer_override(self, obj):
            return (copyreg.__newobj__, (cls,), state) if type(obj) is cls else NotImplemented

    out = io.BytesIO()
    ByName(out, protocol).dump(cls.__new__(cls))
    return out.getvalue()


@pytest.mark.parametrize("residues", [{"a": 1.5}, {"a": 1}], ids=["float residue", "plain dict"])
def test_a_by_name_pickle_never_loads_as_a_record(residues):
    # a record has no __setstate__ to take a state by name, nor a __dict__ to
    # hold it, so such a state is never stored raw.  DeterminantLift({"a": 1.5}, 4)
    # raises InvalidDatum; a record loaded from the state would hold its residues
    # in a plain dict, which validate_det would mark and which could change
    # under the mark
    state = {"residues": residues, "degree": 4, "lift_sign": "+"}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(AttributeError):
            pickle.loads(_by_name_pickle(DeterminantLift, state, protocol))


def test_serializers_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_serializer_outputs.py before the record
    # serializers became one _ser.to_json; the key order is part of the text
    assert recorder.render(recorder.corpus()) == recorder.FIXTURE.read_text()


def test_every_mapping_field_is_read_only():
    # a record's maps cannot change after a validator checked them; a record
    # with a plain dict field fails here
    fields = set()
    for cls in RECORDS:
        for record in SAMPLES[cls]:
            for name, value in zip(cls.__match_args__, _fields(record)):
                if isinstance(value, Mapping):
                    fields.add((cls.__name__, name))
                    with pytest.raises(TypeError):
                        value[next(iter(value), "k")] = 0
    assert fields == {("InvariantDivisor", "residues"), ("LineNumericData", "values"),
                      ("DeterminantLift", "residues"), ("Rank2EqData", "numeric"),
                      ("FlagSelector", "choice"), ("AdmissibleParabolicDatum", "weights"),
                      ("AdmissibleParabolicDatum", "d2"), ("GradedPoint", "numeric"),
                      ("HyperellipticReport", "pairwise_intersections")}


def test_a_frozen_dict_rejects_every_mutator_and_reads_as_a_dict():
    plain = {"b": 2, "a": 1}
    frozen = FrozenDict(plain)
    mutators = [lambda d: d.__setitem__("a", 0), lambda d: d.__delitem__("a"),
                lambda d: d.clear(), lambda d: d.pop("a"), lambda d: d.popitem(),
                lambda d: d.setdefault("c", 3), lambda d: d.update(c=3),
                lambda d: d.__ior__({"c": 3})]
    for mutate in mutators:
        with pytest.raises(TypeError, match="FrozenDict is read-only"):
            mutate(frozen)
    assert frozen == plain and plain == frozen and list(frozen) == ["b", "a"]
    assert repr(frozen) == repr(plain) and json.dumps(frozen) == json.dumps(plain)
    assert type(frozen.copy()) is dict and type(frozen | {"c": 3}) is dict
    for clone in (copy.copy(frozen), copy.deepcopy(frozen), pickle.loads(pickle.dumps(frozen))):
        assert type(clone) is FrozenDict and clone == plain
    with pytest.raises(TypeError, match="unhashable"):
        hash(frozen)


def test_a_record_shares_a_frozen_field_and_copies_a_plain_one():
    residues = {"a": 1}
    det = DeterminantLift(residues, 4)
    assert type(det.residues) is FrozenDict and det.residues is not residues
    assert DeterminantLift(det.residues, 4).residues is det.residues


_SUMMAND = GradedSummand(0, frozenset())
_DET = DeterminantLift({"a": 1}, 1)

# (record and field, a build with one ill-typed value there); each built, or
# raised a bare TypeError or AttributeError, before records checked their fields
ILL_TYPED = [
    ("DeterminantLift residues, degree and sign", lambda: DeterminantLift({"a": 1.0}, "x", "?")),
    ("DeterminantLift residues a list", lambda: DeterminantLift([1], 0)),
    ("DeterminantLift residues a view", lambda: DeterminantLift(types.MappingProxyType({"a": 1}), 1)),
    ("DeterminantLift degree", lambda: DeterminantLift({"a": 1}, 1.0)),
    ("DeterminantLift lift sign", lambda: DeterminantLift({"a": 1}, 1, "x")),
    ("Rank2EqData numeric a list", lambda: Rank2EqData([(0, 1)], _DET)),
    ("Rank2EqData pair a list", lambda: Rank2EqData({"a": [0, 1]}, _DET)),
    ("Rank2EqData pair entry", lambda: Rank2EqData({"a": (0, True)}, _DET)),
    ("Rank2EqData pair d1 > d2", lambda: Rank2EqData({"a": (1, 0)}, _DET)),
    ("Rank2EqData pair d1 < 0", lambda: Rank2EqData({"a": (-1, 0)}, _DET)),
    ("Rank2EqData det a dict", lambda: Rank2EqData({"a": (0, 1)}, {"a": 1})),
    ("Rank2EqData det None", lambda: Rank2EqData({"a": (0, 1)}, None)),
    ("AdmissibleParabolicDatum weights None", lambda: AdmissibleParabolicDatum(0, None, {"a": 1})),
    ("AdmissibleParabolicDatum weight a float",
     lambda: AdmissibleParabolicDatum(0, {"a": 0.5}, {"a": 1})),
    ("AdmissibleParabolicDatum weight 1", lambda: AdmissibleParabolicDatum(0, {"a": F(1)}, {"a": 1})),
    ("AdmissibleParabolicDatum d2 a list", lambda: AdmissibleParabolicDatum(0, {"a": 0}, [1])),
    ("AdmissibleParabolicDatum d2 entry", lambda: AdmissibleParabolicDatum(0, {"a": 0}, {"a": 1.0})),
    ("AdmissibleParabolicDatum base degree",
     lambda: AdmissibleParabolicDatum(0.0, {"a": 0}, {"a": 1})),
    ("AdmissibleParabolicDatum lift sign",
     lambda: AdmissibleParabolicDatum(0, {"a": 0}, {"a": 1}, "?")),
    ("FlagSelector choice a str", lambda: FlagSelector("first")),
    ("FlagSelector choice value", lambda: FlagSelector({"a": "third"})),
    ("GradedSummand support a list", lambda: GradedSummand(0, ["a"])),
    ("GradedSummand support a set", lambda: GradedSummand(0, {"a"})),
    ("GradedSummand base degree", lambda: GradedSummand(1.0, frozenset())),
    ("GradedPoint summand base degree",
     lambda: GradedPoint((GradedSummand("1", frozenset()), GradedSummand(-1, frozenset())))),
    ("GradedPoint summand not a summand", lambda: GradedPoint((_SUMMAND, "x"))),
    ("GradedPoint summands a list", lambda: GradedPoint([_SUMMAND, _SUMMAND])),
    ("GradedPoint numeric a list", lambda: GradedPoint((_SUMMAND, _SUMMAND), numeric=[(0, 1)])),
    ("GradedPoint det a dict", lambda: GradedPoint((_SUMMAND, _SUMMAND), {"a": (0, 1)}, {"a": 1})),
    ("InvariantDivisor residues a list", lambda: InvariantDivisor([1], 0)),
    ("LineNumericData values a list", lambda: LineNumericData([1])),
    # validate_witness passed the float one for make_bundle(-1, -3, ...), and
    # parabolic_slope_difference then raised a bare TypeError
    ("SubbundleWitness degree a float", lambda: SubbundleWitness(-1.0, (F(1),), (), frozenset({0}))),
    ("SubbundleWitness degree a bool", lambda: SubbundleWitness(True, (F(1),), (), frozenset({0}))),
    # each of these built, and witness_to_json or hash then raised a bare
    # AttributeError or TypeError
    ("SubbundleWitness coefficients a list",
     lambda: SubbundleWitness(-1, [F(1)], (), frozenset({0}))),
    ("SubbundleWitness coefficients a str", lambda: SubbundleWitness(-1, (), "ab", frozenset({0}))),
    ("SubbundleWitness coefficient a float",
     lambda: SubbundleWitness(-1, (1.5,), (), frozenset({0}))),
    ("SubbundleWitness coefficient a bool",
     lambda: SubbundleWitness(-1, (F(1),), (True,), frozenset())),
    ("SubbundleWitness agreement a set", lambda: SubbundleWitness(-1, (F(1),), (), {0})),
    ("SubbundleWitness agreement a list", lambda: SubbundleWitness(-1, (F(1),), (), [0])),
    ("SubbundleWitness agreement entry a float",
     lambda: SubbundleWitness(-1, (F(1),), (), frozenset({0.0}))),
    ("StabilityVerdict label unknown", lambda: StabilityVerdict("stable", None)),
    ("StabilityVerdict label None", lambda: StabilityVerdict(None, None)),
    ("StabilityVerdict witness a dict",
     lambda: StabilityVerdict("Unstable", {"e": -1, "p": [1], "q": [], "agreement": [0]})),
]


@pytest.mark.parametrize("build", [pytest.param(build, id=name) for name, build in ILL_TYPED])
def test_an_ill_typed_field_raises_invalid_datum_when_the_record_is_built(build):
    with pytest.raises(InvalidDatum):
        build()


def test_a_copied_or_pickled_record_is_equal_but_unmarked(count_calls):
    # the mark stays out of a record's state, so a clone is validated again
    profile = hyperelliptic_profile(1)
    plus = hyperelliptic_delta(1, 0)
    datum = Rank2EqData(numeric=enumerate_lambda(plus, profile)[1], det=plus)
    pdat = to_parabolic(datum, profile)
    point = double_class(1, [0, 1])
    validate_graded(point, profile)
    for record in (datum, datum.det, pdat, point):
        assert record._mark is not None
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record
            assert clone._mark is None
    numeric_checks = count_calls(equivariant, "validate_numeric")
    spread_checks = count_calls(equivariant, "_spreads")
    to_parabolic(datum, profile)
    from_parabolic(pdat, profile)
    validate_graded(point, profile)
    assert numeric_checks == spread_checks == []
    to_parabolic(pickle.loads(pickle.dumps(datum)), profile)
    from_parabolic(pickle.loads(pickle.dumps(pdat)), profile)
    validate_graded(pickle.loads(pickle.dumps(point)), profile)
    assert len(numeric_checks) == 2 and len(spread_checks) == 1
