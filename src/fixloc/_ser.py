"""Records and JSON document parsing.

`frozen` makes a class an immutable record over its annotated fields;
every layer's profiles, exponent data, reports and verdicts are records.
A record's mapping fields are `FrozenDict`s, read-only dicts, and a
record can carry a validity mark (`mark`).  A record checks its own
field types when it is built, through `freeze`, `check_int` and
`int_map` (InvalidDatum).  A copy or a pickle of a record is a call of
its constructor on its fields, so it is checked again and carries no
mark.

A converter takes (value, where) and returns the parsed value, or raises
SchemaError naming `where`, the value's path in the document
(`profile.orbits[0].k`).  Every document parser is itself a converter,
so documents nest.  Parsers check shape and types first; the
constructors and operations that receive the parsed values check the
mathematics.  `_load_json` reads a CLI input file of at most
MAX_FILE_CHARS characters, and LIST_CAP bounds the lists a CLI report
writes out.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import InvalidDatum, SchemaError

if TYPE_CHECKING:  # `fractions` is loaded only by the rational readers
    from fractions import Fraction


def frozen(cls):
    """Class decorator: an immutable, slotted record over the annotated fields.

    The fields are the class's own annotations, in order; a class
    attribute of the same name is that field's default.  The record gets
    what `dataclasses.dataclass(frozen=True, slots=True)` would give it:
    an `__init__` taking the fields by position or keyword (and calling
    `__post_init__` when the class has one), `__eq__` and `__hash__` over
    the field tuple, `Qualname(field=value, ...)` as its `__repr__`,
    `__match_args__`, and `AttributeError` on assignment and deletion.
    Its `__reduce__` is (class, fields in `__match_args__` order), so
    `copy.copy`, `copy.deepcopy` and `pickle` at every protocol rebuild
    a record through `__init__` and `__post_init__`: a copy or a pickle
    is a constructor call, checked and normalized like any other.  Its
    `__setstate__` raises AttributeError, so a pickle that gives a
    record its state by name, as records were pickled before, loads as
    no record, `CoverProfile` with its `__dict__` included.  A
    method the class defines itself is kept.  Like that dataclass,
    `frozen` returns a new class built from the decorated one, since
    `__slots__` must be known when a class is made.

    `__slots__` holds the fields, and no `__weakref__`: `vars(record)`
    and a weak reference to a record raise TypeError.  A class that
    defines a `cached_property` (`CoverProfile`) also gets a `__dict__`
    slot, which holds the cache and nothing else.  `__init__` stores each
    field through its slot's descriptor `__set__`, not through
    `object.__setattr__`.  Against the earlier records, which kept their
    fields in the instance `__dict__` (best of 15 x 100,000 builds,
    CPython 3.11.7, Intel Xeon): `_new_marked` of a `DeterminantLift`
    0.81 -> 0.49 µs (0.25 µs since its twin, below), `Rank2EqData(...)`
    with its checks 1.92 -> 1.50 µs; a list of 10,000 marked
    `DeterminantLift`s traced 1.13 -> 0.73 MB.  Over ten alternating
    `perfbench/run.py --workload lambda` pairs, its `wall_s` fell from
    1.350 to 1.215 s (medians, lower in all ten) and its peak RSS from
    46.2 to 43.8 MB.  Building the 19 record classes
    takes about 4.3 ms, against 4.2 ms without the rebuild: nearly all
    of it is the `exec`, and the rebuild itself costs about 10 µs a
    class.

    Not `dataclasses`: start-up is most of a CLI run, and without cached
    bytecode a CLI child pays about 9 ms to import it (with `inspect`,
    `ast`, `dis` and `tokenize`) and about 0.7 ms of code generation per
    record, against about 0.15 ms per record here (CPython 3.11, Intel
    Xeon).  `__init__`, `__eq__` and `__hash__` come from one `exec` per
    class, so they run as fast as the dataclass ones.

    A class that sets `_mark = None` (not a field: it has no annotation)
    makes records that can carry a validity mark, in a slot `_mark` of
    its own outside the fields, so equality, hashing, repr and JSON do
    not see it.  `__init__` sets it to None; `mark` sets it on a record
    that passed a validator, and such a class gets the private
    constructor `_new_marked(mark, *fields)`, which builds a record with
    it and skips `__post_init__`, so its caller passes final field
    values: mappings already FrozenDicts in any record it returns.  A
    copied or unpickled record is built by `__init__`, so it is unmarked
    and is validated again.  In a slot the mark costs every record of
    its class 8 bytes and nothing more, where in the instance `__dict__`
    it had to be the only attribute ever added after `__init__`: a
    second one outgrew CPython 3.11's shared key table and gave every
    marked record a dict of its own (about 280 bytes).

    The slots of such a class sit on a private base class, its twin
    (`_DeterminantLiftSlots` for `DeterminantLift`), which keeps
    object's own `__setattr__`; the record subclasses it with
    `__slots__ = ()` and its raising `__setattr__` and `__delattr__`.
    `_new_marked` allocates a twin, stores each field and the mark with
    a plain attribute store, which CPython 3.11 specialises to a slot
    store on a class with object's `__setattr__`, and then makes it the
    record by assigning `__class__`, which the shared layout allows.  So
    what it returns is exactly the record class, immutable, with the
    fields, equality, hash, repr, pickle and JSON of one built by
    `__init__`, which still stores through the descriptors and runs the
    checks.  The twin must be the base: a twin subclassing the record
    has to define `__setattr__` to undo the record's, and the stores of
    a class that defines it are not specialised (a marked build 457 ->
    420 ns that way in a prototype).  Best of 9 x 200,000
    builds (CPython 3.11.7, 2-core Intel Xeon), descriptor stores ->
    twin: `_new_marked` of a `DeterminantLift` 392 -> 245 ns, of a
    `Rank2EqData` 330 -> 247 ns, of an `AdmissibleParabolicDatum` 443
    -> 255 ns and of a `GradedPoint` 389 -> 247 ns; `equivariant._rank2`,
    a marked lift and datum, 1.20 -> 0.90 µs.
    """
    names = tuple(cls.__annotations__)
    namespace = {"_new": object.__new__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    markable = "_mark" in cls.__dict__
    slots = names + ("_mark",) * markable
    stores = [f"    _set_{name}(self, {name})" for name in names]
    unmarked = ["    _set__mark(self, None)"] * markable
    post_init = ["    self.__post_init__()"] * hasattr(cls, "__post_init__")
    own = "".join(f"self.{name}, " for name in names)
    other = "".join(f"other.{name}, " for name in names)
    marked = []
    if markable:
        # built as the twin, whose plain stores CPython specialises, then made the record
        marked = [f"def _new_marked(_mark, {', '.join(params)}):", "    self = _new(_twin)",
                  *(f"    self.{name} = {name}" for name in slots),
                  "    self.__class__ = _cls", "    return self"]
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):", *stores, *unmarked, *post_init, *marked,
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({own}) == ({other})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({own}))",
    ]), namespace)

    body = {attr: value for attr, value in cls.__dict__.items()
            if attr not in slots and attr not in ("__dict__", "__weakref__")}
    cached = any(isinstance(value, cached_property) for value in body.values())
    generated = {"__repr__": _record_repr, "__setattr__": _no_assignment,
                 "__delattr__": _no_deletion, "__reduce__": _record_reduce,
                 "__setstate__": _no_state, "__match_args__": names}
    for attr in ("__init__", "__eq__", "__hash__"):
        generated[attr] = namespace[attr]
        generated[attr].__qualname__ = f"{cls.__qualname__}.{attr}"  # as in TypeError texts
    bases, own_slots = cls.__bases__, slots + ("__dict__",) * cached
    if markable:
        generated["_new_marked"] = staticmethod(namespace["_new_marked"])
        namespace["_twin"] = type(f"_{cls.__name__}Slots", bases, {
            "__slots__": own_slots, "__module__": cls.__module__,
            "__qualname__": f"_{cls.__qualname__}Slots"})
        bases, own_slots = (namespace["_twin"],), ()
    body = {**generated, **body, "__slots__": own_slots, "__qualname__": cls.__qualname__}
    cls = type(cls)(cls.__name__, bases, body)
    # the generated functions read these as globals when called, so they can
    # name the rebuilt class and its slot descriptors, which exist only now
    namespace["_cls"] = cls
    namespace.update((f"_set_{name}", getattr(cls, name).__set__) for name in slots)
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _no_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record_reduce(self) -> tuple:
    # a copy or a pickle is a constructor call on the fields, never a raw store
    return (self.__class__, tuple(getattr(self, name) for name in self.__match_args__))


def _no_state(self, state):
    # pickle's by-name form would store the state raw, past the checks
    raise AttributeError(f"a {self.__class__.__qualname__} takes no state: it loads only as "
                         f"a constructor call on its fields")


def mark(record, value):
    """Mark record with value, which its validator reads back (see frozen).

    The validators of `equivariant` and `graded` mark a record that
    passed them with the profile object it was checked against (a
    parabolic datum with the pair of that profile and its read-only
    weight numerators), and return at once on a record marked for the
    same profile object.  Every record they take is markable: its
    constructor checked its field types, so its mappings are FrozenDicts
    holding ints, Fractions, strs and tuples of ints, and nothing in it
    can change.
    """
    object.__setattr__(record, "_mark", value)


class FrozenDict(dict):
    """A dict that cannot change: every mutator raises TypeError.

    Reads, iteration order, repr, `json.dumps`, `to_json` and equality
    with plain dicts are a dict's, and so is the hash (none); `copy()`
    and `|` return a plain dict.  A record's `__post_init__` wraps its
    mapping fields with `freeze`.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


def freeze(value, what: str) -> FrozenDict:
    """A dict as a FrozenDict: one already frozen is shared, a plain one copied.

    The one check that a record's map, or a map an operation takes, is a
    dict: anything else (a list, a str, a read-only view of a dict) is
    InvalidDatum naming `what`.
    """
    if not isinstance(value, dict):
        raise InvalidDatum(f"{what} must be a dict, got {type(value).__name__}")
    return value if type(value) is FrozenDict else FrozenDict(value)


def parse_object(doc: object, where: str, required: dict, optional: dict | None = None) -> dict:
    """Parse an object whose field set is fixed.

    required maps field name -> converter, optional maps field name ->
    (converter, default).  Unknown and missing fields are rejected; the
    result holds every field, converted or defaulted.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    optional = optional or {}
    if doc.keys() != required.keys():  # the common case, exactly the required fields, skips this
        extra = doc.keys() - required.keys() - optional.keys()
        if extra:
            raise SchemaError(f"unknown {where} fields: {sorted(extra, key=str)}")
        missing = required.keys() - doc.keys()
        if missing:
            raise SchemaError(f"{where} requires fields: {sorted(missing)}")
    out = {}
    for name, conv in required.items():
        out[name] = conv(doc[name], f"{where}.{name}")
    for name, (conv, default) in optional.items():
        out[name] = conv(doc[name], f"{where}.{name}") if name in doc else default
    return out


# keep CLI outputs bounded; larger collections report counts only
LIST_CAP = 128


# The most characters a --file may hold.  _load_json reads less than one chunk
# more, so an endless input such as /dev/zero is refused after 16 Mi characters.
# Near the bound, a 15.96 MiB profile of 620,000 orbits took 3.1 s of CPU
# time and a peak RSS of 287 MB as one `fixloc kernel` process, on one core
# of an Intel Xeon under CPython 3.11.7; /dev/zero was refused in 0.1 s at 30 MB.
MAX_FILE_CHARS = 2 ** 24


def _load_json(path: str):
    """The JSON document in the file at path, as a CLI command reads its
    --file: SchemaError when it cannot be read or parsed, or when it holds
    more than MAX_FILE_CHARS characters."""
    import json  # CLI input only; a library import loads no json
    try:
        # in chunks: one read of the bound would allocate the bound at once
        parts, size = [], 0
        with open(path, "r", encoding="utf-8") as fh:
            while size <= MAX_FILE_CHARS and (part := fh.read(1 << 16)):
                parts.append(part)
                size += len(part)
        if size > MAX_FILE_CHARS:
            raise SchemaError(f"{path} is past the --file limit of {MAX_FILE_CHARS} characters")
        return json.loads("".join(parts))
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}")
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, undecodable bytes, nesting past the recursion limit,
        # an integer literal past the digit limit
        raise SchemaError(f"cannot read {path}: {exc}")


def is_int(obj: object) -> bool:
    """An int that is not a bool."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def check_int(value: object, what: str) -> None:
    """InvalidDatum naming `what` unless value is an exact int (is_int).

    The one check of an int that a record or an operation takes; an
    exact int, the common case, costs one identity test.
    """
    if type(value) is not int and not is_int(value):
        raise InvalidDatum(f"{what} must be an int, got {type(value).__name__}")


def int_digit_limit() -> int:
    """The most digits this Python writes an int with
    (sys.get_int_max_str_digits, 4,300 by default); 0, or a Python without
    the limit, means none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def int_text(count: int) -> str:
    """A count as a message states it: in decimal, or "10^D or more" when it
    has more digits than Python writes an int with (int_digit_limit)."""
    try:
        return str(count)
    except ValueError:
        return f"10^{int_digit_limit()} or more"


def int_map(value: object, what: str) -> FrozenDict:
    """freeze(value) of a map of exact ints; `what` names an entry, and its plural the map."""
    value = freeze(value, f"{what}s")
    for label, item in value.items():
        if type(item) is not int:  # the common case skips naming the entry
            check_int(item, f"{what} at {label!r}")
    return value


def is_rational(obj: object) -> bool:
    """An int that is not a bool, or a Fraction: an exact rational, never a float or a string."""
    if is_int(obj):
        return True
    import fractions  # as in rat_from_json: the module is not loaded at start-up
    return isinstance(obj, fractions.Fraction)


def require_int(obj: object, where: str) -> int:
    if not is_int(obj):
        raise SchemaError(f"{where} must be an integer")
    return obj


def require_str(obj: object, where: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(f"{where} must be a string")
    return obj


def one_of(*choices):
    """Converter accepting exactly the given values."""
    def parse(obj: object, where: str):
        if obj not in choices:
            raise SchemaError(f"{where} must be " + " or ".join(map(repr, choices)))
        return obj
    return parse


def list_of(conv):
    def parse(obj: object, where: str) -> list:
        if not isinstance(obj, list):
            raise SchemaError(f"{where} must be a list")
        return [conv(item, f"{where}[{i}]") for i, item in enumerate(obj)]
    return parse


def pair_of(conv):
    def parse(obj: object, where: str) -> tuple:
        if not isinstance(obj, list) or len(obj) != 2:
            raise SchemaError(f"{where} must be a two-element list")
        return (conv(obj[0], f"{where}[0]"), conv(obj[1], f"{where}[1]"))
    return parse


def dict_of(conv):
    """Object with free string keys (orbit labels) and converted values."""
    def parse(obj: object, where: str) -> dict:
        if not isinstance(obj, dict):
            raise SchemaError(f"{where} must be an object")
        return {require_str(k, f"{where} key"): conv(v, f"{where}[{k!r}]")
                for k, v in obj.items()}
    return parse


def to_json(value: object) -> object:
    """The JSON document of a value, the mirror of parse_object.

    A `frozen` record is an object of its fields in `__match_args__`
    order, a dict an object in sorted key order, a tuple or a list a
    list, and a Fraction its `rat_to_json`, converted all the way down;
    any other value is its own document.
    """
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in sorted(value.items())}
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    fields = getattr(value, "__match_args__", None)
    if fields is not None:
        return {name: to_json(getattr(value, name)) for name in fields}
    import fractions  # as in rat_from_json: the module is not loaded at start-up
    return rat_to_json(value) if isinstance(value, fractions.Fraction) else value


def rat_to_json(x: Fraction | int) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def rat_from_json(obj: object, where: str = "value") -> Fraction:
    """Accept either a bare integer or a {num, den} object."""
    import fractions  # only rational readers load it; per call, cheaper than a from-import
    if isinstance(obj, dict):
        parts = parse_object(obj, where, {"num": require_int, "den": require_int})
        if parts["den"] == 0:
            raise SchemaError(f"{where}: zero denominator")
        return fractions.Fraction(parts["num"], parts["den"])
    if is_int(obj):
        return fractions.Fraction(obj)
    raise SchemaError(f"{where} must be an integer or a {{num, den}} object")
