"""Records and JSON document parsing.

`frozen` makes a class an immutable record over its annotated fields;
every layer's profiles, exponent data, reports and verdicts are records.
A record's mapping fields are `FrozenDict`s, read-only dicts, and a
record can carry a validity mark (`mark`).

A converter takes (value, where) and returns the parsed value, or raises
SchemaError naming `where`, the value's path in the document
(`profile.orbits[0].k`).  Every document parser is itself a converter,
so documents nest.  Parsers check shape and types; the constructors
and operations that receive the parsed values check the mathematics.
"""

from __future__ import annotations

from .errors import SchemaError


def frozen(cls):
    """Class decorator: an immutable record over the annotated fields.

    The fields are the class's own annotations, in order; a class
    attribute of the same name is that field's default.  The record gets
    what `dataclasses.dataclass(frozen=True)` would give it: an
    `__init__` taking the fields by position or keyword (and calling
    `__post_init__` when the class has one), `__eq__` and `__hash__` over
    the field tuple, `Qualname(field=value, ...)` as its `__repr__`,
    `__match_args__`, and `AttributeError` on assignment and deletion.
    A method the class defines itself is kept.  There are no `__slots__`,
    so `cached_property` works.

    Not `dataclasses`: start-up is most of a CLI run, and without cached
    bytecode a CLI child pays about 9 ms to import it (with `inspect`,
    `ast`, `dis` and `tokenize`) and about 0.7 ms of code generation per
    record, against about 0.15 ms per record here (CPython 3.11, Intel
    Xeon).  `__init__`, `__eq__` and `__hash__` come from one `exec` per
    class, so they run as fast as the dataclass ones.  `__init__` sets
    each field with `object.__setattr__`, not through `self.__dict__`:
    with `__dict__` writes the `lambda` benchmark was slower in four of
    four pairs, `wall_s` 1.67–1.77 s against 1.41–1.53 s.

    A class that sets `_mark = None` (not a field: it has no annotation)
    makes records that can carry a validity mark.  The mark lives in the
    instance `__dict__` as `_mark`, outside the fields, so equality,
    hashing, repr and JSON do not see it; the class attribute is its
    value on an unmarked record.  `mark` sets it on a record that passed
    a validator, and such a class gets the private constructor
    `_new_marked(mark, *fields)`, which builds a record with it and
    skips `__post_init__`, so its caller passes final field values:
    mappings already FrozenDicts in any record it returns.  The mark is
    a single attribute because CPython 3.11 keeps an instance's
    attributes in an array sized by its class's shared key table, which
    takes one key added after many instances were built; a second such
    key gave every marked instance a dict of its own (about 280 bytes).  Every record's
    `__getstate__` leaves the mark out, so a copied or unpickled record
    is unmarked and is validated again.
    """
    names = tuple(cls.__annotations__)
    namespace = {"_setattr": object.__setattr__, "_new": object.__new__, "_cls": cls}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    body = [f"    _setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    own = "".join(f"self.{name}, " for name in names)
    other = "".join(f"other.{name}, " for name in names)
    marked = []
    if "_mark" in cls.__dict__:
        marked = [f"def _new_marked(_mark, {', '.join(params)}):", "    self = _new(_cls)",
                  *body[:len(names)], "    _setattr(self, '_mark', _mark)", "    return self"]
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):", *body, *marked,
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({own}) == ({other})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({own}))",
    ]), namespace)
    generated = {}
    for attr in ("__init__", "__eq__", "__hash__"):
        generated[attr] = namespace[attr]
        generated[attr].__qualname__ = f"{cls.__qualname__}.{attr}"  # as in TypeError texts
    generated.update(__repr__=_record_repr, __setattr__=_no_assignment,
                     __delattr__=_no_deletion, __getstate__=_unmarked_state,
                     __match_args__=names)
    if marked:
        generated["_new_marked"] = staticmethod(namespace["_new_marked"])
    for attr, value in generated.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, value)
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _no_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _unmarked_state(self) -> dict:
    state = self.__dict__.copy()
    state.pop("_mark", None)
    return state


def mark(record, value):
    """Mark record with value, which its validator reads back (see frozen).

    The validators of `equivariant` and `locus` mark a record that
    passed them with the profile object it was checked against (a
    parabolic datum with the pair of that profile and its read-only
    weight numerators), and return at once on a record marked for the
    same profile object.  Only
    records whose fields cannot change are marked: their mappings are
    FrozenDicts and the values in them immutable.
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


def freeze(value):
    """A dict as a FrozenDict: one already frozen is shared, a plain one copied.

    Any other value is returned as it is, so that the validators meet it
    and raise the errors they raised before records froze their fields.
    """
    if type(value) is FrozenDict or not isinstance(value, dict):
        return value
    return FrozenDict(value)


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


def is_int(obj: object) -> bool:
    """An int that is not a bool."""
    return isinstance(obj, int) and not isinstance(obj, bool)


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
