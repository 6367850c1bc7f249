"""JSON document parsing: one object schema helper plus field converters.

A converter takes (value, where) and returns the parsed value, or raises
SchemaError naming `where`, the value's path in the document
(`profile.orbits[0].k`).  Every document parser is itself a converter,
so documents nest.  Parsers check shape and types; the constructors
and operations that receive the parsed values check the mathematics.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError


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


def require_int(obj: object, where: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
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


def rat_to_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def rat_from_json(obj: object, where: str = "value") -> Fraction:
    """Accept either a bare integer or a {num, den} object."""
    if isinstance(obj, dict):
        parts = parse_object(obj, where, {"num": require_int, "den": require_int})
        if parts["den"] == 0:
            raise SchemaError(f"{where}: zero denominator")
        return Fraction(parts["num"], parts["den"])
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    raise SchemaError(f"{where} must be an integer or a {{num, den}} object")
