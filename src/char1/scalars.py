"""Exact rational scalars and their wire format.

All algebraic operations in the library run on arbitrary-precision
rationals; floats appear only in the explicitly flagged euclidean mode.
Rationals cross the CLI boundary as "p/q" strings (plain "p" when the
denominator is 1), which is exactly `str(Fraction)`: the grammar is
``-?[0-9]+(/[0-9]+)?`` with at most ``MAX_DIGITS`` digits in p and in q,
on input and on output.
Every decoder reads its object through ``parse_object`` and builds its
value through ``build``, so a bad wire object raises ``SchemaError``.
Inside the library every scalar argument is read by ``as_rat``, every
rational pair by ``as_pair``, every sequence a constructor takes by
``as_items`` and every natural number by ``as_nat``, and an element at a
public entry is checked by ``check_model``, so a bad one raises
``PreconditionError``.  Every norm peak picks its maximum by ``first_max``.
The library's value classes derive from ``Value``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import PreconditionError, SchemaError

# Python >= 3.11's default int-string limit, kept on every version so that
# Python 3.10 to 3.13 accept and print the same numbers.
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS
_RAT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rat(text) -> Fraction:
    """Parse the "p/q" wire form."""
    if not isinstance(text, str):
        raise SchemaError(f"rational must be a string, got {type(text).__name__}")
    m = _RAT.fullmatch(text)
    if m is None:
        raise SchemaError(f'bad rational {text!r}: expected "p" or "p/q" in decimal digits')
    p, q = m.group(1, 2)
    if len(p.lstrip("-")) > MAX_DIGITS or q is not None and len(q) > MAX_DIGITS:
        raise SchemaError(f"rational with more than {MAX_DIGITS} digits in p or q")
    num, den = int(p), int(q or 1)
    if den == 0:
        raise SchemaError(f"bad rational {text!r}: zero denominator")
    return Fraction(num, den)


def parse_int_literal(text: str) -> int:
    """``json.loads``'s ``parse_int``: a JSON integer literal of at most
    ``MAX_DIGITS`` digits."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise SchemaError(f"integer literal with more than {MAX_DIGITS} digits")
    return int(text)


def parse_object(data, what: str, *keys) -> list:
    """The values of the required ``keys`` of the JSON object ``data``.
    ``what`` names the object in the error message."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise SchemaError(f"missing field {key!r} in {what}")
    return [data[key] for key in keys]


def build(cls, *args):
    """``cls(*args)``, a constructor's precondition reported as a schema
    violation of the same text."""
    try:
        return cls(*args)
    except PreconditionError as exc:
        raise SchemaError(str(exc)) from None


def parse_list(data, what: str) -> list:
    """Check that data is a JSON list.  ``what`` names it in the error
    message."""
    if not isinstance(data, list):
        raise SchemaError(f"{what} must be a list")
    return data


def parse_pieces(data, scalar) -> tuple:
    """Parse a "pieces" list: JSON objects {"a": slope, "b": intercept},
    each coefficient decoded by ``scalar``."""
    pieces = []
    for i, p in enumerate(parse_list(data, "pieces")):
        if not isinstance(p, dict) or "a" not in p or "b" not in p:
            raise SchemaError(f'pieces[{i}] must be an object with "a" and "b"')
        pieces.append((scalar(p["a"]), scalar(p["b"])))
    return tuple(pieces)


def parse_pair(data, what: str) -> tuple[Fraction, Fraction]:
    """Parse a pair in the wire form: a JSON list of exactly two "p/q"
    strings.  ``what`` names the pair in the error message."""
    if not isinstance(data, list) or len(data) != 2:
        raise SchemaError(f"{what} must be a list of two rationals")
    return parse_rat(data[0]), parse_rat(data[1])


def as_rat(v) -> Fraction:
    """A library scalar as a ``Fraction``: a ``Fraction`` as it is, anything
    else that ``Fraction()`` accepts converted (an ``int`` too, so that
    ``/`` stays exact), and anything else a ``PreconditionError``."""
    try:
        return v if v.__class__ is Fraction else Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        raise PreconditionError(f"not a rational: {v!r}") from None


def as_pair(v, what: str, read=as_rat, kinds: str = "ints or Fractions") -> tuple:
    """A library pair, each member read by ``read`` (by default ``as_rat``).
    ``what`` names the pair in the error message, and ``kinds`` what
    ``read`` takes."""
    try:
        a, b = v
        return read(a), read(b)
    except (TypeError, ValueError):  # a PreconditionError is a ValueError
        raise PreconditionError(f"{what} must be a pair of {kinds}") from None


def as_items(v, what: str) -> tuple:
    """A library sequence argument as a tuple, and anything that is not
    iterable a ``PreconditionError``.  ``what`` names it in the error
    message."""
    try:
        return tuple(v)
    except TypeError:
        raise PreconditionError(f"{what} must be a sequence, got {type(v).__name__}") from None


def as_nat(n, least: int) -> int:
    """A natural-number argument of at least ``least``: an ``int`` after one
    ``__class__`` check, anything else ``operator.index`` takes converted,
    and anything else a ``PreconditionError``."""
    if n.__class__ is not int:
        try:
            n = operator.index(n)
        except TypeError:
            raise PreconditionError(f"not a natural number: {n!r}") from None
    if n < least:
        raise PreconditionError(f"expected a natural number >= {least}, got {n}")
    return n


def check_model(x, *classes) -> None:
    """Raise ``PreconditionError`` unless x is an element of one of the
    models ``classes``: the check at a public entry, before any walk reads
    an attribute of x."""
    if x.__class__ not in classes:
        names = " or ".join(cls.__name__ for cls in classes)
        raise PreconditionError(f"expected a {names}, got {type(x).__name__}")


def first_max(pairs) -> tuple[int, tuple[int, int]]:
    """(i, (num, den)) for the first integer pair (num, den), den > 0, whose
    ratio is largest: cross-multiplied, and a strict > keeps the first.  The
    one tie rule of every norm peak; the pair comes back as it was given."""
    best, (top, bottom) = 0, pairs[0]
    for i, (num, den) in enumerate(pairs):
        if num * bottom > top * den:
            best, top, bottom = i, num, den
    return best, (top, bottom)


def fmt_rat(q) -> str:
    """Format a rational for JSON output; a numerator or denominator of
    more than ``MAX_DIGITS`` digits is refused on every Python version."""
    q = as_rat(q)
    if not -_TOO_LONG < q.numerator < _TOO_LONG or q.denominator >= _TOO_LONG:
        raise PreconditionError(f"result has more than {MAX_DIGITS} digits in p or q")
    return str(q)


class Value:
    """The base of the immutable value classes.  A subclass declares its
    fields as class annotations, in order.  An instance takes one argument
    per field, by position or keyword, and hands them to
    ``__post_init__(self, *fields)``, which checks them and returns the
    instance's state as a dict (by default the fields as given); that dict
    is written to the ``__dict__`` once, and afterwards assigning or
    deleting an attribute raises ``AttributeError``.  When the state is the
    fields in order and nothing else, two values of one class are equal
    when their dicts are, and hash as the tuple of their fields; a class
    that keeps other state defines its own ``==`` and ``hash``.  The repr
    is ``Class(field=value, ...)``."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes the arguments "
                            f"({', '.join(fields)}), by position or keyword")
        self.__dict__.update(self.__post_init__(*args))

    def __post_init__(self, *fields) -> dict:
        return dict(zip(self._fields, fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"
