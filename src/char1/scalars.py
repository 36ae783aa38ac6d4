"""Exact rational scalars and their wire format.

All algebraic operations in the library run on arbitrary-precision
rationals; floats appear only in the explicitly flagged euclidean mode.
Rationals cross the CLI boundary as "p/q" strings (plain "p" when the
denominator is 1), which is exactly `str(Fraction)`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError


def parse_rat(text) -> Fraction:
    """Parse the "p/q" wire form."""
    if not isinstance(text, str):
        raise SchemaError(f"rational must be a string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}: {exc}") from None


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


def fmt_rat(q) -> str:
    """Format a rational for JSON output."""
    return str(Fraction(q))
