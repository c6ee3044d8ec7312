"""Exact scalars: the rational text format and the checks on k and on indices.

Rationals are stdlib ``fractions.Fraction`` values (always reduced, positive
denominator, exact equality); ``_EXACT`` names the two exact scalar types,
int and Fraction, that every check here and every DualComplex coefficient
is held to. This is the one module every command loads, so it holds only
what the commands run. The quadratic extension ``QuadExt`` and its helpers
live in ``quadext``, which no command loads; read as attributes of this
module, they load it on first use.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?", re.ASCII)  # 0-9 only, as rendered
# What text flags and names may be padded with; str.strip() with no argument
# would also take Unicode spaces and the separators \x1c-\x1f.
ASCII_SPACE = " \t\n\r\v\f"


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (ASCII decimal digits, q > 0) into a Fraction.

    Surrounding ASCII whitespace is ignored. Rejects everything else with
    ValueError (zero or signed denominators, decimals, exponents, empty
    strings, other scripts' digits and spaces) and a non-str with TypeError.
    """
    if type(text) is not str:
        raise TypeError(f"rational text must be str, got {type(text).__name__}")
    s = text.strip(ASCII_SPACE)
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational: {text!r}")
    return Fraction(s)


# The exact scalar types. The test is on the exact type, so a bool, which
# subclasses int, is turned away as well as a float.
_EXACT = (int, Fraction)


def positive_k(k: Fraction | int) -> Fraction | int:
    """The parameter k checked exact and positive: an int when integral, else a Fraction.

    Anything else, a float above all, is rejected rather than converted, so an
    inexact value can never enter through k. The exact type test also turns
    away bool, which subclasses int.
    """
    if type(k) not in _EXACT or k <= 0:
        shown = str(k) if type(k) in _EXACT else repr(k)  # an exact k reads as typed: 0, -3/2
        raise ValueError(f"k must be a positive int or Fraction, got {shown}")
    return k.numerator if k.denominator == 1 else k


def exact_index(n: int, least: int | None = None, name: str = "n") -> int:
    """An index or count checked to be exactly an int (not a bool), and >= least if given.

    ``name`` is the argument the error message names; it changes nothing else.
    """
    if type(n) is not int:
        raise ValueError(f"{name} must be int, got {n!r}")
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


# The names that moved to quadext: read through this module, as by a caller
# that still looks QuadExt up here, they load it on use (PEP 562).
_QUADEXT_NAMES = ("QuadExt", "_rational_sqrt", "make_alpha_beta", "rationalize", "render_rational")


def __getattr__(name: str):
    if name not in _QUADEXT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import quadext

    return getattr(quadext, name)
