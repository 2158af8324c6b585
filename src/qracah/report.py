"""Structured results of identity checks and their serialization."""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

SCHEMA_VERSION = 1
# one encoder for every report: json.dumps builds one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _digits(n: int) -> str:
    """str(n) for an int of any length: str() refuses ints longer than
    sys.get_int_max_str_digits() digits, and Decimal converts without that
    limit, to the same digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _ratio(x: Fraction) -> str:
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def serialize_value(x):
    """Canonical JSON-friendly form: exact rationals as "num/den" strings."""
    # the common types first: isinstance(x, Fraction) on any other type
    # runs the slow ABC check
    if type(x) is int or type(x) is str:
        return x
    if isinstance(x, Fraction):
        return _ratio(x) if x.denominator != 1 else _digits(x.numerator)
    if isinstance(x, complex):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [serialize_value(v) for v in x]
    return x


def residual_string(res) -> str:
    """Residuals as decimal-style strings; exact zeros as the literal "0"."""
    if res == 0:
        return "0"
    if isinstance(res, Fraction):
        return _ratio(res)
    return repr(res)


class CheckReport(NamedTuple):
    """One verified parameter point of one identity."""

    suite: str
    check: str
    params: dict
    residual: str
    passed: bool
    backend: str
    elapsed_ms: float
    error: str = ""

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "check": self.check,
            "params": {k: serialize_value(v) for k, v in self.params.items()},
            "residual": self.residual,
            "pass": self.passed,
            "backend": self.backend,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.error:
            payload["error"] = self.error
        return _ENCODER.encode(payload)
