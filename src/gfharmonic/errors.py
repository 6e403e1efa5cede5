"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` (used by the CLI to
build structured error records) and an optional ``witness`` object naming
the offending value, point, or direction.
"""

from __future__ import annotations

from typing import Any


class HarmonicError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class NonPrime(HarmonicError):
    code = "non-prime"


class ReducibleModulus(HarmonicError):
    code = "reducible-modulus"


class DegreeMismatch(HarmonicError):
    code = "degree-mismatch"


class InvalidDegree(HarmonicError):
    code = "invalid-degree"


class DivisionByZero(HarmonicError):
    code = "division-by-zero"


class InvalidDivisor(HarmonicError):
    code = "invalid-divisor"


class InadmissibleFactor(HarmonicError):
    code = "inadmissible-factor"


class ShapeMismatch(HarmonicError):
    code = "shape-mismatch"


class SpecMismatch(HarmonicError):
    code = "spec-mismatch"


class TooLarge(HarmonicError):
    code = "too-large"


class NotCircleValued(HarmonicError):
    code = "not-circle-valued"


class NotBent(HarmonicError):
    code = "not-bent"


class NotQuadraticResidue(HarmonicError):
    code = "not-quadratic-residue"


class BudgetExceeded(HarmonicError):
    code = "budget-exceeded"


class DimensionMismatch(HarmonicError):
    code = "dimension-mismatch"


class IndexOutOfRange(HarmonicError):
    code = "index-out-of-range"


class NotOnHypersphere(HarmonicError):
    code = "not-on-hypersphere"


class InvalidOrder(HarmonicError):
    code = "invalid-order"


class MalformedInput(HarmonicError):
    code = "malformed-input"
