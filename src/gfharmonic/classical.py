"""Bridge to the classical complex-valued notion of bentness.

A table of m-th roots of unity on G (m dividing the circle order) can be
read two ways: as a complex-valued function, via zeta_m = exp(2*pi*i/m),
or as a circle-valued function in the field, via the order-m circle
generator u_m.  The complex side is evaluated in double precision against
complex characters matched index-for-index with the field characters
(same exponent data); the embedding into the field is exact.  Being bent
on the complex side implies being bent on the field side, and
comparison_check flags any observed counterexample to that implication.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

from .bent import is_bent_spectral
from .characters import Record, ScalarFunction
from .errors import InvalidOrder, SpecMismatch
from .group import GroupSpec


class ExponentFunction(Record):
    """A table G -> Z_m of exponents; the function is x -> zeta_m^exponents[x]."""

    __slots__ = ("spec", "m", "exponents")
    spec: GroupSpec
    m: int
    exponents: tuple[int, ...]

    def _validate(self):
        s = self.spec.ctx.circle_order
        if self.m < 1 or s % self.m:
            raise InvalidOrder(
                f"root order {self.m} does not divide the circle order {s}",
                witness=self.m,
            )
        if len(self.exponents) != self.spec.order:
            raise SpecMismatch(
                f"exponent table has {len(self.exponents)} entries, "
                f"group has {self.spec.order}"
            )
        object.__setattr__(
            self, "exponents", tuple(int(e) % self.m for e in self.exponents)
        )


def _roots_of_unity(t: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / t) for k in range(t)]


def classical_ft(ef: ExponentFunction) -> list[complex]:
    """Complex Fourier transform of x -> zeta_m^e(x), using the complex
    characters that match the field characters exponent-for-exponent."""
    spec = ef.spec
    s = spec.ctx.circle_order
    zs = _roots_of_unity(s)
    zm = _roots_of_unity(ef.m)
    values = [zm[e] for e in ef.exponents]
    out = []
    for alpha in spec.elements():
        acc = 0j
        for v, k in zip(values, spec.exponent_row(alpha)):
            acc += v * zs[k]
        out.append(acc)
    return out


def is_classical_bent(ef: ExponentFunction, tol: Optional[float] = None) -> bool:
    """True when every spectral magnitude squared is |G|, within tol
    (default 1e-6 scaled by |G|)."""
    order = ef.spec.order
    if tol is None:
        tol = 1e-6 * order
    return all(abs(abs(v) ** 2 - order) <= tol for v in classical_ft(ef))


def embed(ef: ExponentFunction) -> ScalarFunction:
    """Exact transport to the field: zeta_m^k -> u_m^k, pointwise."""
    return ScalarFunction.from_exponents(ef.spec, ef.m, ef.exponents)


def comparison_check(ef: ExponentFunction, tol: Optional[float] = None) -> bool:
    """True unless ef is bent classically but its embedding is not bent in
    the field; a False here is a correctness alarm, not an expected outcome."""
    if not is_classical_bent(ef, tol):
        return True
    return is_bent_spectral(embed(ef)).is_bent
