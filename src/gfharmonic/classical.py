"""Bridge to the classical complex-valued notion of bentness.

A table of m-th roots of unity on G (m dividing the circle order) can be
read two ways: as a complex-valued function, via zeta_m = exp(2*pi*i/m),
or as a circle-valued function in the field, via the order-m circle
generator u_m.  The classical verdict is exact: the autocorrelation at a is
c_a(zeta_m), where c_a counts the differences e(a + x) - e(x) mod m, so the
table is classically bent iff Phi_m divides every c_a with a != 0 in Z[x];
the search's count kernel counts them.  Only classical_ft is complex-valued;
the embedding into the field is exact.  Being bent on the complex side
implies being bent on the field side, and comparison_check flags any
observed counterexample to that implication.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

from .bent import _CountKernel, _direction_rows, is_bent_spectral
from .characters import Record, ScalarFunction
from .errors import InvalidOrder, SpecMismatch
from .field import _divmod_monic
from .group import GroupSpec


class ExponentFunction(Record):
    """A table G -> Z_m of exponents; the function is x -> zeta_m^exponents[x]."""

    __slots__ = ("spec", "m", "exponents")
    spec: GroupSpec
    m: int
    exponents: tuple[int, ...]

    def _validate(self):
        _check_root_order(self.spec, self.m)
        if len(self.exponents) != self.spec.order:
            raise SpecMismatch(
                f"exponent table has {len(self.exponents)} entries, "
                f"group has {self.spec.order}"
            )
        object.__setattr__(
            self, "exponents", tuple(int(e) % self.m for e in self.exponents)
        )


def _check_root_order(spec: GroupSpec, m: int) -> None:
    s = spec.ctx.circle_order
    if m < 1 or s % m:
        raise InvalidOrder(
            f"root order {m} does not divide the circle order {s}",
            witness=m,
        )


def _roots_of_unity(t: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / t) for k in range(t)]


def classical_ft(ef: ExponentFunction) -> list[complex]:
    """Complex Fourier transform of x -> zeta_m^e(x), using the complex
    characters that match the field characters exponent-for-exponent."""
    spec = ef.spec
    spec._check_work(spec.order)
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


@functools.cache
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, low degree first: x^m - 1 divided exactly by Phi_d for every
    proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divmod_monic(poly, _cyclotomic(d))[0]
    return tuple(poly)


def is_classical_bent(ef: ExponentFunction) -> bool:
    """True when every classical autocorrelation at a != 0 vanishes, that
    is, when Phi_m divides the difference counts c_a in Z[x]; decided in
    integers, stopping at the first failing direction."""
    spec = ef.spec
    spec._check_work(spec.order)
    kernel = _CountKernel(spec.order, ef.m, _classical_verdict(spec, ef.m))
    return kernel.holds(ef.exponents, _direction_rows(spec))


def _phi_divides(phi: tuple[int, ...], counts: list[int]) -> bool:
    return not any(_divmod_monic(counts, phi)[1])


def _classical_verdict(spec: GroupSpec, m: int) -> Callable[[list[int]], bool]:
    """Whether Phi_m divides counts c in Z[x], with no field arithmetic; checks m | s."""
    _check_root_order(spec, m)
    return functools.partial(_phi_divides, _cyclotomic(m))


def embed(ef: ExponentFunction) -> ScalarFunction:
    """Exact transport to the field: zeta_m^k -> u_m^k, pointwise."""
    return ScalarFunction.from_exponents(ef.spec, ef.m, ef.exponents)


def comparison_check(ef: ExponentFunction) -> bool:
    """True unless ef is bent classically but its embedding is not bent in
    the field; a False here is a correctness alarm, not an expected outcome."""
    return not is_classical_bent(ef) or is_bent_spectral(embed(ef)).is_bent
