"""Bridge to the classical complex-valued notion of bentness.

A table of m-th roots of unity on G (m dividing the circle order s) can be
read two ways: as a complex-valued function, via zeta_m = exp(2*pi*i/m),
or as a circle-valued function in the field, via the order-m circle
generator u_m.  The classical verdict is exact: the autocorrelation at a is
c_a(zeta_m), where c_a counts the differences e(a + x) - e(x) mod m, so the
table is classically bent iff Phi_m divides every c_a with a != 0 in Z[x].
Two count routes divide them: the search's kernel for `compare
--exhaustive`, and for one table `bent._passes`, which takes the counts of
each row from `GroupSpec._difference_counts`.  classical_ft runs the field
transform's separable pass exactly, in Z[x]/(x^s - 1), and rounds once,
when it evaluates the lane counts at zeta_s.  The embedding into the field
is exact.  Being bent on the complex side implies being bent on the field
side, and comparison_check flags any observed counterexample to that
implication.
"""

from __future__ import annotations

import cmath
import functools
import math
from operator import lshift, mul
from typing import Sequence

from .bent import _passes, is_bent_spectral
from .characters import Record, ScalarFunction
from .errors import InvalidOrder, SpecMismatch
from .field import _divmod_monic
from .group import GroupSpec, _lane_bits, _unpack_lanes


class ExponentFunction(Record):
    """A table G -> Z_m of exponents; the function is x -> zeta_m^exponents[x]."""

    __slots__ = ("spec", "m", "exponents")
    spec: GroupSpec
    m: int
    exponents: tuple[int, ...]

    def _validate(self, spec: GroupSpec, m: int, exponents: Sequence[int]) -> tuple:
        _check_root_order(spec, m)
        if len(exponents) != spec.order:
            raise SpecMismatch(
                f"exponent table has {len(exponents)} entries, group has {spec.order}"
            )
        return spec, m, tuple(int(e) % m for e in exponents)


def _check_root_order(spec: GroupSpec, m: int) -> None:
    s = spec.ctx.circle_order
    if m < 1 or s % m:
        raise InvalidOrder(
            f"root order {m} does not divide the circle order {s}",
            witness=m,
        )


def _lane_ft(ef: ExponentFunction) -> tuple[list[int], int]:
    """The transform in Z[x]/(x^s - 1), s the circle order: each value is
    sum_k c_k x^k, where c_k counts the x with e(x) s/m + (alpha . x) = k
    mod s, packed as s lanes of b bits with x = 2^b; returns the values and b.

    A lane never exceeds |G| < 2^b - 1, so the packed ints are exact mod
    2^(s b) - 1, and a twiddle x^k is a shift by k b reduced mod it."""
    spec = ef.spec
    s = spec.ctx.circle_order
    spec._check_work(sum(spec.dims) * s)
    bits = _lane_bits(spec.order + 1)
    ring, step = (1 << s * bits) - 1, s // ef.m
    values = [1 << bits * (e * step) for e in ef.exponents]
    for d, c, lines in spec._axes():
        shifts = [[bits * (c * a * t % s) for t in range(d)] for a in range(d)]
        for line in lines:
            xs = values[line]
            values[line] = [sum(map(lshift, xs, row)) % ring for row in shifts]
    return values, bits


def classical_ft(ef: ExponentFunction) -> list[complex]:
    """Complex Fourier transform of x -> zeta_m^e(x), using the complex
    characters that match the field characters exponent-for-exponent: the
    exact lane counts of _lane_ft, evaluated at zeta_s once per value."""
    values, bits = _lane_ft(ef)
    s = ef.spec.ctx.circle_order
    zs = [cmath.exp(2j * math.pi * k / s) for k in range(s)]
    return [sum(map(mul, zs, _unpack_lanes(v, bits, s))) for v in values]


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
    return _passes(spec, ef.exponents, ef.m, _classical_verdict(spec, ef.m))


def _classical_verdict(spec: GroupSpec, m: int) -> tuple[tuple[int, ...], int]:
    """(Phi_m, 0): Phi_m dividing the counts in Z[x], with no field arithmetic; checks m | s."""
    _check_root_order(spec, m)
    return _cyclotomic(m), 0


def embed(ef: ExponentFunction) -> ScalarFunction:
    """Exact transport to the field: zeta_m^k -> u_m^k, pointwise."""
    return ScalarFunction.from_exponents(ef.spec, ef.m, ef.exponents)


def comparison_check(ef: ExponentFunction) -> bool:
    """True unless ef is bent classically but its embedding is not bent in
    the field; a False here is a correctness alarm, not an expected outcome."""
    return not is_classical_bent(ef) or is_bent_spectral(embed(ef)).is_bent
