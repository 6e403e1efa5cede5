"""The GF(q)-valued Fourier transform and convolution on admissible groups.

ft(f)(alpha) = sum_x f(x) chi_alpha(x).  Applying ft twice yields
(|G| mod p) * f(-alpha), so the transform is invertible with the scalar
inverse of |G| mod p.

Every sum over G here goes through one kernel: each term is a power g^k of
the primitive element, given by its discrete log k, and the sum is the
coordinatewise sum of the terms' coefficient vectors, reduced mod p once.
The transforms feed it the logs of f(x) chi_alpha(x), read from exponent
rows.  Convolution and the autocorrelations behind the derivative bent
criteria feed it the logs of F(alpha + x) H(x), read from translation rows,
so they never go through the transform.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .characters import ScalarFunction, inner_product
from .errors import SpecMismatch
from .field import FieldContext, FieldElement
from .group import GroupSpec


def _log_sum(ctx: FieldContext, logs: Iterable[int]) -> int:
    """Code of sum_k g^k over the discrete logs k (any integers)."""
    exp, coeffs, q1, p = ctx._exp, ctx._coeffs, ctx.q - 1, ctx.p
    terms = [coeffs[exp[k % q1]] for k in logs]
    return sum(sum(col) % p * w for col, w in zip(zip(*terms), ctx._pw))


def _nonzero_logs(ctx: FieldContext, values: Sequence[FieldElement]) -> list[tuple[int, int]]:
    """(index, discrete log) of every nonzero value."""
    return [(x, ctx._log[v.code]) for x, v in enumerate(values) if v.code]


def _transform(f: ScalarFunction, sign: int, scale_mod_p: int) -> ScalarFunction:
    spec = f.spec
    ctx = spec.ctx
    # chi_alpha(x) = u^k = g^(k * step); the scale is a nonzero element of GF(p).
    step = sign * ctx._step
    terms = [(x, b + ctx._log[scale_mod_p]) for x, b in _nonzero_logs(ctx, f.values)]
    out = []
    for alpha in spec.elements():
        row = spec.exponent_row(alpha)
        out.append(FieldElement(ctx, _log_sum(ctx, (b + step * row[x] for x, b in terms))))
    return ScalarFunction(spec, tuple(out))


def ft(f: ScalarFunction) -> ScalarFunction:
    """Fourier transform: alpha -> sum_x f(x) chi_alpha(x)."""
    return _transform(f, 1, 1)


def inverse_ft(F: ScalarFunction) -> ScalarFunction:
    """Inverse transform: x -> (|G| mod p)^-1 sum_alpha F(alpha) conj(chi_alpha(x))."""
    return _transform(F, -1, F.spec.inv_order_mod_p)


def _correlate(
    spec: GroupSpec, pairs: Sequence[tuple[Sequence[FieldElement], Sequence[FieldElement]]]
) -> ScalarFunction:
    """alpha -> sum_x sum_i F_i(alpha + x) * H_i(x), for tables (F_i, H_i) on spec."""
    ctx = spec.ctx
    # Per pair: the logs of F by index, None at zeros, and the nonzero entries of H.
    logs = [
        ([ctx._log[v.code] if v.code else None for v in F], _nonzero_logs(ctx, H))
        for F, H in pairs
    ]
    out = []
    for alpha in spec.elements():
        row = spec.translate_row(alpha)
        terms = (a + b for lf, lh in logs for x, b in lh if (a := lf[row[x]]) is not None)
        out.append(FieldElement(ctx, _log_sum(ctx, terms)))
    return ScalarFunction(spec, tuple(out))


def convolve(f: ScalarFunction, g: ScalarFunction) -> ScalarFunction:
    """(f * g)(alpha) = sum_x f(x) g(-x + alpha) = sum_y f(alpha + y) g(-y)."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    spec = f.spec
    g_neg = tuple(g.at(spec.neg(y)) for y in spec.elements())
    return _correlate(spec, [(f.values, g_neg)])


def plancherel_check(f: ScalarFunction, g: ScalarFunction) -> bool:
    """sum_x f(x) conj(g(x)) == (|G| mod p)^-1 sum_a ft(f)(a) conj(ft(g)(a)),
    with both sides computed independently."""
    lhs = inner_product(f, g)
    rhs = inner_product(ft(f), ft(g))
    return lhs == rhs * f.spec.ctx.from_int(f.spec.inv_order_mod_p)


def parseval_check(f: ScalarFunction) -> bool:
    """Energy identity: sum_x norm(f(x)) == (|G| mod p)^-1 sum_a norm(ft(f)(a)).

    For circle-valued f the spectral side additionally equals
    (|G| mod p)^2; that case is checked too.
    """
    spec = f.spec
    ctx = spec.ctx
    F = ft(f)
    lhs = inner_product(f, f)
    spectral = inner_product(F, F)
    if lhs != spectral * ctx.from_int(spec.inv_order_mod_p):
        return False
    if f.circle_witness() is None:
        c = ctx.from_int(spec.order_mod_p)
        if spectral != c * c:
            return False
    return True
