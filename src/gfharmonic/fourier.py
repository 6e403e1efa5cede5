"""The GF(q)-valued Fourier transform and convolution on admissible groups.

ft(f)(alpha) = sum_x f(x) chi_alpha(x).  Applying ft twice yields
(|G| mod p) * f(-alpha), so the transform is invertible with the scalar
inverse of |G| mod p.

Sums over G take one of two routes, both over the packed elements of
FieldContext._terms, whose format field.py owns: a sum of packed elements is
one int sum, decoded by field._reducer once.
The transform is separable, since chi_alpha(x) is a product of one factor
per coordinate: it runs a length-d transform along each coordinate of
G = prod Z_(d_j), |G| * sum_j d_j terms in all instead of |G|^2.
Convolution and the autocorrelations behind the derivative bent criteria
never transform: they sum the |G| terms F(alpha + x) H(x) for each alpha,
read from translation rows, reducing every lane before it can overflow.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .characters import ScalarFunction, inner_product
from .errors import SpecMismatch
from .field import FieldElement, _reducer
from .group import GroupSpec


def _transform(f: ScalarFunction, sign: int, scale_mod_p: int) -> ScalarFunction:
    spec, ctx = f.spec, f.spec.ctx
    n, q1 = spec.order, ctx.q - 1
    spec._check_work(sum(spec.dims))
    terms, log, code_of = ctx._terms, ctx._log, _reducer(ctx)
    # The scale, a nonzero element of GF(p), multiplies the first pass.
    shift = log[scale_mod_p]
    codes = [v.code for v in f.values]
    for d, st, c in zip(spec.dims, spec._strides, spec.coord_steps):
        # Along this axis chi_alpha(x) has the factor u^(c a t) = g^(k a t),
        # where a and t are the coordinates of alpha and x.
        k = sign * ctx._step * c
        rows = [[(k * a * t + shift) % q1 for t in range(d)] for a in range(d)]
        shift = 0
        logs = [log[x] for x in codes]
        for block in range(0, n, d * st):
            for first in range(block, block + st):
                line = slice(first, first + d * st, st)  # the x with x_j = 0, 1, ..
                x_logs = logs[line]
                codes[line] = [
                    code_of(sum(map(terms.__getitem__, map(add, x_logs, row)))) for row in rows
                ]
    return ScalarFunction(spec, tuple(FieldElement(ctx, x) for x in codes))


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
    spec._check_work(len(pairs) * spec.order)
    terms, log, code_of, chunk = ctx._terms, ctx._log, _reducer(ctx), ctx._chunk
    # Per pair: the logs of F by index, and the (index, log) of H's nonzero entries.
    logs = [
        ([log[v.code] for v in F], [(x, log[v.code]) for x, v in enumerate(H) if v.code])
        for F, H in pairs
    ]
    out = []
    for alpha in spec.elements():
        row = spec.translate_row(alpha)
        summands = [terms[lf[row[x]] + b] for lf, lh in logs for x, b in lh]
        code = 0
        for i in range(0, len(summands), chunk):
            code = code_of(terms[log[code]] + sum(summands[i:i + chunk]))
        out.append(FieldElement(ctx, code))
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
