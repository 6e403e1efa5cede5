"""The GF(q)-valued Fourier transform and convolution on admissible groups.

ft(f)(alpha) = sum_x f(x) chi_alpha(x).  Applying ft twice yields
(|G| mod p) * f(-alpha), so the transform is invertible with the scalar
inverse of |G| mod p.

Sums over G take one of two routes, both over the packed elements of
FieldContext._terms, whose format field.py owns: a sum of packed elements is
one int sum, decoded by field._reducer once.
The transform is separable, since chi_alpha(x) is a product of one factor
per coordinate: it runs a length-d transform along each coordinate of
G = prod Z_(d_j), |G| * sum_j d_j terms in all instead of |G|^2.  Its
kernel, _transform, takes and returns coordinate columns of codes (a scalar
table is one column), the columns a table keeps: ft and inverse_ft hand
them over and build their output from codes, so a FieldElement is built
only for a value a caller reads.  A line of length d takes one of two
routes.  The per-output route sums d packed products, looked up by their
logs, for each of its d outputs.  The table route (the Method of Four Russians) sums 2d
ints: for each position t and each half code v of an entry, one int holds
the d products v W^(a t) side by side, in byte-padded slots
(field._build_line_table, by field._span and field._lane_plus), so the
line's d outputs are one int sum, decoded slot by slot.  The route is the
field's, per line length: FieldContext._line_table decides it once, builds
the table where d >= 3, a line's sum fits every lane and the table is
within its size bound, and keeps it, or None for the per-output route.  So
the first call over a length builds its table, and the inverse reads the
same table with its slots reversed.
Convolution and the autocorrelations behind the derivative bent criteria
never transform: _correlate sums F(alpha + x) H(x)^power over each pair of
columns, read from translation rows, reducing every lane before it can
overflow.  convolve reads g(-y) through the group's negation index
(GroupSpec._negation).
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .characters import ScalarFunction, inner_product
from .errors import SpecMismatch
from .field import _reducer
from .group import GroupSpec


def _transform(
    spec: GroupSpec, columns: Sequence[Sequence[int]], sign: int, scale_mod_p: int
) -> list[list[int]]:
    """The transform kernel, on coordinate columns of codes in canonical order:
    alpha -> scale * sum_x f(x) chi_alpha(x)^sign, for the codes of each column f."""
    ctx = spec.ctx
    q1, P = ctx.q - 1, ctx.sqrt_q
    spec._check_work(len(columns) * sum(spec.dims))  # all l transforms, before the first
    terms, log, code_of = ctx._terms, ctx._log, _reducer(ctx)
    columns = list(map(list, columns))
    if scale_mod_p != 1:  # a nonzero element of GF(p), applied before the first pass
        exp, shift = ctx._exp, log[scale_mod_p]
        columns = [[x and exp[(log[x] + shift) % q1] for x in codes] for codes in columns]
    for d, c, lines in spec._axes():
        # Along this axis chi_alpha(x) has the factor u^(c a t) = g^(k a t),
        # where a and t are the coordinates of alpha and x.
        k = sign * ctx._step * c
        lines = list(lines)
        if table := ctx._line_table(d):
            lo_rows, hi_rows, decode = table
            for codes in columns:
                los, his = [x % P for x in codes], [x // P for x in codes]
                for line in lines:
                    out = decode(
                        sum(map(list.__getitem__, lo_rows, los[line]))
                        + sum(map(list.__getitem__, hi_rows, his[line]))
                    )
                    # The table is the forward one (root g^(step c)): the inverse
                    # reads slot a at -a mod d.
                    codes[line] = out if sign > 0 else out[:1] + out[:0:-1]
            continue
        rows = [[k * a * t % q1 for t in range(d)] for a in range(d)]
        for codes in columns:
            logs = [log[x] for x in codes]
            for line in lines:
                x_logs = logs[line]
                codes[line] = [
                    code_of(sum(map(terms.__getitem__, map(add, x_logs, row)))) for row in rows
                ]
    return columns


def ft(f: ScalarFunction) -> ScalarFunction:
    """Fourier transform: alpha -> sum_x f(x) chi_alpha(x)."""
    return ScalarFunction._of(f.spec, _transform(f.spec, f._columns(), 1, 1)[0])


def inverse_ft(F: ScalarFunction) -> ScalarFunction:
    """Inverse transform: x -> (|G| mod p)^-1 sum_alpha F(alpha) conj(chi_alpha(x))."""
    spec = F.spec
    return ScalarFunction._of(spec, _transform(spec, F._columns(), -1, spec.inv_order_mod_p)[0])


def _correlate(
    spec: GroupSpec, pairs: Sequence[tuple[Sequence[int], Sequence[int]]], power: int
) -> ScalarFunction:
    """alpha -> sum_x sum_i F_i(alpha + x) * H_i(x)^power, for pairs (F_i, H_i)
    of columns of codes on spec; the power p^n conjugates."""
    ctx = spec.ctx
    q1 = ctx.q - 1
    spec._check_work(len(pairs) * spec.order)
    terms, log, code_of, chunk = ctx._terms, ctx._log, _reducer(ctx), ctx._chunk
    # Per pair: the logs of F by index, and the (index, log of H^power) of H's
    # nonzero entries: the log of 0, 2(q - 1), would reduce to 0, the log of 1.
    logs = [
        ([log[c] for c in F], [(x, log[c] * power % q1) for x, c in enumerate(H) if c])
        for F, H in pairs
    ]
    out = []
    for alpha in spec.elements():
        row = spec.translate_row(alpha)
        summands = [terms[lf[row[x]] + b] for lf, lh in logs for x, b in lh]
        code = 0
        for i in range(0, len(summands), chunk):
            code = code_of(terms[log[code]] + sum(summands[i:i + chunk]))
        out.append(code)
    return ScalarFunction._of(spec, out)


def convolve(f: ScalarFunction, g: ScalarFunction) -> ScalarFunction:
    """(f * g)(alpha) = sum_x f(x) g(-x + alpha) = sum_y f(alpha + y) g(-y)."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    g_neg = list(map(g._codes.__getitem__, f.spec._negation()))
    return _correlate(f.spec, [(f._codes, g_neg)], 1)


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
