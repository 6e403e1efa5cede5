"""Independent brute-force oracles used to freeze expected test values.

Nothing here calls the library's fast paths: polynomial arithmetic is
schoolbook, irreducibility is decided by enumerating factorizations,
orders by repeated multiplication, transforms by double sums over the
per-factor exponentiation route, and convolutions and autocorrelations by
double sums of FieldElement products over G x G.  The exceptions are
naive_search, which tests every table with is_bent_spectral: the transform
route, which shares no code with the search kernel's derivative counting;
and float_classical_bent and exact_classical_bent, the classical verdicts
on the transform side, which read the lane counts of classical._lane_ft
(in floating point through classical_ft, and exactly through Phi_s) and
share no code with the exact difference counts.
count_route_is_bent counts exponent differences (difference_counts) as the
search kernel does, but direction by direction, unpacked, uncached and in
FieldElement arithmetic.  naive_expand expands normalized tables by their
orbits as tuples, with every shift c + h listed over the group's elements.
"""

import cmath
import functools
import itertools
import math
import operator

from gfharmonic import (
    ScalarFunction,
    VectorFunction,
    classical_ft,
    hermitian_dot,
    is_bent_spectral,
)
from gfharmonic.characters import character_value_naive
from gfharmonic.classical import _cyclotomic, _lane_ft
from gfharmonic.field import _divmod_monic
from gfharmonic.serialize import group_file_to_obj


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_rem(a, modulus, p):
    """Remainder of a modulo a monic modulus over GF(p), padded to its degree."""
    a = list(a)
    deg = len(modulus) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        for j in range(deg + 1):
            a[i - deg + j] = (a[i - deg + j] - c * modulus[j]) % p
    return a[:deg] + [0] * (deg - len(a))


def schoolbook_powers(ctx):
    """Coefficient vectors of g^0 .. g^(q-2), each the previous one times g
    reduced modulo the modulus."""
    g = list(ctx.g.coeffs)
    cur = [1] + [0] * (ctx.width - 1)
    out = []
    for _ in range(ctx.q - 1):
        out.append(tuple(cur))
        cur = poly_rem(poly_mul(cur, g, ctx.p), ctx.modulus, ctx.p)
    return out


def poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def irreducible_by_factor_enumeration(modulus, p):
    """True iff no pair of lower-degree monic polynomials multiplies to
    the modulus."""
    target = poly_trim(modulus)
    deg = len(target) - 1
    for k in range(1, deg // 2 + 1):
        for lo1 in range(p**k):
            f1 = [(lo1 // p**i) % p for i in range(k)] + [1]
            for lo2 in range(p ** (deg - k)):
                f2 = [(lo2 // p**i) % p for i in range(deg - k)] + [1]
                if poly_trim(poly_mul(f1, f2, p)) == target:
                    return False
    return True


def multiplicative_order(x):
    assert not x.is_zero()
    acc = x
    k = 1
    while acc != x.ctx.one:
        acc = acc * x
        k += 1
    return k


def naive_ft_at(f, alpha):
    """ft(f)(alpha) via the per-factor field-exponentiation character route."""
    spec = f.spec
    acc = spec.ctx.zero
    for x in spec.elements():
        acc = acc + f.at(x) * character_value_naive(spec, alpha, x)
    return acc


def naive_ft(f):
    """Transform via the per-factor field-exponentiation character route."""
    return ScalarFunction(f.spec, tuple(naive_ft_at(f, a) for a in f.spec.elements()))


def naive_inverse_ft_at(F, x):
    """inverse_ft(F)(x) = (|G| mod p)^-1 sum_alpha F(alpha) conj(chi_alpha(x))."""
    spec = F.spec
    acc = spec.ctx.zero
    for alpha in spec.elements():
        acc = acc + F.at(alpha) * character_value_naive(spec, alpha, x).conjugate()
    return acc * spec.ctx.from_int(spec.inv_order_mod_p)


def factor_dot(spec, alpha, x):
    """Per-factor dot products: for factor i, sum(alpha_j * x_j) mod d_i over
    that factor's coordinates.  Symmetric and bilinear."""
    alpha, x = spec.validate_element(alpha), spec.validate_element(x)
    out = []
    off = 0
    for d, m in spec.factors:
        out.append(sum(alpha[off + j] * x[off + j] for j in range(m)) % d)
        off += m
    return out


def character_sum(spec, alpha):
    """sum_x chi_alpha(x), by direct summation of FieldElement products, so
    tests can check the closed form: zero for alpha != 0, |G| mod p at 0."""
    acc = spec.ctx.zero
    for x in spec.elements():
        acc = acc + character_value_naive(spec, alpha, x)
    return acc


def naive_classical_ft_at(ef, alpha):
    """classical_ft(ef)(alpha) as a product of per-factor complex roots of unity."""
    spec = ef.spec
    acc = 0j
    for x, e in zip(spec.elements(), ef.exponents):
        v = cmath.exp(2j * math.pi * e / ef.m)
        for (d, _), dot in zip(spec.factors, factor_dot(spec, alpha, x)):
            v *= cmath.exp(2j * math.pi * dot / d)
        acc += v
    return acc


def float_classical_bent(ef):
    """Classical bentness in floating point: every |classical_ft(ef)|^2 is
    |G| within 1e-6 * |G|."""
    order = ef.spec.order
    return all(abs(abs(v) ** 2 - order) <= 1e-6 * order for v in classical_ft(ef))


def naive_lane_counts(ef, alpha):
    """c with c[k] = #{x : e(x) * s/m + exponent_row(alpha)[x] = k mod s}:
    classical_ft(ef)(alpha) = sum_k c[k] zeta_s^k, counted one x at a time."""
    s = ef.spec.ctx.circle_order
    counts = [0] * s
    for e, k in zip(ef.exponents, ef.spec.exponent_row(alpha)):
        counts[(e * (s // ef.m) + k) % s] += 1
    return counts


def lane_counts(ef):
    """The lanes of every value of classical._lane_ft, read by shift and mask."""
    values, bits = _lane_ft(ef)
    s, mask = ef.spec.ctx.circle_order, (1 << bits) - 1
    return [[v >> bits * k & mask for k in range(s)] for v in values]


def exact_classical_bent(ef):
    """Classical bentness on the transform side, in integers: with W(x) the
    lane counts at alpha, |W(zeta_s)|^2 = |G| iff Phi_s divides
    W(x) W(x^-1) - |G| folded mod x^s - 1, at every alpha."""
    s, order = ef.spec.ctx.circle_order, ef.spec.order
    phi = _cyclotomic(s)
    for w in lane_counts(ef):
        norm = [-order] + [0] * (s - 1)
        for i, c in enumerate(int_poly_mul(w, [w[-k % s] for k in range(s)])):
            norm[i % s] += c
        if any(_divmod_monic(norm, phi)[1]):
            return False
    return True


# The double sums below are the library's former implementations, kept as
# differential oracles for the correlation kernel in gfharmonic.fourier.


def naive_convolve(f, g):
    """(f * g)(alpha) = sum_x f(x) g(-x + alpha)."""
    spec = f.spec
    ctx = spec.ctx
    elems = list(spec.elements())
    out = []
    for alpha in elems:
        acc = ctx.zero
        for x in elems:
            acc = acc + f.at(x) * g.at(spec.add(spec.neg(x), alpha))
        out.append(acc)
    return ScalarFunction(spec, tuple(out))


def naive_derivative(f, alpha):
    """x -> f(alpha + x) * conj(f(x))."""
    spec = f.spec
    values = tuple(
        f.at(spec.add(alpha, x)) * f.at(x).conjugate() for x in spec.elements()
    )
    return ScalarFunction(spec, values)


def naive_autocorrelation(f):
    """alpha -> sum_x f(alpha + x) * conj(f(x))."""
    spec = f.spec
    ctx = spec.ctx
    out = []
    for alpha in spec.elements():
        acc = ctx.zero
        for x in spec.elements():
            acc = acc + f.at(spec.add(alpha, x)) * f.at(x).conjugate()
        out.append(acc)
    return ScalarFunction(spec, tuple(out))


def naive_md_ft(f):
    """alpha -> sum_x chi_alpha(x) f(x), computed directly on vectors."""
    spec = f.spec
    ctx = spec.ctx
    out = []
    for alpha in spec.elements():
        acc = [ctx.zero] * f.dim
        for x in spec.elements():
            chi = character_value_naive(spec, alpha, x)
            vec = f.at(x)
            for i in range(f.dim):
                acc[i] = acc[i] + chi * vec[i]
        out.append(tuple(acc))
    return VectorFunction(spec, f.dim, tuple(out))


def naive_md_inverse_ft(F):
    """x -> (|G| mod p)^-1 sum_alpha conj(chi_alpha(x)) F(alpha)."""
    spec = F.spec
    ctx = spec.ctx
    scale = ctx.from_int(spec.inv_order_mod_p)
    out = []
    for x in spec.elements():
        acc = [ctx.zero] * F.dim
        for alpha in spec.elements():
            chi = character_value_naive(spec, alpha, x).conjugate()
            vec = F.at(alpha)
            for i in range(F.dim):
                acc[i] = acc[i] + chi * vec[i]
        out.append(tuple(scale * v for v in acc))
    return VectorFunction(spec, F.dim, tuple(out))


def naive_vector_convolve(f, g):
    """(f * g)(alpha) = sum_x <g(alpha + x), f(x)>; scalar-valued."""
    spec = f.spec
    ctx = spec.ctx
    out = []
    for alpha in spec.elements():
        acc = ctx.zero
        for x in spec.elements():
            acc = acc + hermitian_dot(g.at(spec.add(alpha, x)), f.at(x))
        out.append(acc)
    return ScalarFunction(spec, tuple(out))


def naive_md_derivative(f, alpha):
    """x -> <f(alpha + x), f(x)>."""
    spec = f.spec
    values = tuple(
        hermitian_dot(f.at(spec.add(alpha, x)), f.at(x)) for x in spec.elements()
    )
    return ScalarFunction(spec, values)


def naive_md_autocorrelation(f):
    """The loop of the derivative criterion: alpha -> sum_x <f(alpha+x), f(x)>."""
    spec = f.spec
    ctx = spec.ctx
    ac = []
    for alpha in spec.elements():
        acc = ctx.zero
        for x in spec.elements():
            acc = acc + hermitian_dot(f.at(spec.add(alpha, x)), f.at(x))
        ac.append(acc)
    return ac


def random_function(spec, rng):
    els = list(spec.ctx.elements())
    return ScalarFunction(spec, tuple(rng.choice(els) for _ in range(spec.order)))


def random_circle_function(spec, rng):
    s = spec.ctx.circle_order
    u = spec.ctx.u
    return ScalarFunction(
        spec, tuple(u ** rng.randrange(s) for _ in range(spec.order))
    )


def random_vector_function(spec, dim, rng):
    els = list(spec.ctx.elements())
    return VectorFunction(
        spec,
        dim,
        tuple(
            tuple(rng.choice(els) for _ in range(dim)) for _ in range(spec.order)
        ),
    )


def exponent_function_to_obj(ef):
    """The JSON object of an exponent table, as serialize reads it: the
    library writes none, so the tests write their own inputs."""
    return {**group_file_to_obj(ef.spec), "m": ef.m, "exponents": list(ef.exponents)}


def all_exponent_tables(spec, d):
    return itertools.product(range(d), repeat=spec.order)


def naive_search(spec, d):
    """The bent exponent tables G -> Z_d in mixed-radix order: every table of
    the full space is decided by the spectral definition, with no orbit
    reduction and none of the search kernel's derivative counting."""
    return [
        e
        for e in all_exponent_tables(spec, d)
        if is_bent_spectral(ScalarFunction.from_exponents(spec, d, e)).is_bent
    ]


def orbit_shifts(spec, d):
    """Every shift c + h of e -> e + c + h as a table over G: c a constant,
    h(x) = sum_j k_j * (d / gcd(d, d_j)) * x_j for k_j < gcd(d, d_j)."""
    steps = [d // math.gcd(d, dj) for dj in spec.dims]
    homs = [
        [sum(map(operator.mul, ks, map(operator.mul, steps, x))) for x in spec.elements()]
        for ks in itertools.product(*(range(math.gcd(d, dj)) for dj in spec.dims))
    ]
    return [tuple((c + v) % d for v in h) for c in range(d) for h in homs]


def naive_expand(spec, d, normalized):
    """Every shift of the given normalized tables, in mixed-radix order, built
    and sorted as tuples."""
    shifts = orbit_shifts(spec, d)
    mod_d = tuple(range(d)) * 2  # a + b < 2d for a, b in Z_d
    return sorted(
        tuple(map(mod_d.__getitem__, map(operator.add, e, s)))
        for e in normalized
        for s in shifts
    )


@functools.cache
def _translations(spec):
    """For every a != 0, the index of a + x for every x, through GroupSpec.add."""
    elements = list(spec.elements())
    return [[spec.index_of(spec.add(a, x)) for x in elements] for a in elements[1:]]


def difference_counts(row, e, m):
    """c with c[j] = #{x : e[a + x] - e[x] = j mod m}, where row is
    translate_row(a): the exponent differences of the table e in direction a,
    counted one by one into a list."""
    counts = [0] * m
    for y, ex in zip(row, e):
        counts[(e[y] - ex) % m] += 1
    return counts


def count_route_is_bent(spec, d, e):
    """The derivative criterion on the exponent table e: for every a != 0,
    sum_j c_a[j] u_d^j = 0, where c_a[j] counts the x with
    e[a + x] - e[x] = j mod d; every direction is checked on its own."""
    ctx = spec.ctx
    powers = [ctx.circle_subgroup_generator(d) ** j for j in range(d)]
    for row in _translations(spec):
        counts = difference_counts(row, e, d)
        acc = ctx.zero
        for c, w in zip(counts, powers):
            acc = acc + ctx.from_int(c) * w
        if acc != ctx.zero:
            return False
    return True


def negated_argument(f):
    spec = f.spec
    return ScalarFunction(
        spec, tuple(f.at(spec.neg(x)) for x in spec.elements())
    )
