"""Independent brute-force oracles used to freeze expected test values.

Nothing here calls the library's fast paths: polynomial arithmetic is
schoolbook, irreducibility is decided by enumerating factorizations,
orders by repeated multiplication, and transforms by double sums over the
per-factor exponentiation route.
"""

import itertools

from gfharmonic import ScalarFunction, VectorFunction
from gfharmonic.characters import character_value_naive


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
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


def naive_ft(f):
    """Transform via the per-factor field-exponentiation character route."""
    spec = f.spec
    out = []
    for alpha in spec.elements():
        acc = spec.ctx.zero
        for x in spec.elements():
            acc = acc + f.at(x) * character_value_naive(spec, alpha, x)
        out.append(acc)
    return ScalarFunction(spec, tuple(out))


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


def all_exponent_tables(spec, d):
    return itertools.product(range(d), repeat=spec.order)


def negated_argument(f):
    spec = f.spec
    return ScalarFunction(
        spec, tuple(f.at(spec.neg(x)) for x in spec.elements())
    )
