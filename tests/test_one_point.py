"""Field-bent tables that are constant but at one point.

Let f be 1 everywhere but w at x0, with w != 1 on the circle group.  Then
ft(f)(alpha) = |G| [alpha = 0] + (w - 1) chi_alpha(x0).  With N = |G| mod p
and t = norm(w - 1) = 2 - w - 1/w, the norm is t at alpha != 0 and
N^2 - N t + t at alpha = 0, so f is field bent iff w + 1/w = 2 - N.  For
|G| > 4 no such table is classically bent, since |w - 1|^2 <= 4 there.
Shifting the exponents by c + h keeps the criterion, so a group with W
valid w has |G| * W * d * prod gcd(d, d_j) such exponent tables G -> Z_d.
On Z_3^2 over GF(4) the other field-only tables are one-point changes of
rank-1 quadratic tables, and on groups no search reaches the one-point
tables still show field bentness strictly weaker than classical bentness.
"""

import itertools
import math
from collections import Counter

import pytest

from gfharmonic import (
    ExponentFunction,
    ScalarFunction,
    classical_ft,
    embed,
    is_bent_autocorr,
    is_bent_spectral,
    is_classical_bent,
    make_context,
    make_group,
    search_bent,
)
from gfharmonic.bent import MAX_CANDIDATES, _search
from gfharmonic.classical import _classical_verdict
from _oracles import orbit_shifts

# (p, n): GF(4), GF(9), GF(16), GF(25) and GF(49)
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]


def _groups(s, bound=9):
    """Every nondecreasing list of cyclic orders > 1 dividing s, with product <= bound."""
    divisors = [k for k in range(2, s + 1) if s % k == 0]
    out = []
    for size in range(1, bound.bit_length()):  # at most log2(bound) factors >= 2
        for factors in itertools.combinations_with_replacement(divisors, size):
            if math.prod(factors) <= bound:
                out.append(tuple((dj, 1) for dj in factors))
    return out


GRID = [(p, n, factors) for p, n in FIELDS for factors in _groups(p**n + 1)]


def _criterion(spec, w):
    return w + w.inverse() == spec.ctx.from_int(2 - spec.order_mod_p)


@pytest.mark.parametrize("p, n, factors", GRID)
def test_one_point_tables_are_bent_iff_the_criterion_holds(p, n, factors):
    """Every w != 1 of the circle group, so every d | p^n + 1 and every
    d-th root w, at every point x0: both bent routes against the criterion."""
    spec = make_group(make_context(p, n), factors)
    one = spec.ctx.one
    for w in spec.ctx.circle()[1:]:  # circle()[k] is u^k
        expected = _criterion(spec, w)
        for x0 in range(spec.order):
            f = ScalarFunction(spec, tuple(w if x == x0 else one for x in range(spec.order)))
            assert is_bent_spectral(f).is_bent == expected, (w, x0)
            assert is_bent_autocorr(f).is_bent == expected, (w, x0)


def test_the_grid_holds_bent_and_non_bent_one_point_tables():
    """(w, x0) pairs over the grid: 550 tables, of which 139 are bent."""
    specs = [make_group(make_context(p, n), factors) for p, n, factors in GRID]
    criteria = [_criterion(spec, w) for spec in specs for w in spec.ctx.circle()[1:]]
    orders = [spec.order for spec in specs for _ in spec.ctx.circle()[1:]]
    assert (len(GRID), sum(orders)) == (21, 550)
    assert sum(itertools.compress(orders, criteria)) == 139


# (p, n, factors, d, count): every field-bent table that is not classically
# bent is a one-point table shifted by c + h.
FIELD_ONLY = [
    (3, 1, ((2, 1), (4, 1)), 4, 512),
    (3, 1, ((2, 4),), 2, 512),
    (5, 1, ((6, 1),), 6, 432),
]


@pytest.mark.parametrize("p, n, factors, d, count", FIELD_ONLY)
def test_one_point_tables_are_the_field_only_tables(p, n, factors, d, count):
    spec = make_group(make_context(p, n), factors)
    ud = spec.ctx.circle_subgroup_generator(d)
    valid = [k for k in range(1, d) if _criterion(spec, ud**k)]
    shifts = orbit_shifts(spec, d)
    one_point = {
        tuple((k * (x == x0) + s) % d for x, s in enumerate(shift))
        for x0 in range(spec.order)
        for k in valid
        for shift in shifts
    }
    field = set(search_bent(spec, d).tables)
    classical = set(_search(spec, d, _classical_verdict(spec, d), MAX_CANDIDATES, 1).tables)
    formula = spec.order * len(valid) * d * math.prod(math.gcd(d, dj) for dj in spec.dims)
    assert classical <= field
    assert field - classical == one_point
    assert len(one_point) == formula == count


def _one_point_changes(tables, d):
    """Every table h + t delta_x0 with h in tables, x0 in G and 0 < t < d."""
    return {
        h[:x0] + ((h[x0] + t) % d,) + h[x0 + 1 :]
        for h in tables
        for x0 in range(len(h))
        for t in range(1, d)
    }


def test_rank_one_changes_are_the_other_field_only_tables():
    """On Z_3^2 over GF(4) with d = 3, the field-only tables that are not
    one-point tables are exactly the field-bent one-point changes of the
    rank-1 tables h = c (a . x)^2 + b . x + k, one a per line through 0."""
    spec = make_group(make_context(2, 1), [(3, 2)])
    lines = [(1, 0), (0, 1), (1, 1), (1, 2)]
    rank_one = {
        tuple((c * (a0 * x + a1 * y) ** 2 + s) % 3 for (x, y), s in zip(spec.elements(), shift))
        for a0, a1 in lines
        for c in (1, 2)
        for shift in orbit_shifts(spec, 3)
    }
    changes = _one_point_changes(rank_one, 3)
    field = set(search_bent(spec, 3).tables)
    classical = set(_search(spec, 3, _classical_verdict(spec, 3), MAX_CANDIDATES, 1).tables)
    affine_changes = _one_point_changes(orbit_shifts(spec, 3), 3)
    assert (len(rank_one), len(changes)) == (216, 3888)
    assert not changes & classical
    assert field - classical - affine_changes == changes & field
    counts = [len(field), len(classical), len(affine_changes & field), len(changes & field)]
    assert counts == [2916, 486, 486, 1944]


# (p, n, factors, m, k): u_m^k meets the criterion, so e = k delta_x0 is field
# bent on these groups of 729 to 2187 elements, and not classically bent.
AT_SCALE = [
    (2, 1, ((3, 7),), 3, 1),
    (2, 1, ((3, 6),), 3, 1),
    (3, 1, ((2, 10),), 2, 1),
    (3, 1, ((4, 5),), 4, 2),
    (5, 1, ((6, 4),), 6, 1),
]


@pytest.mark.parametrize("p, n, factors, m, k", AT_SCALE)
def test_one_point_tables_are_field_only_at_scale(p, n, factors, m, k):
    spec = make_group(make_context(p, n), factors)
    for x0 in (0, spec.order // 3):
        ef = ExponentFunction(spec, m, [k * (x == x0) for x in range(spec.order)])
        assert is_bent_spectral(embed(ef)).is_bent, x0
        assert not is_classical_bent(ef), x0


# (p, n, factors, d, {the two values of |W|^2: number of field-only tables})
TWO_VALUED = [
    (2, 1, ((3, 2),), 3, {(3, 57): 486, (3, 21): 1944}),
    (3, 1, ((2, 1), (4, 1)), 4, {(2, 50): 512}),
    (3, 1, ((2, 4),), 2, {(4, 196): 512}),
    (5, 1, ((6, 1),), 6, {(1, 31): 432}),
]


@pytest.mark.parametrize("p, n, factors, d, pairs", TWO_VALUED)
def test_field_only_tables_have_two_valued_spectra(p, n, factors, d, pairs):
    """The classical |W(alpha)|^2 of a field-only table takes exactly two
    values, both = |G| mod p.  On Z_3^2 the pairs split the tables as the
    486 one-point tables and the 1944 rank-1 changes above do."""
    spec = make_group(make_context(p, n), factors)
    field = set(search_bent(spec, d).tables)
    classical = set(_search(spec, d, _classical_verdict(spec, d), MAX_CANDIDATES, 1).tables)
    found = Counter()
    for e in field - classical:
        squares = [abs(w) ** 2 for w in classical_ft(ExponentFunction(spec, d, e))]
        values = sorted({round(x) for x in squares})
        assert max(abs(x - round(x)) for x in squares) < 1e-6, e
        assert len(values) == 2 and all((x - spec.order) % p == 0 for x in values), e
        found[tuple(values)] += 1
    assert found == pairs
