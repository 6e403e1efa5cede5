"""Field-bent tables that are constant but at one point.

Let f be 1 everywhere but w at x0, with w != 1 on the circle group.  Then
ft(f)(alpha) = |G| [alpha = 0] + (w - 1) chi_alpha(x0).  With N = |G| mod p
and t = norm(w - 1) = 2 - w - 1/w, the norm is t at alpha != 0 and
N^2 - N t + t at alpha = 0, so f is field bent iff w + 1/w = 2 - N.  For
|G| > 4 no such table is classically bent, since |w - 1|^2 <= 4 there.
Shifting the exponents by c + h keeps the criterion, so a group with W
valid w has |G| * W * d * prod gcd(d, d_j) such exponent tables G -> Z_d.
"""

import itertools
import math

import pytest

from gfharmonic import (
    ScalarFunction,
    is_bent_autocorr,
    is_bent_spectral,
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
