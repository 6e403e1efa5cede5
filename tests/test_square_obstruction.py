"""A square obstruction to field bentness.

Let f take values in the d-th roots of unity, L = lcm(d, exp G) and
k = ord_L(p).  Every spectral value of f is a sum of L-th roots of unity, so
it lies in GF(p^k).  If k divides n, with the field GF(p^(2n)), the norm
x -> x^(p^n + 1) is x -> x^2 on GF(p^k), so a bent f needs N = |G| mod p to
be a square in GF(p^k).  For odd p and odd k, N is one only if it is a
quadratic residue mod p.  So a search where p is odd, k | n, k is odd and N
is a non-residue must find no table.  The condition is only necessary: many
unobstructed searches find none too.
"""

import math

from gfharmonic import make_context, make_group, search_bent
from test_one_point import _groups

# (p, n): GF(4), GF(9), GF(16), GF(25), GF(49), GF(64), GF(81), GF(121), GF(169)
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]


def _order_mod(p, m):
    """The multiplicative order of p modulo m, m prime to p."""
    k, x = 1, p % m
    while x != 1 % m:
        x, k = x * p % m, k + 1
    return k


def _obstructed(p, n, dims, d):
    k = _order_mod(p, math.lcm(d, *dims))
    residue = pow(math.prod(dims) % p, (p - 1) // 2, p) == 1
    return p > 2 and n % k == 0 and k % 2 == 1 and not residue


def test_obstructed_searches_find_no_table():
    """Every group of order <= 32 over each field, every d | p^n + 1 with
    d^|G| <= 10^6: 241 searches, of which 25 are obstructed."""
    counts, obstructed = {}, []
    for p, n in FIELDS:
        s = p**n + 1
        for factors in _groups(s, bound=32):
            dims = [dj for dj, _ in factors]
            for d in (d for d in range(1, s + 1) if s % d == 0):
                if d ** math.prod(dims) <= 10**6:
                    spec = make_group(make_context(p, n), factors)
                    counts[p, n, factors, d] = search_bent(spec, d).count
                    if _obstructed(p, n, dims, d):
                        obstructed.append((p, n, factors, d))
    assert (len(counts), len(obstructed)) == (241, 25)
    assert (3, 1, ((2, 1),) * 3, 2) in obstructed  # Z_2^3 over GF(9): 8 = 2 mod 3
    assert [counts[case] for case in obstructed] == [0] * 25
    assert any(counts.values())  # the grid is not empty everywhere
