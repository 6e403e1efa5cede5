"""The orbit-normalized bent search against the full-space oracle.

search_bent tests one normalized table per orbit of e -> e + c + h (a
constant plus a homomorphism G -> Z_d) and expands the bent ones.  These
tests compare it with naive_search, which decides every one of the d^|G|
tables by the spectral definition, on small groups over GF(4) to GF(81),
one of them with a non-default modulus.
"""

import functools
import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfharmonic import (
    ScalarFunction,
    make_context,
    make_group,
    mm_construct,
    search_bent,
)
from gfharmonic.bent import _SearchKernel
from _oracles import naive_search

# (p, n, modulus or None for the default): GF(4), GF(9), GF(9) mod
# x^2 + 2x + 2, GF(16), GF(25), GF(49) and GF(81)
FIELDS = [
    (2, 1, None),
    (3, 1, None),
    (3, 1, (2, 2, 1)),
    (2, 2, None),
    (5, 1, None),
    (7, 1, None),
    (3, 2, None),
]

# the oracle decides up to this many tables per example
MAX_TABLES = 729


@functools.cache
def _spec(field, factors):
    return make_group(make_context(*field), factors)


@st.composite
def search_cases(draw):
    """A field, a divisor d > 1 of its circle order and up to three cyclic
    factors, each dividing the circle order; Z_1 factors and factors prime
    to d are drawn as often as any other.  d = 1 is an explicit example."""
    field = draw(st.sampled_from(FIELDS))
    s = field[0] ** field[1] + 1
    divisors = [k for k in range(1, s + 1) if s % k == 0]
    d = draw(st.sampled_from(divisors[1:]))
    factors, order = [], 1
    for _ in range(draw(st.integers(1, 3))):
        dj = draw(st.sampled_from([k for k in divisors if d ** (order * k) <= MAX_TABLES]))
        factors.append((dj, 1))
        order *= dj
    return field, tuple(factors), d


CASE_EXAMPLES = [
    ((2, 1, None), ((3, 1),), 3),  # Z_3, 3 normalized tables of 27
    ((2, 1, None), ((1, 1), (3, 1)), 3),  # a Z_1 factor
    ((2, 1, None), ((3, 1),), 1),  # d = 1
    ((5, 1, None), ((2, 1), (3, 1)), 3),  # gcd(3, 2) = 1: that generator is free
    ((5, 1, None), ((3, 1),), 6),  # gcd(6, 3) = 3 < d
    ((3, 1, (2, 2, 1)), ((2, 1), (4, 1)), 2),  # non-default modulus
    ((7, 1, None), ((4, 1),), 8),  # GF(49)
    ((3, 2, None), ((5, 1),), 2),  # GF(81), gcd(2, 5) = 1
]


def _with_examples(test):
    for case in CASE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=40, deadline=None)
@_with_examples
@given(search_cases())
def test_search_matches_full_space_oracle(case):
    field, factors, d = case
    spec = _spec(field, factors)
    expected = naive_search(spec, d)
    result = search_bent(spec, d)
    assert result.candidates == d**spec.order
    assert list(result.tables) == expected


@settings(max_examples=40, deadline=None)
@_with_examples
@given(search_cases())
def test_normalized_tables_and_shifts_partition_the_space(case):
    field, factors, d = case
    spec = _spec(field, factors)
    kernel = _SearchKernel(spec, d)
    normalized = list(itertools.product(*kernel.ranges))
    shift_count = d * math.prod(math.gcd(d, dj) for dj in spec.dims)
    assert len(kernel.shifts) == shift_count
    assert kernel.normalized == len(normalized) == d**spec.order // shift_count
    assert all(e[0] == 0 for e in normalized)
    assert kernel.expand(normalized) == list(itertools.product(range(d), repeat=spec.order))


def test_product_construction_is_a_lower_bound():
    """Every mm_construct(g), g: Z_3 -> S_3, is a bent table on Z_3 x Z_3
    that the search must find."""
    ctx = make_context(2, 1)
    z3 = make_group(ctx, [(3, 1)])
    u3 = ctx.circle_subgroup_generator(3)
    log = {u3**k: k for k in range(3)}
    lifted = {
        tuple(log[v] for v in mm_construct(ScalarFunction.from_exponents(z3, 3, g)).values)
        for g in itertools.product(range(3), repeat=3)
    }
    spec = make_group(ctx, [(3, 1), (3, 1)])
    found = set(search_bent(spec, 3).tables)
    assert len(lifted) == 27
    assert lifted <= found
    assert len(found) == 2916
