"""The orbit-normalized bent search against the full-space oracle.

search_bent tests one normalized table per orbit of e -> e + c + h (a
constant plus a homomorphism G -> Z_d) and expands the bent ones.  These
tests compare it with naive_search, which decides every one of the d^|G|
tables by the spectral definition, on small groups over GF(4) to GF(81),
one of them with a non-default modulus.
"""

import functools
import hashlib
import itertools
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfharmonic import (
    ScalarFunction,
    is_bent_spectral,
    make_context,
    make_group,
    mm_construct,
    search_bent,
)
from gfharmonic.bent import _SearchKernel
from _oracles import count_route_is_bent, naive_search

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


# The benchmark's census searches: (field, factors, d).
CENSUS = [
    ((2, 1, None), ((3, 1),), 3),
    ((2, 2, None), ((5, 1),), 5),
    ((2, 1, None), ((3, 2),), 3),
    ((3, 1, None), ((2, 1), (4, 1)), 4),
]


@pytest.mark.parametrize("field, factors, d", CENSUS)
def test_kernel_matches_the_count_and_spectral_routes(field, factors, d):
    """Every normalized table: the kernel, which checks one direction of each
    pair {a, -a} on packed counts with cached verdicts, against the count
    route over every direction and against the spectral definition."""
    spec = _spec(field, factors)
    kernel = _SearchKernel(spec, d)
    for e in itertools.product(*kernel.ranges):
        expected = count_route_is_bent(spec, d, e)
        assert kernel.is_bent(e) == expected, e
        assert is_bent_spectral(ScalarFunction.from_exponents(spec, d, e)).is_bent == expected, e


@pytest.mark.parametrize("field, factors, d", CENSUS[:2])
def test_census_search_matches_full_space_oracle(field, factors, d):
    spec = _spec(field, factors)
    assert list(search_bent(spec, d).tables) == naive_search(spec, d)


@pytest.mark.parametrize("field, factors, d", CENSUS + [((3, 1, None), ((4, 2),), 2)])
def test_verdicts_stay_within_the_composition_bound(field, factors, d):
    spec = _spec(field, factors)
    kernel = _SearchKernel(spec, d)
    kernel.run(())
    # one row per pair {a, -a}: the pairs of the |G| - 1 nonzero elements, of
    # which those of order 2 pair with themselves
    involutions = sum(1 for a in spec.elements() if a != spec.zero() and spec.neg(a) == a)
    assert len(kernel.rows) == (spec.order - 1 + involutions) // 2
    # each key packs d counts that sum to |G|: a composition of |G| into d parts
    assert 0 < len(kernel.verdicts) <= math.comb(spec.order + d - 1, d - 1)
    mask = (1 << kernel.lane_bits) - 1
    for packed in kernel.verdicts:
        assert packed >> (kernel.lane_bits * d) == 0
        assert sum(packed >> (kernel.lane_bits * j) & mask for j in range(d)) == spec.order


# sha256 of repr(search_bent(spec, d).tables), taken with the kernel that
# counted every direction into a list: (field, factors, d, count, digest).
PINNED = [
    (
        (2, 1, None), ((3, 1),), 3, 18,
        "0b8a2d7cd7d5719801da76b3f43fe38f34a36c81160182cdb8e35e81400485f9",
    ),
    (
        (2, 2, None), ((5, 1),), 5, 100,
        "6b92e3544a75d3c718307be8da29065ab6b43504e16c4d0e4593a62eb029e87d",
    ),
    (
        (2, 1, None), ((3, 2),), 3, 2916,
        "0a7aee445e7ccb18d535b881b00f1eaf241b1624a01214a689cd06b7f90cb90a",
    ),
    (
        (3, 1, None), ((2, 1), (4, 1)), 4, 1408,
        "d6ee388c6958bb6c223fc9c3bc798ea70f92e33886da78e16fa32c15cdb32f25",
    ),
    (
        (3, 1, None), ((4, 2),), 2, 896,
        "2a6683125240830622a0f745339bbbcf1e0cb44bf2ac2ffb789cf2401ea05139",
    ),
    (
        (131, 1, None), ((2, 1),), 132, 264,
        "8d5768bf8e82f82742987da7bc1d10466f91ca39f3b5e49972186dac17738f6c",
    ),
]


@pytest.mark.parametrize("field, factors, d, count, digest", PINNED)
def test_search_output_is_pinned(monkeypatch, field, factors, d, count, digest):
    # With two CPUs, Z_4^2 with d = 2 (8192 normalized tables) starts a two-worker pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spec = _spec(field, factors)
    for jobs in (1, 2):
        result = search_bent(spec, d, jobs=jobs)
        assert result.count == count
        assert hashlib.sha256(repr(result.tables).encode()).hexdigest() == digest
