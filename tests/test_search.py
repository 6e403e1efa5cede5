"""The orbit-normalized bent search against the full-space oracle.

search_bent tests one normalized table per orbit of e -> e + c + h (a
constant plus a homomorphism G -> Z_d) and expands the bent ones.  These
tests compare it with naive_search, which decides every one of the d^|G|
tables by the spectral definition, on small groups over GF(4) to GF(81),
one of them with a non-default modulus, and on the trivial group over
GF(2^16), whose d = 257 does not fit a byte.  The orbit expansion is also
compared with naive_expand, which builds and sorts every table as a tuple.
"""

import functools
import hashlib
import itertools
import math
import os
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfharmonic import (
    ExponentFunction,
    ScalarFunction,
    is_bent_spectral,
    make_context,
    make_group,
    mm_construct,
    search_bent,
)
from gfharmonic.bent import (
    MAX_CANDIDATES,
    _field_verdict,
    _passes,
    _search,
    _SearchKernel,
)
from gfharmonic.classical import _classical_verdict, _cyclotomic
from gfharmonic.field import _minimal_polynomial
from _oracles import (
    count_route_is_bent,
    float_classical_bent,
    naive_expand,
    naive_search,
    orbit_shifts,
    poly_mul,
)

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


def _field_kernel(spec, d):
    return _SearchKernel(spec, d, _field_verdict(spec.ctx, d))


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
    ((2, 8, None), ((1, 1),), 257),  # GF(2^16): d = 257 is past a byte, so |G| = 1
    ((2, 1, None), ((1, 1),), 3),  # |G| = 1 with d < 257: rows of no bytes
    ((3, 1, None), ((2, 3),), 2),  # Z_2^3, 2a = 0: no bent table, so nothing to expand
]


def _with_examples(*rest, cases=CASE_EXAMPLES):
    """Every case of cases as an explicit example, followed by rest."""

    def decorate(test):
        for case in cases:
            test = example(case, *rest)(test)
        return test

    return decorate


@settings(max_examples=40, deadline=None)
@_with_examples()
@given(search_cases())
def test_search_matches_full_space_oracle(case):
    field, factors, d = case
    spec = _spec(field, factors)
    expected = naive_search(spec, d)
    result = search_bent(spec, d)
    assert result.candidates == d**spec.order
    assert list(result.tables) == expected


@settings(max_examples=40, deadline=None)
@_with_examples()
@given(search_cases())
def test_normalized_tables_and_shifts_partition_the_space(case):
    field, factors, d = case
    spec = _spec(field, factors)
    kernel = _field_kernel(spec, d)
    normalized = list(itertools.product(*kernel.ranges))
    shift_count = d * math.prod(math.gcd(d, dj) for dj in spec.dims)
    # the kernel keeps the homomorphism shifts; the d constants act in expand
    assert d * len(kernel.shifts) == shift_count == len(set(orbit_shifts(spec, d)))
    assert kernel.normalized == len(normalized) == d**spec.order // shift_count
    assert all(e[0] == 0 for e in normalized)
    assert kernel.expand(normalized) == list(itertools.product(range(d), repeat=spec.order))


@settings(max_examples=40, deadline=None)
@_with_examples(random.Random(0))
@given(search_cases(), st.randoms(use_true_random=False))
def test_expand_matches_the_tuple_expansion(case, rng):
    """expand, on any subset of the normalized tables in any order, against
    the expansion that builds and sorts every table as a tuple."""
    field, factors, d = case
    spec = _spec(field, factors)
    kernel = _field_kernel(spec, d)
    normalized = list(itertools.product(*kernel.ranges))
    subset = rng.sample(normalized, rng.randint(0, len(normalized)))
    assert kernel.expand(subset) == naive_expand(spec, d, subset)


# Cases for run(start, step) beyond CASE_EXAMPLES: (field, factors, d).
PART_EXAMPLES = [
    ((3, 1, None), ((2, 1),), 2),  # Z_2: the last point is a generator, one value
    ((3, 1, None), ((2, 1),), 4),  # Z_2 with two values at that generator
    ((3, 1, None), ((2, 1), (1, 1)), 4),  # Z_2 x Z_1: a generator last, then Z_1
    ((3, 1, None), ((4, 2),), 2),  # Z_4^2: 8192 normalized tables, some 2a = 0
    ((5, 1, None), ((3, 1), (2, 1)), 3),  # d prime to the last factor
]


@settings(max_examples=40, deadline=None)
@_with_examples(cases=CASE_EXAMPLES + PART_EXAMPLES)
@given(search_cases())
def test_run_matches_the_rotation_route_on_each_part(case):
    """run(start, step), which decides the values of the last point together,
    on a kernel that went through pickle as a pool worker's does, against
    _passes, which counts the rows of one table by lane rotations: for steps
    1 to 3, part start holds the passing normalized tables whose head (the
    table with its last point set to 0) has an index = start mod step, among
    the heads in mixed-radix order.  A step past the number of heads leaves
    the later parts empty."""
    field, factors, d = case
    spec = _spec(field, factors)
    ranges = _field_kernel(spec, d).ranges
    verdict = _field_verdict(spec.ctx, d)
    heads = list(itertools.product(*ranges[:-1]))
    passing = [e for e in itertools.product(*ranges) if _passes(spec, e, d, verdict)]
    run = pickle.loads(pickle.dumps(_field_kernel(spec, d).run))
    assert run() == passing
    for step in range(1, 4):
        for start in range(step):
            part = {h for k, h in enumerate(heads) if k % step == start}
            assert run(start, step) == [e for e in passing if e[:-1] in part], (start, step)


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
    pair {a, -a} on packed counts with cached verdicts, and _passes, which
    counts the same rows by lane rotations, against the count route over
    every direction and against the spectral definition; with the classical
    verdict, against the floating-point classical transform."""
    spec = _spec(field, factors)
    kernel = _field_kernel(spec, d)
    classical = _SearchKernel(spec, d, _classical_verdict(spec, d))
    field_bent = set(kernel.run())
    classical_bent = set(classical.run())
    verdict = _field_verdict(spec.ctx, d)
    for e in itertools.product(*kernel.ranges):
        expected = count_route_is_bent(spec, d, e)
        assert (e in field_bent) == _passes(spec, e, d, verdict) == expected, e
        assert is_bent_spectral(ScalarFunction.from_exponents(spec, d, e)).is_bent == expected, e
        ef = ExponentFunction(spec, d, e)
        assert (e in classical_bent) == float_classical_bent(ef), e


@pytest.mark.parametrize("field, factors, d", CENSUS[:2])
def test_census_search_matches_full_space_oracle(field, factors, d):
    spec = _spec(field, factors)
    assert list(search_bent(spec, d).tables) == naive_search(spec, d)


@pytest.mark.parametrize("field, factors, d", CENSUS + [((3, 1, None), ((4, 2),), 2)])
def test_verdicts_stay_within_the_composition_bound(field, factors, d):
    spec = _spec(field, factors)
    kernel = _field_kernel(spec, d)
    kernel.run()
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


# (p, ns, factors, d, count): the same group and d over GF(p^(2n)) for each n.
ACROSS_N = [
    (2, (1, 3, 5), ((3, 2),), 3, 2916),
    (2, (2, 6), ((5, 1),), 5, 100),
    (3, (1, 3), ((2, 1), (4, 1)), 4, 1408),
    (5, (1, 3), ((6, 1),), 6, 432),
]


@pytest.mark.parametrize("p, ns, factors, d, count", ACROSS_N)
def test_bent_set_does_not_depend_on_n(p, ns, factors, d, count):
    """The field verdict divides the counts by mu_d, which depends on p, d
    and the root u_d alone.  In these rows Phi_d stays irreducible mod p, so
    mu_d is Phi_d mod p for every n, and the bent tables are the same."""
    specs = [_spec((p, n, None), factors) for n in ns]
    mus = {tuple(_minimal_polynomial(spec.ctx.circle_subgroup_generator(d))) for spec in specs}
    tables = {search_bent(spec, d).tables for spec in specs}
    assert mus == {tuple(c % p for c in _cyclotomic(d))}
    assert len(tables) == 1 and len(tables.pop()) == count


def _galois_factors(ctx, d):
    """(k, mu_k) for one unit k mod d per Frobenius orbit {k p^i}, mu_k the
    minimal polynomial of u_d^k: one irreducible factor of Phi_d mod p each."""
    ud, seen, out = ctx.circle_subgroup_generator(d), set(), []
    for k in range(1, d):
        if math.gcd(k, d) == 1 and k not in seen:
            seen.update(k * ctx.p**i % d for i in range(d))
            out.append((k, _minimal_polynomial(ud**k)))
    product = functools.reduce(lambda a, b: poly_mul(a, b, ctx.p), (mu for _, mu in out))
    assert product == [c % ctx.p for c in _cyclotomic(d)]
    return out


# (factors, count): Phi_7 is three quadratics mod 41, so GF(41^2) with d = 7
# has three field verdicts (mu_k, 41), each passing `count` tables.
GALOIS_SEARCH = [(((6, 1),), 84), (((2, 1), (3, 1)), 84)]


@pytest.mark.parametrize("factors, count", GALOIS_SEARCH)
def test_conjugate_verdicts_pass_unit_multiples_of_the_bent_set(factors, count):
    """The counts of k e at u_d are those of e at u_d^k, so (mu_k, p) passes
    exactly the tables k^-1 e, e bent: three distinct sets here."""
    spec = _spec((41, 1, None), factors)
    bent = search_bent(spec, 7).tables
    found = []
    for k, mu in _galois_factors(spec.ctx, 7):
        tables = set(_search(spec, 7, (mu, 41), MAX_CANDIDATES, 1).tables)
        assert tables == {tuple(pow(k, -1, 7) * x % 7 for x in e) for e in bent}, k
        found.append(frozenset(tables))
    assert len(set(found)) == 3 and {len(t) for t in found} == {count}


# (p, n, d): Phi_13 is three quartics mod 5, Phi_17 two octics mod 2.
GALOIS_SAMPLED = [(5, 2, 13), (2, 4, 17)]


@pytest.mark.parametrize("p, n, d", GALOIS_SAMPLED)
def test_conjugate_verdicts_decide_unit_multiples(p, n, d):
    """(mu_k, p) on e against the field verdict (mu_1, p) on k e, on Z_d,
    over random tables and the quadratic tables x -> a x^2 + b x, which are
    bent and so pass every conjugate verdict."""
    spec = _spec((p, n, None), ((d, 1),))
    rng = random.Random(d)
    quadratic = [
        tuple((a * x * x + b * x) % d for x in range(d)) for a in (1, 2, 3) for b in (0, 1, 2)
    ]
    tables = [tuple(rng.randrange(d) for _ in range(d)) for _ in range(200)] + quadratic
    field = _field_verdict(spec.ctx, d)
    for k, mu in _galois_factors(spec.ctx, d):
        for e in tables:
            expected = _passes(spec, [k * x % d for x in e], d, field)
            assert _passes(spec, e, d, (mu, p)) == expected, (k, e)
        assert all(_passes(spec, e, d, (mu, p)) for e in quadratic), k


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
    (  # taken with the tuple expansion: (0,) ... (256,), as Z_257 is too large
        (2, 8, None), ((1, 1),), 257, 257,
        "875fce1bc7d997f5738983f4277f199b5953c09c97562124af7d1479f975d769",
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
