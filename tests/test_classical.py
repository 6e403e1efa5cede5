import itertools
import random

import pytest

from gfharmonic import (
    ExponentFunction,
    FieldElement,
    GroupSpec,
    InvalidOrder,
    ScalarFunction,
    classical_ft,
    comparison_check,
    embed,
    is_bent_spectral,
    is_classical_bent,
    make_context,
    make_group,
    search_bent,
)
from gfharmonic import bent, classical
from gfharmonic.classical import _classical_verdict, _cyclotomic
from _oracles import (
    all_exponent_tables,
    difference_counts,
    exact_classical_bent,
    float_classical_bent,
    int_poly_mul,
)


class TestClassicalTransform:
    def test_constant_exponents_on_z3(self, z3):
        ef = ExponentFunction(z3, 3, (0, 0, 0))
        spectrum = classical_ft(ef)
        assert abs(spectrum[0] - 3) < 1e-9
        assert abs(spectrum[1]) < 1e-9
        assert abs(spectrum[2]) < 1e-9

    def test_flat_spectrum_on_z3(self, z3):
        ef = ExponentFunction(z3, 3, (0, 1, 1))
        for v in classical_ft(ef):
            assert abs(abs(v) ** 2 - 3) < 1e-9

    def test_quadratic_on_z5_has_flat_spectrum(self, z5):
        ef = ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5)))
        for v in classical_ft(ef):
            assert abs(abs(v) ** 2 - 5) < 1e-9

    def test_zero_frequency_of_constant_is_order(self, z2z4):
        ef = ExponentFunction(z2z4, 4, (0,) * 8)
        assert abs(classical_ft(ef)[0] - 8) < 1e-9


class TestClassicalBent:
    def test_examples(self, z3, z5):
        assert is_classical_bent(ExponentFunction(z3, 3, (0, 1, 1)))
        assert not is_classical_bent(ExponentFunction(z3, 3, (0, 0, 0)))
        assert is_classical_bent(
            ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5)))
        )


class TestEmbedding:
    def test_z3_example(self, gf4, z3):
        w = gf4.element([0, 1])
        f = embed(ExponentFunction(z3, 3, (0, 1, 1)))
        assert f.values == (gf4.one, w, w)

    def test_zero_exponents_give_constant_one(self, z2z4):
        f = embed(ExponentFunction(z2z4, 4, (0,) * 8))
        assert f == ScalarFunction.constant(z2z4, z2z4.ctx.one)

    def test_z5_quadratic(self, gf16, z5):
        f = embed(ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5))))
        u = gf16.u
        assert f.values == (gf16.one, u, u**4, u**4, u)

    def test_value_group_homomorphism(self, z3):
        for ea in all_exponent_tables(z3, 3):
            eb = tuple((2 * e + 1) % 3 for e in ea)
            fa = embed(ExponentFunction(z3, 3, ea))
            fb = embed(ExponentFunction(z3, 3, eb))
            fsum = embed(
                ExponentFunction(z3, 3, tuple((a + b) % 3 for a, b in zip(ea, eb)))
            )
            assert fsum.values == tuple(x * y for x, y in zip(fa.values, fb.values))

    def test_conjugation_commutes(self, z5):
        # complex conjugate negates exponents; field conjugate must match
        for e in [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (1, 1, 0, 4, 2)]:
            f = embed(ExponentFunction(z5, 5, e))
            conj_f = embed(ExponentFunction(z5, 5, tuple(-k % 5 for k in e)))
            assert conj_f.values == tuple(v.conjugate() for v in f.values)

    def test_inadmissible_order_rejected(self, z5):
        with pytest.raises(InvalidOrder):
            ExponentFunction(z5, 3, (0, 0, 0, 0, 0))


class TestComparison:
    def test_bent_example_holds(self, z3):
        assert comparison_check(ExponentFunction(z3, 3, (0, 1, 1)))

    def test_vacuous_when_not_classically_bent(self, z3):
        assert comparison_check(ExponentFunction(z3, 3, (0, 0, 0)))

    def test_exhaustive_census_on_z3(self, z3):
        classical = set()
        field = set()
        for e in all_exponent_tables(z3, 3):
            ef = ExponentFunction(z3, 3, e)
            assert comparison_check(ef)
            if is_classical_bent(ef):
                classical.add(e)
            if is_bent_spectral(embed(ef)).is_bent:
                field.add(e)
        # on this instance the two notions coincide; 18 functions each
        assert len(classical) == 18
        assert classical == field

    def test_z5_quadratic_bent_both_ways(self, z5):
        ef = ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5)))
        assert is_classical_bent(ef)
        assert is_bent_spectral(embed(ef)).is_bent

    def test_odd_characteristic_instance(self, z4):
        ef = ExponentFunction(z4, 4, (0, 0, 0, 2))
        assert is_classical_bent(ef)
        assert comparison_check(ef)
        assert is_bent_spectral(embed(ef)).is_bent


class TestDifferenceCounts:
    def test_z3_example(self, z3):
        # direction 1 of (0, 1, 1): e(1) - e(0) = 1, e(2) - e(1) = 0, e(0) - e(2) = 2
        assert difference_counts(z3.translate_row((1,)), (0, 1, 1), 3) == [1, 1, 1]

    def test_zero_direction(self, z2z4):
        assert difference_counts(z2z4.translate_row((0, 0)), tuple(range(8)), 4) == [8, 0, 0, 0]

    @pytest.mark.parametrize(
        "p, n, factors, m", [(2, 2, [(5, 2)], 5), (3, 1, [(2, 1), (4, 1)], 4), (2, 1, [(3, 3)], 3)]
    )
    def test_negated_direction_reverses_the_counts(self, p, n, factors, m):
        # c_{-a}[j] = c_a[-j mod m]: why one direction of each pair {a, -a} decides
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(m)
        tables = [[rng.randrange(m) for _ in range(spec.order)] for _ in range(4)]
        for e in [[0] * spec.order] + tables:
            for a in spec.elements():
                c = difference_counts(spec.translate_row(a), e, m)
                c_neg = difference_counts(spec.translate_row(spec.neg(a)), e, m)
                assert c_neg == [c[-j % m] for j in range(m)]


class TestCyclotomic:
    def test_known_values(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(5) == (1, 1, 1, 1, 1)
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_phi_105_has_a_coefficient_minus_two(self):
        phi = _cyclotomic(105)
        assert len(phi) == 49  # degree phi(105) = 48
        assert [i for i, c in enumerate(phi) if c == -2] == [7, 41]

    def test_product_over_divisors_is_x_to_the_m_minus_one(self):
        for m in range(1, 61):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = int_poly_mul(prod, _cyclotomic(d))
            assert prod == [-1] + [0] * (m - 1) + [1]

    # The fields of TestCensus: GF(4), GF(9), GF(16), GF(64), GF(25) and GF(1024)
    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (2, 3), (5, 1), (2, 5)])
    def test_circle_generator_is_a_root(self, p, n):
        # Phi_m(u_m) = 0 in GF(q), so Phi_m | c_a in Z[x] forces c_a(u_m) = 0:
        # a classically bent table is field bent.  x^m - 1 has simple roots
        # (p does not divide m), so u_m is a root of no other Phi_k with k | m.
        ctx = make_context(p, n)
        s = ctx.circle_order
        for m in (m for m in range(1, s + 1) if s % m == 0):
            u = ctx.circle_subgroup_generator(m)
            for k in (k for k in range(1, m + 1) if m % k == 0):
                value = ctx.zero
                for c in reversed(_cyclotomic(k)):
                    value = value * u + ctx.from_int(c)
                assert (value == ctx.zero) == (k == m), (m, k)


class TestExactVerdict:
    def test_no_float_or_field_route(self, monkeypatch, z3, z5, z3sq):
        tables = [ExponentFunction(z3, 3, e) for e in all_exponent_tables(z3, 3)]
        quadratic = ExponentFunction(z5, 5, tuple(x * x % 5 for x in range(5)))

        def forbidden(*args):
            raise AssertionError("the classical verdict left the integers")

        monkeypatch.setattr(classical, "classical_ft", forbidden)
        monkeypatch.setattr(classical, "is_bent_spectral", forbidden)
        monkeypatch.setattr(bent, "is_bent_spectral", forbidden)
        for name in ("__add__", "__sub__", "__mul__", "__pow__", "conjugate", "norm"):
            monkeypatch.setattr(FieldElement, name, forbidden)
        assert sum(map(is_classical_bent, tables)) == 18
        assert is_classical_bent(quadratic)
        # the exhaustive route of compare: the search kernel with the classical verdict
        kernel = bent._SearchKernel(z3sq, 3, _classical_verdict(z3sq, 3))
        assert len(kernel.expand(kernel.run())) == 486

    def test_stops_at_the_first_failing_direction(self, monkeypatch, z5sq):
        rows = []
        translates = GroupSpec._translates

        def counting(spec, table, bits):
            for row in translates(spec, table, bits):
                rows.append(row)
                yield row

        monkeypatch.setattr(GroupSpec, "_translates", counting)
        assert not is_classical_bent(ExponentFunction(z5sq, 5, (0,) * 25))
        assert len(rows) == 1
        rows.clear()
        # x * y on Z_5^2 is bent: one row per pair {a, -a} is counted, 12 in all
        xy = [x * y % 5 for x in range(5) for y in range(5)]
        assert is_classical_bent(ExponentFunction(z5sq, 5, xy))
        assert len(rows) == 12


class TestLaneWidths:
    """The count kernel holds a table as one int of lanes, each wide enough
    for 2m - 1: a byte up to m = 128, two bytes past it, and at m = 257 one
    residue, 256, has a high byte.  Each width is checked against the exact
    transform-side verdict, on a bent table e, on -e, which is bent too, and
    on a one-point change of e, which is not.  e vanishes at 0, and the
    change sets the next point to m - 1, as -e does where e is x^2: so the
    first row counted holds the largest difference, 2m - 1, in a lane."""

    # (p, n, factors, m, the bent table at x)
    BENT = [
        # m = 128, the last one-byte lane
        (127, 1, [(2, 4)], 128, lambda x: 64 * (x[0] * x[1] + x[2] * x[3])),
        # m = 129, the first two-byte lane
        (2, 7, [(129, 1)], 129, lambda x: x[0] ** 2),
        # m = 257, the largest
        (2, 8, [(257, 1)], 257, lambda x: x[0] ** 2),
        # the product-construction table
        (2, 4, [(17, 2)], 17, lambda x: x[0] * x[1] + x[1] ** 2),
    ]

    @pytest.mark.parametrize("p, n, factors, m, bent", BENT)
    def test_bent_table_and_a_one_point_change(self, p, n, factors, m, bent):
        spec = make_group(make_context(p, n), factors)
        e = [bent(x) % m for x in spec.elements()]
        assert e[0] == 0 and e[1] != m - 1
        negated = [-v % m for v in e]
        changed = [0, m - 1] + e[2:]
        for table, expected in [(e, True), (negated, True), (changed, False)]:
            ef = ExponentFunction(spec, m, table)
            assert is_classical_bent(ef) == exact_classical_bent(ef) == expected

    @pytest.mark.parametrize("p, n, factors, m", [(2, 4, [(17, 2)], 17), (2, 2, [(5, 3)], 5)])
    def test_random_tables(self, p, n, factors, m):
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(f"{factors} {m}")
        for _ in range(200):
            ef = ExponentFunction(spec, m, [rng.randrange(m) for _ in range(spec.order)])
            assert is_classical_bent(ef) == exact_classical_bent(ef), ef.exponents


class TestFloatAgreement:
    """The exact verdict on the difference counts against two on the
    transform side, table by table: the former floating-point one, and
    Phi_s dividing |W|^2 - |G| on the exact lane counts."""

    @pytest.mark.parametrize(
        "p, n, factors, m",
        [
            (2, 1, [(3, 1)], 3),
            (3, 1, [(4, 1)], 4),
            (2, 2, [(5, 1)], 5),
            (3, 1, [(2, 2)], 1),
            (3, 1, [(2, 2)], 2),
            (3, 1, [(2, 2)], 4),
        ],
    )
    def test_every_table(self, p, n, factors, m):
        spec = make_group(make_context(p, n), factors)
        for e in all_exponent_tables(spec, m):
            ef = ExponentFunction(spec, m, e)
            assert is_classical_bent(ef) == float_classical_bent(ef) == exact_classical_bent(ef), e

    @pytest.mark.parametrize(
        "p, n, factors, m",
        [
            (2, 1, [(3, 2)], 3),
            (2, 3, [(3, 2)], 3),
            (3, 1, [(2, 1), (4, 1)], 4),
            (5, 1, [(6, 1)], 6),
        ],
    )
    def test_sampled_tables(self, p, n, factors, m):
        # The field-bent tables hold every classically bent one (the census
        # below checks that on every table); 300 random tables add the rest.
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(f"{p} {n} {factors} {m}")
        sample = list(search_bent(spec, m).tables)
        sample += [tuple(rng.randrange(m) for _ in range(spec.order)) for _ in range(300)]
        for e in sample:
            ef = ExponentFunction(spec, m, e)
            assert is_classical_bent(ef) == float_classical_bent(ef) == exact_classical_bent(ef), e


class TestCensus:
    """Field-bent against classically bent tables G -> Z_d, over every table."""

    @pytest.mark.parametrize(
        "p, n, factors, d, field, classical",
        [
            (2, 1, [(3, 1)], 3, 18, 18),
            (3, 1, [(4, 1)], 4, 32, 32),
            (2, 2, [(5, 1)], 5, 100, 100),
            (2, 1, [(3, 2)], 3, 2916, 486),
            (2, 3, [(3, 2)], 3, 2916, 486),
            (3, 1, [(2, 1), (4, 1)], 4, 1408, 896),
            (5, 1, [(6, 1)], 6, 432, 0),
        ],
    )
    def test_counts(self, p, n, factors, d, field, classical):
        spec = make_group(make_context(p, n), factors)
        field_tables = set(search_bent(spec, d).tables)
        classical_tables = {
            e
            for e in all_exponent_tables(spec, d)
            if is_classical_bent(ExponentFunction(spec, d, e))
        }
        assert (len(field_tables), len(classical_tables)) == (field, classical)
        # compare --exhaustive: the classical verdict on the normalized tables, expanded
        kernel = bent._SearchKernel(spec, d, _classical_verdict(spec, d))
        assert kernel.expand(kernel.run()) == sorted(classical_tables)
        # the paper's theorem: classically bent implies field bent
        assert classical_tables <= field_tables

    # ROADMAP item 2's gap-prime table, the rows within the default budget:
    # (factors, d, primes, field count, classical count), each over GF(p^(2n))
    # with the least n such that d | p^n + 1.  The last two rows are gaps.
    @pytest.mark.parametrize(
        "factors, d, primes, field, classical",
        [
            ([(3, 2)], 3, [5, 11, 17, 23, 29, 41], 486, 486),
            ([(2, 1), (4, 1)], 4, [7, 11, 19, 23, 31, 43], 896, 896),
            ([(2, 3)], 4, [7, 11, 19, 23, 31, 43], 896, 896),
            ([(2, 4)], 2, [5, 7], 896, 896),
            ([(6, 1)], 6, [11, 17, 23, 29, 41], 0, 0),
            ([(7, 1)], 7, [3, 5, 41], 294, 294),
            ([(5, 1)], 5, [2, 3, 7, 13], 100, 100),
            ([(4, 1)], 4, [3, 7, 11, 19, 23, 31, 43], 32, 32),
            ([(2, 2)], 4, [3, 7, 11, 19, 23, 31, 43], 64, 64),
            ([(3, 1)], 6, [5, 11, 17, 23, 29, 41], 36, 36),
            ([(2, 3)], 2, [3, 5, 7, 11, 13], 0, 0),
            ([(7, 1)], 7, [13], 980, 294),
            ([(2, 3)], 4, [3], 1408, 896),
        ],
    )
    def test_gap_primes(self, factors, d, primes, field, classical):
        for p in primes:
            n = next(n for n in itertools.count(1) if (p**n + 1) % d == 0)
            spec = make_group(make_context(p, n), factors)
            field_tables = search_bent(spec, d).tables
            verdict = _classical_verdict(spec, d)
            classical_tables = bent._search(spec, d, verdict, bent.MAX_CANDIDATES, 1).tables
            assert (len(field_tables), len(classical_tables)) == (field, classical), p
            assert set(classical_tables) <= set(field_tables), p

    @pytest.mark.parametrize("n", [3, 5])
    def test_field_bentness_does_not_depend_on_n(self, n):
        # u_3 has the minimal polynomial x^2 + x + 1 over GF(2) for every odd n
        def tables(n):
            return search_bent(make_group(make_context(2, n), [(3, 2)]), 3).tables

        assert tables(n) == tables(1)
