import concurrent.futures
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gfharmonic import (
    BudgetExceeded,
    NotBent,
    NotCircleValued,
    NotQuadraticResidue,
    ScalarFunction,
    TooLarge,
    autocorrelation,
    derivative,
    dual_bent,
    ft,
    is_bent_autocorr,
    is_bent_spectral,
    make_context,
    make_group,
    mm_construct,
    search_bent,
)
import gfharmonic
from gfharmonic import bent, field
from gfharmonic.bent import _sqrt_mod_prime
from _oracles import naive_search, negated_argument, random_circle_function


class TestSpectral:
    def test_frozen_bent_example(self, gf4, z3):
        w = gf4.element([0, 1])
        report = is_bent_spectral(ScalarFunction(z3, (gf4.one, w, w)))
        assert report.is_bent
        assert report.failing_points == ()
        assert report.spectrum_norms == (gf4.one,) * 3

    def test_constant_one_not_bent(self, gf4, z3):
        report = is_bent_spectral(ScalarFunction.constant(z3, gf4.one))
        assert not report.is_bent
        assert report.failing_points == ((1,), (2,))

    def test_character_not_bent(self, z3):
        # chi_1 has a one-point spectrum, so it fails off that point
        f = ScalarFunction.from_exponents(z3, 3, [0, 1, 2])
        assert not is_bent_spectral(f).is_bent

    def test_non_circle_input_rejected(self, gf4, z3):
        f = ScalarFunction(z3, (gf4.one, gf4.zero, gf4.one))
        with pytest.raises(NotCircleValued) as err:
            is_bent_spectral(f)
        assert err.value.witness == (1,)


class TestDerivativeAndAutocorrelation:
    def test_zero_direction_gives_norms(self, z2z4):
        rng = random.Random(7)
        f = random_circle_function(z2z4, rng)
        d0 = derivative(f, z2z4.zero())
        assert d0.values == (z2z4.ctx.one,) * z2z4.order

    def test_frozen_autocorrelation(self, gf4, z3):
        w = gf4.element([0, 1])
        f = ScalarFunction(z3, (gf4.one, w, w))
        assert autocorrelation(f).values == (gf4.one, gf4.zero, gf4.zero)

    def test_transformed_autocorrelation_is_spectrum_norm(self, z5, z2z4):
        rng = random.Random(13)
        for spec in (z5, z2z4):
            for _ in range(10):
                f = random_circle_function(spec, rng)
                lhs = ft(autocorrelation(f)).values
                rhs = tuple(v.norm() for v in ft(f).values)
                assert lhs == rhs

    def test_autocorr_at_zero_sums_norms(self, z2z4):
        rng = random.Random(17)
        f = random_circle_function(z2z4, rng)
        expected = z2z4.ctx.from_int(z2z4.order_mod_p)
        assert autocorrelation(f).at(z2z4.zero()) == expected


class TestAutocorrVerdict:
    def test_frozen_bent_example(self, gf4, z3):
        w = gf4.element([0, 1])
        assert is_bent_autocorr(ScalarFunction(z3, (gf4.one, w, w))).is_bent

    def test_constant_one_not_bent(self, gf4, z3):
        report = is_bent_autocorr(ScalarFunction.constant(z3, gf4.one))
        assert not report.is_bent
        assert report.failing_points == ((1,), (2,))

    def test_verdicts_agree_exhaustively_on_z3(self, z3):
        for e in itertools.product(range(3), repeat=3):
            f = ScalarFunction.from_exponents(z3, 3, e)
            assert is_bent_spectral(f).is_bent == is_bent_autocorr(f).is_bent

    def test_verdicts_agree_on_random_inputs(self, z5, z2z4):
        rng = random.Random(19)
        for spec in (z5, z2z4):
            for _ in range(15):
                f = random_circle_function(spec, rng)
                assert is_bent_spectral(f).is_bent == is_bent_autocorr(f).is_bent

    def test_reports_same_norm_table(self, z2z4):
        rng = random.Random(23)
        f = random_circle_function(z2z4, rng)
        assert is_bent_autocorr(f).spectrum_norms == is_bent_spectral(f).spectrum_norms


class TestBentInvariances:
    def test_census_count_is_eighteen(self, z3):
        assert len(naive_search(z3, 3)) == 18

    def test_census_matches_quadratic_exponent_tables(self, z3):
        # independent prediction: tables x -> a*x^2 + b*x + c with a != 0
        quadratics = {
            tuple((a * x * x + b * x + c) % 3 for x in range(3))
            for a in (1, 2)
            for b in range(3)
            for c in range(3)
        }
        assert set(naive_search(z3, 3)) == quadratics

    def test_constant_multiple_stays_bent(self, gf4, z3):
        w = gf4.element([0, 1])
        for e in naive_search(z3, 3):
            f = ScalarFunction.from_exponents(z3, 3, e)
            scaled = ScalarFunction(z3, tuple(w * v for v in f.values))
            assert is_bent_spectral(scaled).is_bent

    def test_translation_stays_bent(self, z3):
        for e in naive_search(z3, 3):
            f = ScalarFunction.from_exponents(z3, 3, e)
            for c in z3.elements():
                shifted = ScalarFunction(
                    z3, tuple(f.at(z3.add(x, c)) for x in z3.elements())
                )
                assert is_bent_autocorr(shifted).is_bent


class TestDual:
    def test_dual_is_spectrum_when_p_two(self, gf4, z3):
        w = gf4.element([0, 1])
        w2 = gf4.element([1, 1])
        f = ScalarFunction(z3, (gf4.one, w, w))
        dual = dual_bent(f)
        assert dual.values == (gf4.one, w2, w2)
        assert is_bent_autocorr(dual).is_bent

    def test_duals_of_full_census_are_bent(self, z3):
        for e in naive_search(z3, 3):
            dual = dual_bent(ScalarFunction.from_exponents(z3, 3, e))
            assert dual.circle_witness() is None
            assert is_bent_spectral(dual).is_bent
            assert is_bent_autocorr(dual).is_bent

    def test_dual_on_odd_characteristic(self, z4):
        f = ScalarFunction.from_exponents(z4, 4, [0, 0, 0, 2])
        assert is_bent_spectral(f).is_bent
        dual = dual_bent(f)
        assert dual.circle_witness() is None
        assert is_bent_spectral(dual).is_bent
        assert is_bent_autocorr(dual).is_bent

    def test_not_bent_rejected(self, gf4, z3):
        with pytest.raises(NotBent):
            dual_bent(ScalarFunction.constant(z3, gf4.one))

    def test_error_order(self, gf4, gf9, z3, z2z4):
        # Zero is neither on the circle nor bent; the circle check comes first.
        with pytest.raises(NotCircleValued):
            dual_bent(ScalarFunction.constant(z3, gf4.zero))
        # |G| = 8 = 2 (mod 3) is not a square, but the bent check comes first.
        with pytest.raises(NotBent):
            dual_bent(ScalarFunction.constant(z2z4, gf9.one))

    def test_bent_table_without_a_square_root_of_the_order(self, z2z4):
        # A one-point table, bent over GF(9); |G| = 8 = 2 (mod 3) has no square root.
        f = ScalarFunction.from_exponents(z2z4, 4, (0,) * 7 + (1,))
        assert is_bent_spectral(f).is_bent
        with pytest.raises(NotQuadraticResidue) as info:
            dual_bent(f)
        assert info.value.witness == 2

    def test_one_transform(self, monkeypatch, z3):
        calls = []
        transform = bent._transform

        def counting_transform(spec, columns, sign, scale_mod_p):
            calls.append((spec, [list(column) for column in columns], sign, scale_mod_p))
            return transform(spec, columns, sign, scale_mod_p)

        monkeypatch.setattr(bent, "_transform", counting_transform)
        f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
        assert dual_bent(f).values == ft(f).values  # the scale is 1 in characteristic 2
        assert calls == [(z3, [[v.code for v in f.values]], 1, 1)]

    def test_square_root_selection(self):
        assert _sqrt_mod_prime(4, 5) == 2  # the smaller of {2, 3}
        assert _sqrt_mod_prime(1, 3) == 1
        assert _sqrt_mod_prime(1, 2) == 1
        assert _sqrt_mod_prime(3, 13) == 4  # 4^2 = 16 = 3 (mod 13), min(4, 9)
        for p in (5, 13, 17, 29):
            for a in range(1, p):
                if pow(a, (p - 1) // 2, p) == 1:
                    r = _sqrt_mod_prime(a, p)
                    assert r * r % p == a
                    assert r <= p - r
        # For p % 4 == 3 the root is a^((p+1)/4), which is not always the
        # smaller one: the roots of 2 mod 7 are 3 and 4.
        assert _sqrt_mod_prime(2, 7) == 4

    def test_frozen_dual_fixes_the_root(self):
        # |G| = 16 = 2 (mod 7): the dual scales ft(f) by 4^-1 = 2, where the
        # other root 3 would scale it by 5 and negate every value.
        gf49 = make_context(7, 1)
        z4 = make_group(gf49, [(4, 1)])
        f = mm_construct(ScalarFunction.from_exponents(z4, 4, [0, 1, 3, 2]))
        dual = dual_bent(f)
        assert dual.values == tuple(gf49.from_int(2) * v for v in ft(f).values)
        assert [list(v.coeffs) for v in dual.values] == [
            [1, 0], [1, 0], [1, 0], [1, 0], [6, 0], [0, 1], [1, 0], [0, 6],
            [0, 6], [0, 1], [0, 6], [0, 1], [0, 1], [6, 0], [0, 6], [1, 0],
        ]


class TestDualCensus:
    """Every bent table G -> S_d of the census groups has a regular dual,
    one with values in S_d again, and dualizing twice gives f(-x) exactly.
    On Z_2 x Z_4 over GF(9), |G| = 2 (mod 3) is not a square, so every bent
    table there raises NotQuadraticResidue."""

    # (p, n, factors, d, number of bent tables)
    CENSUS = [
        (2, 1, [(3, 1)], 3, 18),
        (2, 2, [(5, 1)], 5, 100),
        (3, 1, [(4, 1)], 4, 32),
        (2, 1, [(3, 2)], 3, 2916),
        (2, 3, [(3, 2)], 3, 2916),
        (3, 1, [(2, 4)], 2, 1408),
        (5, 1, [(6, 1)], 6, 432),
    ]

    @pytest.mark.parametrize("p, n, factors, d, count", CENSUS)
    def test_duals_are_regular_and_involutive(self, p, n, factors, d, count):
        spec = make_group(make_context(p, n), factors)
        ud = spec.ctx.circle_subgroup_generator(d)
        roots = {(ud**k).code for k in range(d)}
        tables = search_bent(spec, d).tables
        assert len(tables) == count
        for e in tables:
            f = ScalarFunction.from_exponents(spec, d, e)
            dual = dual_bent(f)
            assert {v.code for v in dual.values} <= roots, e
            assert dual_bent(dual) == negated_argument(f), e

    def test_no_dual_without_a_square_root_of_the_order(self, z2z4):
        tables = search_bent(z2z4, 4).tables
        assert len(tables) == 1408
        for e in tables:
            with pytest.raises(NotQuadraticResidue):
                dual_bent(ScalarFunction.from_exponents(z2z4, 4, e))


class TestProductConstruction:
    def test_constant_input_gives_character_sheet(self, gf4, z3):
        f = mm_construct(ScalarFunction.constant(z3, gf4.one))
        # the product group keeps the factor decomposition as given
        assert f.spec == make_group(gf4, [(3, 1), (3, 1)])
        assert f.spec.dims == (3, 3)
        w = gf4.element([0, 1])
        for x in range(3):
            for y in range(3):
                assert f.at((x, y)) == w ** (x * y)
        assert is_bent_autocorr(f).is_bent

    def test_all_circle_inputs_give_bent_outputs(self, z3):
        for e in itertools.product(range(3), repeat=3):
            g = ScalarFunction.from_exponents(z3, 3, e)
            f = mm_construct(g)
            assert is_bent_spectral(f).is_bent
            assert is_bent_autocorr(f).is_bent

    def test_non_circle_input_rejected(self, gf4, z3):
        with pytest.raises(NotCircleValued):
            mm_construct(ScalarFunction(z3, (gf4.one, gf4.zero, gf4.one)))


class TestSearch:
    def test_count_matches_reference_census(self, z3):
        result = search_bent(z3, 3)
        assert result.candidates == 27
        assert result.count == 18
        assert list(result.tables) == naive_search(z3, 3)

    def test_trivial_group_everything_bent(self, gf4):
        z1 = make_group(gf4, [(1, 1)])
        result = search_bent(z1, 3)
        assert result.candidates == 3
        assert result.count == 3

    def test_worker_count_does_not_change_output(self, monkeypatch, gf9):
        # Z_4^2 with d = 2 has 8192 normalized tables: two workers at BLOCK = 4096.
        z4sq = make_group(gf9, [(4, 2)])
        monkeypatch.setattr(bent, "BLOCK", 4096)
        assert bent._SearchKernel(z4sq, 2, bent._field_verdict(gf9, 2)).normalized >= 2 * bent.BLOCK
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        single = search_bent(z4sq, 2, max_candidates=2**16)
        assert started == []
        assert single.candidates == 2**16
        assert single.count == 896
        multi = search_bent(z4sq, 2, max_candidates=2**16, jobs=2)
        assert started == [2]
        assert multi == single

    def test_spawned_workers_match_one_job(self):
        # spawn is the default start method on macOS (and forkserver on
        # Linux from Python 3.14): workers import the package afresh and
        # receive the kernel pickled.  Z_4^2 with d = 2 has 8192 normalized
        # tables: two workers at BLOCK = 4096.
        code = (
            "import concurrent.futures, multiprocessing, os\n"
            "from gfharmonic import bent, make_context, make_group, search_bent\n"
            "multiprocessing.set_start_method('spawn')\n"
            "bent.BLOCK = 4096\n"
            "os.cpu_count = lambda: 2\n"
            "started = []\n"
            "class RecordingPool(concurrent.futures.ProcessPoolExecutor):\n"
            "    def __init__(self, max_workers, **kwargs):\n"
            "        started.append(max_workers)\n"
            "        super().__init__(max_workers, **kwargs)\n"
            "concurrent.futures.ProcessPoolExecutor = RecordingPool\n"
            "z4sq = make_group(make_context(3, 1), [(4, 2)])\n"
            "single = search_bent(z4sq, 2, max_candidates=2**16)\n"
            "multi = search_bent(z4sq, 2, max_candidates=2**16, jobs=2)\n"
            "print(started, single.count, multi == single)\n"
        )
        src = str(Path(gfharmonic.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[2]", "896", "True"]

    def test_budget_guard(self, z5sq):
        with pytest.raises(BudgetExceeded):
            search_bent(z5sq, 5, max_candidates=1000)

    def test_found_tables_actually_bent(self, z3sq):
        result = search_bent(z3sq, 3)
        sample = result.tables[:: max(1, len(result.tables) // 20)]
        for e in sample:
            f = ScalarFunction.from_exponents(z3sq, 3, e)
            assert is_bent_spectral(f).is_bent


def _no_kernel(*args):
    raise AssertionError("the search built a kernel or a translation row")


class TestSearchBounds:
    """The search rejects an infeasible search before the kernel, or any
    row of it, is built."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(bent, "_SearchKernel", _no_kernel)
        monkeypatch.setattr(bent.GroupSpec, "translate_row", _no_kernel)

    def test_budget_checked_before_the_kernel(self, no_kernel, z5sq):
        # 5^25 tables
        with pytest.raises(BudgetExceeded) as exc:
            search_bent(z5sq, 5)
        assert exc.value.witness == 5**25

    def test_budget_boundary(self, z3):
        with pytest.raises(BudgetExceeded) as exc:
            search_bent(z3, 3, max_candidates=26)
        assert exc.value.witness == 27
        result = search_bent(z3, 3, max_candidates=27)
        assert (result.candidates, list(result.tables)) == (27, naive_search(z3, 3))

    @pytest.mark.parametrize("m", [6, 10])
    def test_group_bound(self, no_kernel, gf4, m):
        # With d = 1 there is one candidate, so only the group bound applies.
        spec = make_group(gf4, [(3, m)])
        witness = {"order": 3**m, "max_order": bent.MAX_SEARCH_ORDER}
        with pytest.raises(TooLarge) as exc:
            search_bent(spec, 1)
        assert exc.value.witness == witness

    def test_largest_group_within_bound(self, gf9):
        spec = make_group(gf9, [(2, 8)])
        assert spec.order == bent.MAX_SEARCH_ORDER
        result = search_bent(spec, 1)
        assert (result.candidates, result.count) == (1, 0)


class TestJobsBound:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replaces ProcessPoolExecutor with one that records max_workers and
        runs every block in this process, so no worker process is started.
        Like a pool, it runs a pickled copy of the function it is given."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(pickle.loads(pickle.dumps(fn)), items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        return sizes

    def test_pooled_search_builds_no_field(self, monkeypatch, pool_sizes, z3sq):
        # The blocks carry the parent's kernel: neither the parent nor a
        # worker builds a field context, so none is rebuilt per worker.
        expected = search_bent(z3sq, 3)

        def no_field(*args, **kwargs):
            raise AssertionError("the search built a field")

        monkeypatch.setattr(bent, "BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(field, "make_context", no_field)
        monkeypatch.setattr(field.FieldContext, "__init__", no_field)
        result = search_bent(z3sq, 3, jobs=3)
        assert pool_sizes == [3]
        assert result == expected

    def test_jobs_clamped_to_cpu_count(self, monkeypatch, pool_sizes, z3sq):
        monkeypatch.setattr(bent, "BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = search_bent(z3sq, 3, jobs=100_000)
        assert pool_sizes == [3]
        assert result == search_bent(z3sq, 3)

    def test_unknown_cpu_count_runs_serially(self, monkeypatch, pool_sizes, z3):
        monkeypatch.setattr(bent, "BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        result = search_bent(z3, 3, jobs=100_000)
        assert pool_sizes == []
        assert result.count == 18

    def test_one_worker_per_block(self, monkeypatch, pool_sizes, z3sq):
        # Z_3^2 with d = 3 has 729 normalized tables: two blocks of 300.
        monkeypatch.setattr(bent, "BLOCK", 300)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = search_bent(z3sq, 3, jobs=8)
        assert pool_sizes == [2]
        assert result == search_bent(z3sq, 3)

    def test_no_worker_count_duplicates_a_table(self, monkeypatch, pool_sizes, z3, z3sq):
        # One worker per normalized table: Z_3 with d = 3 has 3 normalized
        # tables but a single head, Z_3^2 has 729 in 243 heads, so some parts
        # are empty and the others hold one head each.  Inline, no process starts.
        expected = [search_bent(z3, 3), search_bent(z3sq, 3)]
        monkeypatch.setattr(bent, "BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 1000)
        result = [search_bent(z3, 3, jobs=1000), search_bent(z3sq, 3, jobs=1000)]
        assert pool_sizes == [3, 729]
        assert [r.count for r in result] == [18, 2916]
        assert result == expected

    def test_only_the_top_of_the_budget_starts_a_pool(self, monkeypatch, pool_sizes, gf9):
        # At the measured BLOCK, Z_4^2 with d = 2 (8192 normalized tables)
        # stays serial and Z_19 over GF(37^2) with d = 2 (262144) splits in two.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        search_bent(make_group(gf9, [(4, 2)]), 2, jobs=2)
        assert pool_sizes == []
        search_bent(make_group(make_context(37, 1), [(19, 1)]), 2, jobs=2)
        assert pool_sizes == [2]

    def test_small_parallel_search_starts_no_pool(self, monkeypatch, pool_sizes, z3sq):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        result = search_bent(z3sq, 3, jobs=2)
        assert pool_sizes == []
        assert result == search_bent(z3sq, 3)

    def test_a_search_that_starts_no_pool_reads_no_cpu_count(self, monkeypatch, pool_sizes, z3sq):
        # Serial, or with fewer than 2 * BLOCK normalized tables (729 here).
        expected = search_bent(z3sq, 3)

        def no_cpu_count():
            raise AssertionError("the search read the cpu count")

        monkeypatch.setattr(os, "cpu_count", no_cpu_count)
        assert search_bent(z3sq, 3) == expected
        assert search_bent(z3sq, 3, jobs=2) == expected
        assert pool_sizes == []
