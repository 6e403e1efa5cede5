import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfharmonic.fourier as fourier_module
from gfharmonic import (
    ScalarFunction,
    SpecMismatch,
    character_row,
    convolve,
    ft,
    inner_product,
    inverse_ft,
    make_context,
    make_group,
    mm_construct,
    parseval_check,
    plancherel_check,
)
from _oracles import naive_ft, negated_argument, random_circle_function, random_function


class TestTransform:
    def test_delta_at_zero_transforms_to_one(self, z5):
        f = ScalarFunction.delta(z5, z5.zero())
        assert ft(f).values == (z5.ctx.one,) * 5

    def test_constant_one_on_z3(self, gf4, z3):
        f = ScalarFunction.constant(z3, gf4.one)
        assert ft(f).values == (gf4.one, gf4.zero, gf4.zero)

    def test_frozen_example_on_z3(self, gf4, z3):
        w = gf4.element([0, 1])
        w2 = gf4.element([1, 1])
        f = ScalarFunction(z3, (gf4.one, w, w))
        assert ft(f).values == (gf4.one, w2, w2)

    def test_agrees_with_field_exponentiation_oracle(self, z3, z5, z2z4):
        rng = random.Random(11)
        for spec in (z3, z5, z2z4):
            for _ in range(15):
                f = random_function(spec, rng)
                assert ft(f) == naive_ft(f)

    def test_delta_transforms_to_characters(self, z5):
        for x in z5.elements():
            assert ft(ScalarFunction.delta(z5, x)) == character_row(z5, x)

    def test_linearity(self, z2z4):
        rng = random.Random(5)
        ctx = z2z4.ctx
        els = list(ctx.elements())
        for _ in range(10):
            f = random_function(z2z4, rng)
            g = random_function(z2z4, rng)
            a = rng.choice(els)
            combo = ScalarFunction(
                z2z4, tuple(a * x + y for x, y in zip(f.values, g.values))
            )
            expected = tuple(a * x + y for x, y in zip(ft(f).values, ft(g).values))
            assert ft(combo).values == expected


class TestInversion:
    def test_ones_inverts_to_delta(self, z5):
        F = ScalarFunction.constant(z5, z5.ctx.one)
        assert inverse_ft(F) == ScalarFunction.delta(z5, z5.zero())

    def test_inverts_the_constant_example(self, gf4, z3):
        F = ScalarFunction(z3, (gf4.one, gf4.zero, gf4.zero))
        assert inverse_ft(F) == ScalarFunction.constant(z3, gf4.one)

    def test_zero_maps_to_zero(self, z5):
        F = ScalarFunction.constant(z5, z5.ctx.zero)
        assert inverse_ft(F) == F
        assert ft(F) == F

    def test_round_trip_exhaustive_on_z3(self, gf4, z3):
        els = list(gf4.elements())
        for combo in itertools.product(els, repeat=3):
            f = ScalarFunction(z3, combo)
            assert inverse_ft(ft(f)) == f
            assert ft(inverse_ft(f)) == f

    def test_round_trip_random(self, z5, z4, z2z4, z5sq):
        rng = random.Random(23)
        for spec in (z5, z4, z2z4, z5sq):
            for _ in range(20):
                f = random_function(spec, rng)
                assert inverse_ft(ft(f)) == f

    def test_double_transform_is_scaled_negation(self, z3, z2z4, z5):
        rng = random.Random(29)
        for spec in (z3, z2z4, z5):
            c = spec.ctx.from_int(spec.order_mod_p)
            for _ in range(20):
                f = random_function(spec, rng)
                doubled = ft(ft(f))
                expected = tuple(c * v for v in negated_argument(f).values)
                assert doubled.values == expected


class TestConvolution:
    def test_delta_zero_is_identity(self, z2z4):
        rng = random.Random(31)
        delta = ScalarFunction.delta(z2z4, z2z4.zero())
        for _ in range(5):
            f = random_function(z2z4, rng)
            assert convolve(f, delta) == f
            assert convolve(delta, f) == f

    def test_delta_supports_add(self, z3):
        d1 = ScalarFunction.delta(z3, (1,))
        assert convolve(d1, d1) == ScalarFunction.delta(z3, (2,))

    def test_trivialization(self, z5, z2z4):
        rng = random.Random(37)
        for spec in (z5, z2z4):
            for _ in range(15):
                f = random_function(spec, rng)
                g = random_function(spec, rng)
                lhs = ft(convolve(f, g)).values
                rhs = tuple(a * b for a, b in zip(ft(f).values, ft(g).values))
                assert lhs == rhs

    def test_trivialization_exhaustive_on_z3(self, gf4, z3):
        els = list(gf4.elements())
        fns = [ScalarFunction(z3, c) for c in itertools.product(els, repeat=3)]
        for f in fns[:16]:
            for g in fns:
                lhs = ft(convolve(f, g)).values
                rhs = tuple(a * b for a, b in zip(ft(f).values, ft(g).values))
                assert lhs == rhs

    def test_factors_grouped_differently(self):
        # mm_construct lists the factors of g twice, ((17, 1), (17, 1)); the same
        # group written (17, 2) lists the same elements in the same order.
        ctx = make_context(2, 4)
        g = ScalarFunction.from_exponents(make_group(ctx, [(17, 1)]), 17, [y * y for y in range(17)])
        mm = mm_construct(g)
        f = random_circle_function(make_group(ctx, [(17, 2)]), random.Random(41))
        assert (mm.spec.factors, f.spec.factors) == (((17, 1), (17, 1)), ((17, 2),))
        same = ScalarFunction(mm.spec, f.values)
        assert convolve(mm, f) == convolve(mm, same)
        assert convolve(f, mm) == convolve(same, mm)

    def test_spec_mismatch(self, z3, z5):
        fa = ScalarFunction.constant(z3, z3.ctx.one)
        fb = ScalarFunction.constant(z5, z5.ctx.one)
        with pytest.raises(SpecMismatch):
            convolve(fa, fb)


class TestPlancherelParseval:
    def test_delta_pair(self, z5):
        d = ScalarFunction.delta(z5, z5.zero())
        assert plancherel_check(d, d)
        assert parseval_check(d)

    def test_frozen_circle_example(self, gf4, z3):
        w = gf4.element([0, 1])
        f = ScalarFunction(z3, (gf4.one, w, w))
        spectral_energy = gf4.zero
        for v in ft(f).values:
            spectral_energy = spectral_energy + v.norm()
        assert spectral_energy == gf4.one  # (3 mod 2)^2
        assert parseval_check(f)

    def test_random_functions(self, z5, z4, z2z4):
        rng = random.Random(41)
        for spec in (z5, z4, z2z4):
            for _ in range(25):
                f = random_function(spec, rng)
                g = random_function(spec, rng)
                assert plancherel_check(f, g)
                assert parseval_check(f)

    def test_circle_valued_energy(self, z2z4):
        rng = random.Random(43)
        ctx = z2z4.ctx
        c = ctx.from_int(z2z4.order_mod_p)
        for _ in range(25):
            f = random_circle_function(z2z4, rng)
            total = ctx.zero
            for v in ft(f).values:
                total = total + v.norm()
            assert total == c * c
            assert parseval_check(f)

    def test_a_wrong_spectrum_fails_the_energy_identity(self, monkeypatch, z2z4):
        """With ft returning f itself, the spectral energy is the energy of f,
        not |G| mod p = 2 times it; this f has nonzero energy."""
        f = random_function(z2z4, random.Random(44))
        assert parseval_check(f) and inner_product(f, f) != z2z4.ctx.zero
        monkeypatch.setattr(fourier_module, "ft", lambda g: g)
        assert not parseval_check(f)

    def test_a_wrong_energy_fails_the_circle_value(self, monkeypatch, z2z4):
        """For circle-valued f the energy identity already forces the spectral
        energy (|G| mod p)^2 when inner_product(f, f) is |G| mod p; with a
        zero inner product both sides agree, and only the circle check fails."""
        f = random_circle_function(z2z4, random.Random(45))
        assert parseval_check(f)
        monkeypatch.setattr(fourier_module, "inner_product", lambda g, h: z2z4.ctx.zero)
        assert not parseval_check(f)


@settings(max_examples=40, deadline=None)
@given(codes=st.lists(st.integers(0, 8), min_size=8, max_size=8))
def test_round_trip_property_on_mixed_group(codes):
    ctx = make_context(3, 1)
    spec = make_group(ctx, [(2, 1), (4, 1)])
    els = list(ctx.elements())
    f = ScalarFunction(spec, tuple(els[c] for c in codes))
    assert inverse_ft(ft(f)) == f
