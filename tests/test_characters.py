import itertools

import pytest

from gfharmonic import (
    ScalarFunction,
    SpecMismatch,
    TooLarge,
    character_row,
    character_value,
    evaluation_map_is_bijective,
    inner_product,
    make_group,
)
from gfharmonic.characters import character_value_naive
from gfharmonic.group import MAX_WORK

from _oracles import character_sum


class TestCharacterValue:
    def test_z3_generator_at_one(self, gf4, z3):
        w = gf4.element([0, 1])
        assert character_value(z3, (1,), (1,)) == w

    def test_trivial_character(self, z5):
        for x in z5.elements():
            assert character_value(z5, z5.zero(), x) == z5.ctx.one

    def test_z5_exponent_wraps(self, gf16, z5):
        assert character_value(z5, (2,), (3,)) == gf16.u
        assert character_value(z5, (2,), (3,)) == gf16.g ** 3

    def test_values_lie_in_circle(self, z2z4):
        for a, x in itertools.product(z2z4.elements(), z2z4.elements()):
            assert character_value(z2z4, a, x).in_circle()

    def test_value_at_zero_is_one(self, z2z4):
        for a in z2z4.elements():
            assert character_value(z2z4, a, z2z4.zero()) == z2z4.ctx.one

    def test_negation_gives_conjugate(self, z2z4):
        for a, x in itertools.product(z2z4.elements(), z2z4.elements()):
            lhs = character_value(z2z4, a, z2z4.neg(x))
            assert lhs == character_value(z2z4, a, x).conjugate()

    def test_fast_path_agrees_with_field_exponentiation(self, z3, z5, z4, z2z4, z5sq):
        for spec in (z3, z5, z4, z2z4, z5sq):
            for a, x in itertools.product(spec.elements(), spec.elements()):
                assert character_value(spec, a, x) == character_value_naive(spec, a, x)

    def test_homomorphism_property(self, z2z4):
        for a in z2z4.elements():
            for x, y in itertools.product(z2z4.elements(), z2z4.elements()):
                lhs = character_value(z2z4, a, z2z4.add(x, y))
                assert lhs == character_value(z2z4, a, x) * character_value(z2z4, a, y)

    def test_argument_symmetry(self, z2z4, z5sq):
        for spec in (z2z4, z5sq):
            for a, x in itertools.product(spec.elements(), spec.elements()):
                assert character_value(spec, a, x) == character_value(spec, x, a)

    def test_distinct_characters(self, z3, z5, z2z4):
        for spec in (z3, z5, z2z4):
            rows = {tuple(character_row(spec, a).values) for a in spec.elements()}
            assert len(rows) == spec.order


class TestCharacterSum:
    def test_nonzero_index_sums_to_zero(self, z3):
        assert character_sum(z3, (1,)) == z3.ctx.zero

    def test_zero_index_gives_order_mod_p(self, z3, z5, z2z4):
        for spec in (z3, z5, z2z4):
            expected = spec.ctx.from_int(spec.order_mod_p)
            assert character_sum(spec, spec.zero()) == expected

    def test_all_nonzero_indices_vanish(self, z2z4, z5sq):
        for spec in (z2z4, z5sq):
            for a in spec.elements():
                if a == spec.zero():
                    continue
                assert character_sum(spec, a) == spec.ctx.zero


class TestInnerProduct:
    def test_orthogonality(self, z3, z5, z4, z2z4):
        for spec in (z3, z5, z4, z2z4):
            c = spec.ctx.from_int(spec.order_mod_p)
            rows = [character_row(spec, a) for a in spec.elements()]
            for i, ra in enumerate(rows):
                for j, rb in enumerate(rows):
                    expected = c if i == j else spec.ctx.zero
                    assert inner_product(ra, rb) == expected

    def test_conjugate_symmetry(self, z2z4):
        import random

        from _oracles import random_function

        rng = random.Random(3)
        for _ in range(25):
            f = random_function(z2z4, rng)
            g = random_function(z2z4, rng)
            assert inner_product(f, g) == inner_product(g, f).conjugate()

    def test_constant_one_self_product(self, z3):
        f = ScalarFunction.constant(z3, z3.ctx.one)
        assert inner_product(f, f) == z3.ctx.one

    def test_self_product_can_vanish_without_f_vanishing(self, gf4):
        # |G| even in characteristic 2 is impossible here, but a function
        # supported on two points with equal norms already shows the defect
        z3 = make_group(gf4, [(3, 1)])
        f = ScalarFunction(z3, (gf4.one, gf4.one, gf4.zero))
        assert inner_product(f, f) == gf4.zero

    def test_spec_mismatch(self, z3, z5):
        fa = ScalarFunction.constant(z3, z3.ctx.one)
        fb = ScalarFunction.constant(z5, z5.ctx.one)
        with pytest.raises(SpecMismatch):
            inner_product(fa, fb)


class TestEvaluationMap:
    def test_small_groups_bijective(self, z3, z5, z2z4, z5sq):
        for spec in (z3, z5, z2z4, z5sq):
            assert evaluation_map_is_bijective(spec)

    def test_trivial_group(self, gf4):
        z1 = make_group(gf4, [(1, 1)])
        assert evaluation_map_is_bijective(z1)

    def test_guard_on_large_groups(self, gf16):
        big = make_group(gf16, [(5, 6)])
        with pytest.raises(TooLarge) as info:
            evaluation_map_is_bijective(big)
        assert info.value.witness == {"work": 5**12, "max_work": MAX_WORK}

    def test_group_past_a_thousand_elements(self, gf4):
        # |G| = 2187, |G|^2 exponents within MAX_WORK, one row held at a time.
        assert evaluation_map_is_bijective(make_group(gf4, [(3, 7)]))


class TestScalarFunction:
    def test_length_validated(self, z3, gf4):
        with pytest.raises(SpecMismatch):
            ScalarFunction(z3, (gf4.one, gf4.one))

    def test_foreign_values_rejected(self, z3, gf16):
        with pytest.raises(SpecMismatch):
            ScalarFunction(z3, (gf16.one,) * 3)

    def test_from_exponents(self, gf4, z3):
        w = gf4.element([0, 1])
        f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
        assert f.values == (gf4.one, w, w)

    def test_delta(self, z5):
        f = ScalarFunction.delta(z5, (2,))
        assert f.at((2,)) == z5.ctx.one
        assert sum(v.is_zero() for v in f.values) == 4
