import itertools
import random

import pytest

from gfharmonic import (
    DimensionMismatch,
    IndexOutOfRange,
    NotOnHypersphere,
    ScalarFunction,
    SpecMismatch,
    VectorFunction,
    coordinate_function,
    ft,
    hermitian_dot,
    is_bent_spectral,
    is_md_bent,
    is_md_bent_derivative,
    md_derivative,
    md_ft,
    md_inverse_ft,
    norm_l,
    on_hypersphere,
    vector_convolve,
)
from _oracles import random_circle_function, random_function, random_vector_function


class TestHermitianDot:
    def test_gf4_example(self, gf4):
        w = gf4.element([0, 1])
        assert hermitian_dot((gf4.one, w), (w, gf4.one)) == gf4.one

    def test_isotropic_nonzero_vector(self, gf4):
        w = gf4.element([0, 1])
        assert norm_l((w, w)) == gf4.zero
        assert not on_hypersphere((w, w))

    def test_canonical_basis_orthonormal(self, gf16):
        basis = [
            (gf16.one, gf16.zero),
            (gf16.zero, gf16.one),
        ]
        for i, e in enumerate(basis):
            for j, ee in enumerate(basis):
                expected = gf16.one if i == j else gf16.zero
                assert hermitian_dot(e, ee) == expected

    def test_linearity_and_conjugate_symmetry(self, gf9):
        els = list(gf9.elements())
        rng = random.Random(3)
        for _ in range(40):
            x = (rng.choice(els), rng.choice(els))
            y = (rng.choice(els), rng.choice(els))
            a = rng.choice(els)
            ax = tuple(a * v for v in x)
            assert hermitian_dot(ax, y) == a * hermitian_dot(x, y)
            assert hermitian_dot(x, y) == hermitian_dot(y, x).conjugate()

    def test_self_product_lands_in_subfield(self, gf9):
        els = list(gf9.elements())
        for x0, x1 in itertools.product(els[:5], els):
            v = norm_l((x0, x1))
            assert v ** gf9.sqrt_q == v

    def test_pairing_nondegenerate(self, gf4):
        basis = [(gf4.one, gf4.zero), (gf4.zero, gf4.one)]
        for x in itertools.product(gf4.elements(), gf4.elements()):
            if all(hermitian_dot(x, e).is_zero() for e in basis):
                assert all(v.is_zero() for v in x)

    def test_dimension_mismatch(self, gf4):
        with pytest.raises(DimensionMismatch):
            hermitian_dot((gf4.one,), (gf4.one, gf4.zero))


class TestTransform:
    def test_dimension_one_collapses_to_scalar(self, z3, z2z4):
        rng = random.Random(7)
        for spec in (z3, z2z4):
            for _ in range(20):
                f = random_function(spec, rng)
                lifted = VectorFunction.from_scalar(f, 1)
                assert [v[0] for v in md_ft(lifted).values] == list(ft(f).values)

    def test_padded_example(self, gf4, z3):
        w = gf4.element([0, 1])
        w2 = gf4.element([1, 1])
        f = VectorFunction.from_scalar(ScalarFunction(z3, (gf4.one, w, w)), 2)
        F = md_ft(f)
        assert [v[0] for v in F.values] == [gf4.one, w2, w2]
        assert all(v[1].is_zero() for v in F.values)

    def test_zero_function(self, z2z4):
        zero = z2z4.ctx.zero
        f = VectorFunction(z2z4, 3, ((zero,) * 3,) * 8)
        assert md_ft(f) == f

    def test_round_trip(self, z3, z2z4):
        rng = random.Random(11)
        for spec in (z3, z2z4):
            for _ in range(15):
                f = random_vector_function(spec, 2, rng)
                assert md_inverse_ft(md_ft(f)) == f
                assert md_ft(md_inverse_ft(f)) == f

    def test_double_transform_is_scaled_negation(self, z2z4):
        rng = random.Random(13)
        c = z2z4.ctx.from_int(z2z4.order_mod_p)
        for _ in range(10):
            f = random_vector_function(z2z4, 2, rng)
            doubled = md_ft(md_ft(f))
            for x in z2z4.elements():
                expected = tuple(c * v for v in f.at(z2z4.neg(x)))
                assert doubled.at(x) == expected

    def test_equals_coordinatewise_scalar_transform(self, z3, z2z4):
        rng = random.Random(17)
        for spec in (z3, z2z4):
            for _ in range(10):
                f = random_vector_function(spec, 3, rng)
                F = md_ft(f)
                for e in range(3):
                    assert coordinate_function(F, e) == ft(coordinate_function(f, e))


class TestCoordinates:
    def test_projection(self, gf4, z3):
        w = gf4.element([0, 1])
        f = VectorFunction.from_scalar(ScalarFunction(z3, (gf4.one, w, w)), 2)
        assert coordinate_function(f, 0).values == (gf4.one, w, w)
        assert coordinate_function(f, 1).values == (gf4.zero,) * 3

    def test_reassembly(self, z2z4):
        rng = random.Random(19)
        f = random_vector_function(z2z4, 3, rng)
        zero = z2z4.ctx.zero
        coords = [coordinate_function(f, e) for e in range(3)]
        rebuilt = []
        for i in range(z2z4.order):
            vec = [zero, zero, zero]
            for e in range(3):
                vec[e] = vec[e] + coords[e].values[i]
            rebuilt.append(tuple(vec))
        assert VectorFunction(z2z4, 3, tuple(rebuilt)) == f

    def test_index_guard(self, gf4, z3):
        f = VectorFunction.from_scalar(ScalarFunction.constant(z3, gf4.one), 2)
        with pytest.raises(IndexOutOfRange):
            coordinate_function(f, 2)

    def test_slot_guard(self, gf4, z3):
        with pytest.raises(IndexOutOfRange) as exc:
            VectorFunction.from_scalar(ScalarFunction.constant(z3, gf4.one), 2, slot=2)
        assert exc.value.witness == 2

    def test_table_checks(self, gf4, gf16, z3):
        with pytest.raises(SpecMismatch, match="outside the spec's field"):
            VectorFunction(z3, 1, ((gf4.one,), (gf4.one,), (gf16.one,)))
        with pytest.raises(SpecMismatch, match="2 entries, group has 3"):
            VectorFunction(z3, 1, ((gf4.one,),) * 2)


class TestConvolution:
    def test_operands_on_different_groups_or_dimensions_rejected(self, gf4, z3, z2z4):
        f = VectorFunction.from_scalar(ScalarFunction.constant(z3, gf4.one), 2)
        with pytest.raises(SpecMismatch):
            vector_convolve(f, VectorFunction.from_scalar(ScalarFunction.constant(z2z4, z2z4.ctx.one), 2))
        with pytest.raises(DimensionMismatch):
            vector_convolve(f, VectorFunction.from_scalar(ScalarFunction.constant(z3, gf4.one), 3))

    def test_self_convolution_at_zero_sums_self_products(self, z2z4):
        rng = random.Random(23)
        f = random_vector_function(z2z4, 2, rng)
        total = z2z4.ctx.zero
        for vec in f.values:
            total = total + norm_l(vec)
        assert vector_convolve(f, f).at(z2z4.zero()) == total

    def test_trivialization(self, z3):
        rng = random.Random(29)
        for _ in range(15):
            f = random_vector_function(z3, 2, rng)
            g = random_vector_function(z3, 2, rng)
            lhs = ft(vector_convolve(f, g)).values
            Fg, Ff = md_ft(g), md_ft(f)
            rhs = tuple(
                hermitian_dot(Fg.values[i], Ff.values[i]) for i in range(z3.order)
            )
            assert lhs == rhs

    def test_parseval(self, z3, z2z4):
        rng = random.Random(31)
        for spec in (z3, z2z4):
            scale = spec.ctx.from_int(spec.inv_order_mod_p)
            for _ in range(15):
                f = random_vector_function(spec, 2, rng)
                lhs = spec.ctx.zero
                for vec in f.values:
                    lhs = lhs + norm_l(vec)
                rhs = spec.ctx.zero
                for vec in md_ft(f).values:
                    rhs = rhs + norm_l(vec)
                assert lhs == scale * rhs

    def test_hypersphere_valued_energy(self, z3):
        rng = random.Random(37)
        c = z3.ctx.from_int(z3.order_mod_p)
        for _ in range(10):
            f = VectorFunction.from_scalar(random_circle_function(z3, rng), 2)
            total = z3.ctx.zero
            for vec in md_ft(f).values:
                total = total + norm_l(vec)
            assert total == c * c


class TestMdBent:
    def test_dimension_one_matches_scalar_census(self, z3):
        for e in itertools.product(range(3), repeat=3):
            f = ScalarFunction.from_exponents(z3, 3, e)
            lifted = VectorFunction.from_scalar(f, 1)
            spectral = is_md_bent(lifted)
            derived = is_md_bent_derivative(lifted)
            scalar = is_bent_spectral(f)
            assert spectral.is_bent == scalar.is_bent
            assert derived.is_bent == scalar.is_bent
            assert spectral.failing_points == scalar.failing_points

    def test_zero_padded_bent_function_stays_bent(self, gf4, z3):
        w = gf4.element([0, 1])
        f = VectorFunction.from_scalar(ScalarFunction(z3, (gf4.one, w, w)), 2)
        assert is_md_bent(f).is_bent
        assert is_md_bent_derivative(f).is_bent

    def test_constant_basis_vector_not_bent(self, gf4, z3):
        f = VectorFunction(z3, 2, ((gf4.one, gf4.zero),) * 3)
        report = is_md_bent(f)
        assert not report.is_bent
        assert is_md_bent_derivative(f).is_bent == report.is_bent

    def test_derivative_agreement_on_random_dimension_two(self, z3):
        rng = random.Random(41)
        w = z3.ctx.element([0, 1])
        one, zero = z3.ctx.one, z3.ctx.zero
        # hypersphere-valued samples: unit vectors scaled by circle elements
        units = [(one, zero), (zero, one), (w, zero), (zero, w)]
        for _ in range(25):
            values = tuple(rng.choice(units) for _ in range(z3.order))
            f = VectorFunction(z3, 2, values)
            assert is_md_bent(f).is_bent == is_md_bent_derivative(f).is_bent

    def test_derivative_of_zero_direction(self, z3):
        rng = random.Random(43)
        f = VectorFunction.from_scalar(random_circle_function(z3, rng), 2)
        d0 = md_derivative(f, z3.zero())
        assert d0.values == (z3.ctx.one,) * 3

    def test_off_sphere_input_rejected(self, gf4, z3):
        w = gf4.element([0, 1])
        f = VectorFunction(z3, 2, ((gf4.one, gf4.zero), (w, w), (gf4.one, gf4.zero)))
        with pytest.raises(NotOnHypersphere) as err:
            is_md_bent(f)
        assert err.value.witness == (1,)
