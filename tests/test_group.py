import math
import types

import pytest

from gfharmonic import InadmissibleFactor, ShapeMismatch, TooLarge, make_context, make_group
from gfharmonic import group

from _oracles import factor_dot


class TestMakeGroup:
    def test_z3_over_gf4(self, z3):
        assert z3.order == 3
        assert z3.order_mod_p == 1
        assert z3.inv_order_mod_p == 1

    def test_z5sq_over_gf16(self, z5sq):
        assert z5sq.order == 25
        assert z5sq.order_mod_p == 1

    def test_mixed_factors_over_gf9(self, z2z4):
        assert z2z4.dims == (2, 4)
        assert z2z4.order == 8
        assert z2z4.order_mod_p == 2
        assert z2z4.inv_order_mod_p == 2

    def test_inadmissible_factor_rejected(self, gf16):
        with pytest.raises(InadmissibleFactor):
            make_group(gf16, [(3, 1)])

    def test_empty_factors_rejected(self, gf4):
        with pytest.raises(InadmissibleFactor):
            make_group(gf4, [])

    def test_order_coprime_to_p(self, z3, z5, z4, z2z4, z5sq):
        for spec in (z3, z5, z4, z2z4, z5sq):
            assert math.gcd(spec.order, spec.ctx.p) == 1

    def test_order_bound(self, gf9):
        assert make_group(gf9, [(2, 12), (4, 6)]).order == 2**group.MAX_LOG2_ORDER
        with pytest.raises(TooLarge) as exc:
            make_group(gf9, [(2, 13), (4, 6)])
        assert exc.value.witness == {"log2_order": 25.0, "max_log2_order": 24}

    def test_trivial_factors_count_as_z2(self, gf9):
        # Z_1 adds no elements but one coordinate each.
        assert make_group(gf9, [(1, 24)]).dims == (1,) * 24
        with pytest.raises(TooLarge):
            make_group(gf9, [(1, 25)])

    def test_order_bounded_before_the_coordinates_are_listed(self, monkeypatch, gf4):
        def no_list(*args):
            raise AssertionError("coordinates listed before the order check")

        spy = types.SimpleNamespace(chain=types.SimpleNamespace(from_iterable=no_list))
        monkeypatch.setattr(group, "itertools", spy)
        with pytest.raises(TooLarge):
            make_group(gf4, [(3, 1000)])
        with pytest.raises(AssertionError):  # the spy does see a group within the bound
            make_group(gf4, [(3, 15)])


class TestEquality:
    """Specs are equal when they have the same field and the same coordinate
    moduli, so that they list the same elements in the same order, however
    the factors are grouped."""

    def test_grouping_of_the_factors(self, gf9):
        a = make_group(gf9, [(2, 1), (4, 2)])
        b = make_group(gf9, [(2, 1), (4, 1), (4, 1)])
        assert a.factors != b.factors
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert list(a.elements()) == list(b.elements())

    def test_order_of_the_coordinates_and_the_field(self, gf9, gf16):
        assert make_group(gf9, [(2, 1), (4, 1)]) != make_group(gf9, [(4, 1), (2, 1)])
        assert make_group(gf9, [(2, 2)]) != make_group(gf9, [(2, 1)])
        assert make_group(gf9, [(1, 1)]) != make_group(gf16, [(1, 1)])


class TestElementOps:
    def test_componentwise_add(self, z5sq):
        assert z5sq.add((2, 3), (4, 4)) == (1, 2)

    def test_neg_is_inverse(self, z2z4):
        for x in z2z4.elements():
            assert z2z4.add(x, z2z4.neg(x)) == z2z4.zero()

    def test_enumerate_canonical_order(self, z3):
        assert list(z3.elements()) == [(0,), (1,), (2,)]

    def test_enumeration_count_and_distinctness(self, z5sq, z2z4):
        for spec in (z5sq, z2z4):
            els = list(spec.elements())
            assert len(els) == spec.order
            assert len(set(els)) == spec.order

    def test_index_round_trip(self, z2z4):
        for i, x in enumerate(z2z4.elements()):
            assert z2z4.index_of(x) == i
            assert z2z4.element_at(i) == x

    @pytest.mark.parametrize(
        "p, n, factors",
        [(2, 2, [(5, 2)]), (3, 1, [(2, 1), (4, 1)]), (2, 1, [(3, 3)]), (2, 1, [(1, 1)])],
    )
    def test_directions_up_to_sign(self, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        reps = list(spec.directions_up_to_sign())
        assert reps == sorted(reps, key=spec.index_of)
        pairs = [{a, spec.neg(a)} for a in reps]
        assert all(spec.index_of(spec.neg(a)) >= spec.index_of(a) for a in reps)
        assert sorted(x for pair in pairs for x in pair) == list(spec.elements())[1:]

    def test_shape_mismatch(self, z5sq):
        with pytest.raises(ShapeMismatch):
            z5sq.add((1,), (2, 3))


class TestFactorDot:
    def test_z5sq_example(self, z5sq):
        assert factor_dot(z5sq, (2, 3), (1, 4)) == [4]

    def test_zero_argument(self, z2z4):
        for x in z2z4.elements():
            assert factor_dot(z2z4, z2z4.zero(), x) == [0, 0]

    def test_z3_example(self, z3):
        assert factor_dot(z3, (2,), (2,)) == [1]

    def test_symmetry(self, z2z4):
        for a in z2z4.elements():
            for x in z2z4.elements():
                assert factor_dot(z2z4, a, x) == factor_dot(z2z4, x, a)

    def test_bilinearity(self, z5sq):
        a, b, x = (2, 3), (4, 1), (1, 4)
        lhs = factor_dot(z5sq, z5sq.add(a, b), x)
        rhs = [
            (u + v) % d
            for u, v, (d, _) in zip(
                factor_dot(z5sq, a, x), factor_dot(z5sq, b, x), z5sq.factors
            )
        ]
        assert lhs == rhs
