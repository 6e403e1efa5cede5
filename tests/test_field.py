import functools
import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfharmonic import (
    DegreeMismatch,
    DivisionByZero,
    FieldElement,
    InvalidDivisor,
    NonPrime,
    ReducibleModulus,
    SpecMismatch,
    TooLarge,
    make_context,
)
from gfharmonic import field
from gfharmonic.bent import _field_verdict
from gfharmonic.classical import _cyclotomic
from gfharmonic.cli import main
from _oracles import (
    int_poly_mul,
    irreducible_by_factor_enumeration,
    multiplicative_order,
    poly_mul,
    poly_rem,
    poly_trim,
    schoolbook_powers,
)


class TestConstruction:
    def test_gf4_selects_standard_modulus(self, gf4):
        assert gf4.modulus == (1, 1, 1)
        assert gf4.q == 4 and gf4.sqrt_q == 2 and gf4.circle_order == 3
        assert multiplicative_order(gf4.u) == 3

    def test_gf16_selects_standard_modulus(self, gf16):
        assert gf16.modulus == (1, 1, 0, 0, 1)
        assert gf16.u == gf16.g ** 3
        assert multiplicative_order(gf16.u) == 5

    def test_selected_moduli_are_irreducible_by_factor_enumeration(self):
        for p, n in [(2, 1), (2, 2), (3, 1), (5, 1)]:
            ctx = make_context(p, n)
            assert irreducible_by_factor_enumeration(ctx.modulus, p)

    @pytest.mark.parametrize(
        "p, n, q",
        [
            (2, 9, 2**18),
            (257, 1, 257**2),
            (2, 30, 2**60),
            (1_000_000_007, 1, 1_000_000_007**2),
            (2**521 - 1, 1, ">= 2^521"),
            (2, 10**18, ">= 2^2000000000000000000"),
            (10**400, 1, ">= 2^1329"),
        ],
    )
    def test_field_size_bounded_before_construction(self, monkeypatch, p, n, q):
        # Neither the primality test nor any construction step may run: a
        # huge p or n must be rejected from bit lengths alone.
        def forbidden(*args):
            raise AssertionError("construction ran before the size check")

        monkeypatch.setattr(field, "_is_prime", forbidden)
        monkeypatch.setattr(field.FieldContext, "_select_modulus", forbidden)
        with pytest.raises(TooLarge) as err:
            make_context(p, n)
        assert err.value.witness == {"q": q, "max_q": field.MAX_Q}

    def test_largest_fields_within_bound(self):
        assert make_context(2, 8).q == field.MAX_Q
        assert make_context(251, 1).q == 251**2

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NonPrime):
            make_context(4, 1)

    @pytest.mark.parametrize("p", [1, 0, 2.0, -300])
    def test_characteristic_checked_before_the_field_size(self, p):
        # At p = -300 the size check alone would report too-large (q = 90000).
        with pytest.raises(NonPrime) as exc:
            make_context(p, 1)
        assert exc.value.witness == p

    def test_reducible_modulus_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over GF(2)
        with pytest.raises(ReducibleModulus):
            make_context(2, 2, [1, 0, 1, 0, 1])

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(DegreeMismatch):
            make_context(2, 2, [1, 1, 1])

    def test_explicit_modulus_accepted(self):
        ctx = make_context(2, 2, [1, 1, 0, 0, 1])
        assert ctx.modulus == (1, 1, 0, 0, 1)

    def test_primitive_element_has_full_order(self):
        for p, n in [(2, 1), (2, 2), (3, 1)]:
            ctx = make_context(p, n)
            assert multiplicative_order(ctx.g) == ctx.q - 1


class TestArithmetic:
    def test_gf4_products(self, gf4):
        w = gf4.element([0, 1])
        w1 = gf4.element([1, 1])
        assert w * w == w1
        assert w * w1 == gf4.one
        assert w + w == gf4.zero

    def test_matches_schoolbook_polynomial_product(self, gf16):
        # oracle: schoolbook multiply then long-division remainder
        for a in gf16.elements():
            for b in list(gf16.elements())[:6]:
                raw = poly_mul(list(a.coeffs), list(b.coeffs), 2)
                rem = list(raw)
                mod = list(gf16.modulus)
                for i in range(len(rem) - 1, 3, -1):
                    if rem[i]:
                        for j in range(5):
                            rem[i - 4 + j] = (rem[i - 4 + j] - mod[j]) % 2
                expected = (rem + [0] * 4)[:4]
                assert list((a * b).coeffs) == expected

    def test_power_by_repeated_squaring_oracle(self, gf16):
        g = gf16.g
        acc = gf16.one
        for k in range(20):
            assert g ** k == acc
            acc = acc * g
        assert g ** 15 == gf16.one

    def test_inverse(self, gf9):
        for x in gf9.elements():
            if x.is_zero():
                with pytest.raises(DivisionByZero):
                    x.inverse()
            else:
                assert x * x.inverse() == gf9.one

    def test_negative_exponent(self, gf16):
        assert gf16.g ** -1 == gf16.g.inverse()
        with pytest.raises(DivisionByZero):
            gf16.zero ** -2

    def test_mixed_field_operands_rejected(self, gf4, gf16):
        with pytest.raises(SpecMismatch):
            gf4.one + gf16.one

    def test_division_and_the_zeroth_power_of_zero(self, gf16):
        assert gf16.g / gf16.g == gf16.one
        assert gf16.zero**0 == gf16.one

    def test_reprs(self, gf16):
        assert repr(gf16.element([0, 1, 0, 0])) == "FieldElement([0, 1, 0, 0], q=16)"
        assert repr(gf16) == "FieldContext(p=2, n=2, modulus=[1, 1, 0, 0, 1])"

    def test_not_equal_to_a_foreign_object(self, gf16):
        assert (gf16.one == 1) is False
        assert (gf16 == (2, 2)) is False


class TestConjugation:
    def test_gf4_conjugate_is_square(self, gf4):
        w = gf4.element([0, 1])
        assert w.conjugate() == w * w

    def test_fixes_zero_and_one(self, gf16):
        assert gf16.zero.conjugate() == gf16.zero
        assert gf16.one.conjugate() == gf16.one

    def test_gf16_conjugate_of_g(self, gf16):
        assert gf16.g.conjugate() == gf16.g ** 4

    def test_is_field_automorphism(self, gf16):
        els = list(gf16.elements())
        for a, b in itertools.product(els, els):
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        for a in els:
            assert a.conjugate().conjugate() == a

    def test_fixed_points_are_exactly_the_subfield(self, gf16, gf9):
        for ctx in (gf16, gf9):
            fixed = {x.code for x in ctx.elements() if x.conjugate() == x}
            subfield = {x.code for x in ctx.elements() if x ** ctx.sqrt_q == x}
            assert fixed == subfield
            assert len(fixed) == ctx.sqrt_q


class TestNorm:
    def test_gf4_norms(self, gf4):
        w = gf4.element([0, 1])
        assert w.norm() == gf4.one
        assert gf4.zero.norm() == gf4.zero

    def test_gf16_norm_of_g_lands_in_subfield(self, gf16):
        nm = gf16.g.norm()
        assert nm == gf16.g ** 5
        assert nm ** 4 == nm

    def test_norm_values_always_in_subfield(self, gf9, gf16):
        for ctx in (gf9, gf16):
            for x in ctx.elements():
                nm = x.norm()
                assert nm ** ctx.sqrt_q == nm

    def test_norm_multiplicative(self, gf9):
        els = list(gf9.elements())
        for a, b in itertools.product(els, els):
            assert (a * b).norm() == a.norm() * b.norm()

    def test_norm_vanishes_only_at_zero(self, gf16):
        for x in gf16.elements():
            assert x.norm().is_zero() == x.is_zero()

    # GF(4), GF(9), GF(25), GF(3^4), GF(2^8) and GF(2^16)
    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 4), (2, 8)])
    def test_norm_codes_match_the_element_norm(self, p, n):
        ctx = make_context(p, n)
        want = [x.norm().code for x in ctx.elements()]
        assert want[0] == 0
        assert field._norms(ctx, range(ctx.q)) == want


class TestCircle:
    def test_gf4_circle_is_all_nonzero_elements(self, gf4):
        w = gf4.element([0, 1])
        assert w.in_circle()
        assert set(gf4.circle()) == {gf4.one, w, gf4.element([1, 1])}

    def test_circle_size_is_sqrt_q_plus_one(self):
        for p, n in [(2, 1), (2, 2), (3, 1)]:
            ctx = make_context(p, n)
            members = [x for x in ctx.elements() if not x.is_zero() and x.in_circle()]
            assert len(members) == ctx.sqrt_q + 1
            assert set(members) == set(ctx.circle())

    def test_norm_on_circle_is_one(self, gf16):
        for x in gf16.circle():
            assert x.norm() == gf16.one

    def test_subgroup_generator_orders(self, gf16, gf9):
        for ctx in (gf16, gf9):
            s = ctx.circle_order
            for d in range(1, s + 1):
                if s % d:
                    continue
                ud = ctx.circle_subgroup_generator(d)
                assert multiplicative_order(ud) == d
                roots = {ud ** k for k in range(d)}
                assert roots == {x for x in ctx.circle() if x ** d == ctx.one}

    def test_gf16_top_subgroup_generator_is_u(self, gf16):
        assert gf16.circle_subgroup_generator(5) == gf16.u

    def test_non_divisor_rejected(self, gf16):
        with pytest.raises(InvalidDivisor):
            gf16.circle_subgroup_generator(3)


class TestLogTables:
    CONTEXTS = [
        (3, 1, None),  # GF(9)
        (2, 2, None),  # GF(16)
        (5, 1, None),  # GF(25)
        (7, 1, None),  # GF(49)
        (3, 2, None),  # GF(81)
        (2, 4, None),  # GF(256)
        (2, 2, (1, 0, 0, 1, 1)),  # GF(16) modulo x^4 + x^3 + 1
    ]

    @pytest.mark.parametrize("p, n, modulus", CONTEXTS)
    def test_exp_matches_schoolbook_powers(self, p, n, modulus):
        ctx = make_context(p, n, modulus)
        codes = [sum(c * p**i for i, c in enumerate(v)) for v in schoolbook_powers(ctx)]
        assert list(ctx._exp) == codes
        assert all(ctx._log[code] == k for k, code in enumerate(codes))

    @pytest.mark.parametrize("p, n, modulus", CONTEXTS)
    def test_coeffs_are_base_p_digits(self, p, n, modulus):
        ctx = make_context(p, n, modulus)
        # product() varies its last entry fastest, so reversed, its c-th tuple
        # lists the base-p digits of c, lowest first.
        want = [c[::-1] for c in itertools.product(range(p), repeat=ctx.width)]
        assert [FieldElement(ctx, c).coeffs for c in range(ctx.q)] == want


# `field-info` output of the reference construction, and the sha256 of
# repr(tuple(ctx._exp)).  Any change to the modulus search, the choice of g or the
# power tables shows here.
GOLDEN = [
    (
        2, 3, None,
        '{"p":2,"n":3,"modulus":[1,1,0,0,0,0,1],"q":64,"sqrt_q":8,"circle_order":9,'
        '"g":[0,1,0,0,0,0],"u":[0,1,1,0,0,0]}',
        "400267a13c392c9e06ed9edc7316cc1e25fa8364ccdd176277eeeb3c4d96549e",
    ),
    (
        2, 4, None,
        '{"p":2,"n":4,"modulus":[1,1,0,1,1,0,0,0,1],"q":256,"sqrt_q":16,"circle_order":17,'
        '"g":[1,1,0,0,0,0,0,0],"u":[1,0,1,0,1,1,0,0]}',
        "8c045be595a35bd4ebf83cd6d941ba6bd22b1a88516f29d6400240e3f82d0c4b",
    ),
    (
        2, 5, None,
        '{"p":2,"n":5,"modulus":[1,0,0,1,0,0,0,0,0,0,1],"q":1024,"sqrt_q":32,'
        '"circle_order":33,"g":[0,1,0,0,0,0,0,0,0,0],"u":[1,1,0,1,1,0,0,1,0,0]}',
        "d2537752bb72ad24738287e6a27f168f28b734f83ce0b0bc611a6416f71d80e2",
    ),
    (
        2, 6, None,
        '{"p":2,"n":6,"modulus":[1,0,0,1,0,0,0,0,0,0,0,0,1],"q":4096,"sqrt_q":64,'
        '"circle_order":65,"g":[1,1,0,0,0,0,0,0,0,0,0,0],"u":[0,0,0,1,1,1,1,0,0,0,1,1]}',
        "119a15a04d71d142a8ea3b2b14e43d9fa7e33505fe75af1c2efbeef10ee1bc97",
    ),
    (
        7, 1, None,
        '{"p":7,"n":1,"modulus":[1,0,1],"q":49,"sqrt_q":7,"circle_order":8,'
        '"g":[2,1],"u":[2,2]}',
        "5189a3389017bda22065378340a8bc93d4ca44102d534cbb13afc5cb9237da6d",
    ),
    (
        3, 2, None,
        '{"p":3,"n":2,"modulus":[2,1,0,0,1],"q":81,"sqrt_q":9,"circle_order":10,'
        '"g":[0,1,0,0],"u":[1,1,1,0]}',
        "9106e3ec8ffe2c136350477fd83249351d486dca012f59c8bcd85255db717214",
    ),
    (
        5, 2, None,
        '{"p":5,"n":2,"modulus":[2,0,0,0,1],"q":625,"sqrt_q":25,"circle_order":26,'
        '"g":[1,1,0,0],"u":[3,1,4,1]}',
        "85ef34e5882caf1a7cba3ae7d05db811e0ef7c077374995b2a3580838f211302",
    ),
    (
        3, 3, None,
        '{"p":3,"n":3,"modulus":[2,1,0,0,0,0,1],"q":729,"sqrt_q":27,"circle_order":28,'
        '"g":[0,1,0,0,0,0],"u":[1,2,1,2,0,2]}',
        "ac08fc1dcc3704fbdfa954f1e777ce60b41885e8dbdd4cf9506059d8d3a3daf6",
    ),
    (
        2, 2, (1, 0, 0, 1, 1),
        '{"p":2,"n":2,"modulus":[1,0,0,1,1],"q":16,"sqrt_q":4,"circle_order":5,'
        '"g":[0,1,0,0],"u":[0,0,0,1]}',
        "0650ff8191e2b08f30c1d460383946f9bd2b0ac48e78286421e766c42d88148d",
    ),
    (
        3, 1, (2, 1, 1),
        '{"p":3,"n":1,"modulus":[2,1,1],"q":9,"sqrt_q":3,"circle_order":4,'
        '"g":[0,1],"u":[1,2]}',
        "d96b09559b4728e47a4468106593a2fb3062cb6f3b1c92be71ce380cfe29da52",
    ),
]


@pytest.mark.parametrize(
    "p, n, modulus, info, exp_sha256",
    GOLDEN,
    ids=[f"GF({p}^{2 * n})" + (f"-mod{''.join(map(str, m))}" if m else "") for p, n, m, _, _ in GOLDEN],
)
def test_golden_construction(capsys, p, n, modulus, info, exp_sha256):
    argv = ["field-info", "--p", str(p), "--n", str(n)]
    if modulus is not None:
        argv += ["--modulus", ",".join(map(str, modulus))]
    assert main(argv) == 0
    assert capsys.readouterr().out == info + "\n"
    ctx = make_context(p, n, modulus)
    want = json.loads(info)
    assert list(ctx.modulus) == want["modulus"]
    assert list(ctx.g.coeffs) == want["g"]
    assert list(ctx.u.coeffs) == want["u"]
    assert hashlib.sha256(repr(tuple(ctx._exp)).encode()).hexdigest() == exp_sha256


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
def test_gf9_field_axioms(a, b, c):
    ctx = make_context(3, 1)
    els = list(ctx.elements())
    x, y, z = els[a], els[b], els[c]
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + (y + z) == (x + y) + z
    assert x - x == ctx.zero


@st.composite
def monic_division(draw):
    """(a, b, p): a monic b of degree 1..6 over GF(p) and a of degree >= deg b
    with coefficients of either sign and past p, as the unreduced products of
    the field and the difference counts of the classical test have."""
    p = draw(st.sampled_from([2, 3, 5, 7, 251]))
    deg = draw(st.integers(1, 6))
    b = draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)) + [1]
    coeff = st.integers(-3 * p * p, 3 * p * p)
    a = draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 9))
    return a, b, p


@settings(max_examples=200, deadline=None)
@given(monic_division())
def test_monic_division(case):
    # The one division: over GF(p) it agrees with schoolbook reduction, and
    # over Z its quotient and remainder rebuild a.
    a, b, p = case
    assert field._poly_rem(a, b, p) == poly_rem(a, b, p)
    quotient, rem = field._divmod_monic(a, b)
    assert field._poly_rem(a, b, 0) == rem
    assert len(rem) == len(b) - 1
    back = int_poly_mul(quotient, b)
    assert [x + y for x, y in zip(back, rem + [0] * len(back))] == a


# Every field the library builds: p prime and p^(2n) <= MAX_Q.
ALL_FIELDS = [
    (p, n)
    for p in range(2, 257)
    if all(p % k for k in range(2, p))
    for n in range(1, 9)
    if p ** (2 * n) <= field.MAX_Q
]
FIELD_IDS = [f"GF({p}^{2 * n})" for p, n in ALL_FIELDS]


@functools.cache
def _context(p, n):
    return make_context(p, n)


def _circle_divisors(ctx):
    return [d for d in range(1, ctx.circle_order + 1) if ctx.circle_order % d == 0]


def _at(ctx, poly, x):
    """poly(x) in GF(q), by FieldElement Horner evaluation."""
    acc = ctx.zero
    for c in reversed(poly):
        acc = acc * x + ctx.from_int(c)
    return acc


class TestMinimalPolynomial:
    """mu_d, the minimal polynomial of u_d over GF(p), on every field and every
    d | p^n + 1, against the field's own arithmetic and against Phi_d."""

    def test_every_field_is_listed(self):
        assert len(ALL_FIELDS) == 70

    @pytest.mark.parametrize("p, n", ALL_FIELDS, ids=FIELD_IDS)
    def test_mu_is_the_minimal_polynomial_and_divides_phi(self, p, n):
        ctx = _context(p, n)
        for d in _circle_divisors(ctx):
            ud = ctx.circle_subgroup_generator(d)
            mu = field._minimal_polynomial(ud)
            # deg mu = ord_d(p), the least k >= 1 with d | p^k - 1
            order = next(k for k in itertools.count(1) if (p**k - 1) % d == 0)
            assert len(mu) - 1 == order and mu[-1] == 1, d
            assert all(0 <= c < p for c in mu), d
            assert _at(ctx, mu, ud).is_zero(), d
            # Phi_d mod p is a multiple of mu_d: classical bentness implies field bentness
            assert not any(field._poly_rem(_cyclotomic(d), mu, p)), d

    @pytest.mark.parametrize(
        "p, n, d, degree, phi_degree",
        [(2, 4, 17, 8, 16), (5, 2, 13, 4, 12), (2, 8, 257, 16, 256), (3, 1, 4, 2, 2)],
    )
    def test_degrees_where_phi_splits_and_where_not(self, p, n, d, degree, phi_degree):
        # Phi_d mod p splits into phi(d) / ord_d(p) factors, one of them mu_d.
        mu = field._minimal_polynomial(_context(p, n).circle_subgroup_generator(d))
        assert (len(mu) - 1, len(_cyclotomic(d)) - 1) == (degree, phi_degree)

    @pytest.mark.parametrize("p, n", ALL_FIELDS, ids=FIELD_IDS)
    def test_verdict_matches_the_field_sum(self, p, n):
        """(mu_d, p) = _field_verdict(ctx, d) dividing c, against the route of
        count_route_is_bent, sum_j c[j] u_d^j == 0, on random counts and on
        multiples of mu_d with each coefficient lifted by a random multiple of p."""
        ctx = _context(p, n)
        rng = random.Random(p * 100 + n)
        for d in _circle_divisors(ctx):
            ud = ctx.circle_subgroup_generator(d)
            mu = field._minimal_polynomial(ud)
            verdict = _field_verdict(ctx, d)
            for _ in range(4):  # 2184 of each over the 546 (field, d) pairs
                quotient = [rng.randrange(p) for _ in range(d - len(mu) + 1)]
                multiple = [c + p * rng.randrange(4) for c in poly_mul(quotient, mu, p)]
                counts = [rng.randrange(3 * p) for _ in range(d)]
                assert not any(field._poly_rem(multiple, *verdict)), (d, multiple)
                assert _at(ctx, multiple, ud).is_zero(), (d, multiple)
                zero = _at(ctx, counts, ud).is_zero()
                assert (not any(field._poly_rem(counts, *verdict))) == zero, (d, counts)


class TestPackedLogTables:
    """The primitive element and the packed tables of a fresh context, against
    the field's logs and the base-p digits of its codes."""

    SMALL_FIELDS = [(p, n) for p, n in ALL_FIELDS if p ** (2 * n) <= 1 << 12] + [(251, 1)]

    @pytest.mark.parametrize("p, n", SMALL_FIELDS, ids=[f"GF({p}^{2 * n})" for p, n in SMALL_FIELDS])
    def test_g_is_the_least_code_of_full_order(self, p, n):
        # The search starts at code p: no code of GF(p) has order q - 1.
        ctx = _context(p, n)
        q1, log = ctx.q - 1, ctx._log
        assert ctx.g.code == min(c for c in range(1, ctx.q) if math.gcd(log[c], q1) == 1) >= p

    @pytest.mark.parametrize(
        "p, n", [(2, 1), (2, 4), (2, 8), (3, 2), (7, 1), (13, 1), (251, 1)],
        ids=["GF(2^2)", "GF(2^8)", "GF(2^16)", "GF(3^4)", "GF(7^2)", "GF(13^2)", "GF(251^2)"],
    )
    def test_terms_and_half_codes_pack_the_digits(self, p, n):
        """_terms[k] packs the digits of g^k (the code _exp[k], which
        test_exp_matches_schoolbook_powers checks), lane i of _bits bits
        holding digit i, for k < q - 1; the block repeats once and q - 1
        zeros follow.  _half maps the packed digits of each half code back
        to it."""
        ctx = make_context(p, n)
        q1, bits = ctx.q - 1, ctx._bits

        def packed(code, width):
            return sum(code // p**i % p << i * bits for i in range(width))

        block = [packed(ctx._exp[k], ctx.width) for k in range(q1)]
        assert ctx._terms == block + block + [0] * q1
        assert ctx._half == {packed(c, n): c for c in range(ctx.sqrt_q)}
