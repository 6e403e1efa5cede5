"""The row builders and the exact sum kernels against their double-sum oracles.

Sums over G in gfharmonic.fourier take two routes over the packed elements
of FieldContext._terms: the separable transform, one pass per coordinate,
and the correlation sums (convolution, the scalar and vectorial
autocorrelations), fed by GroupSpec.translate_row.  A transform pass sums
each line per output or through the line table its field context keeps;
both routes are forced on every case.  These tests compare each with the
FieldElement double sums kept in tests/_oracles.py, over fields from GF(4)
to GF(1024), two of them with a non-default modulus.  The classical
transform runs the same pass over lane counts in Z[x]/(x^s - 1);
its lanes are compared exactly with a one-by-one count.
"""

import copy
import functools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfharmonic.bent as bent_module
import gfharmonic.field as field_module
import gfharmonic.group as group_module
from gfharmonic import (
    BentReport,
    ExponentFunction,
    FieldElement,
    GroupSpec,
    NotBent,
    NotCircleValued,
    NotOnHypersphere,
    NotQuadraticResidue,
    ScalarFunction,
    TooLarge,
    VectorFunction,
    autocorrelation,
    char_exponent,
    classical_ft,
    convolve,
    coordinate_function,
    derivative,
    dual_bent,
    ft,
    inverse_ft,
    is_bent_autocorr,
    is_bent_spectral,
    is_classical_bent,
    is_md_bent,
    is_md_bent_derivative,
    make_context,
    make_group,
    md_derivative,
    md_ft,
    md_inverse_ft,
    mm_construct,
    norm_l,
    search_bent,
    vector_convolve,
)
from gfharmonic.field import FieldContext
from gfharmonic.group import MAX_WORK
from _oracles import (
    lane_counts,
    naive_autocorrelation,
    naive_classical_ft_at,
    naive_convolve,
    naive_derivative,
    naive_ft,
    naive_ft_at,
    naive_inverse_ft_at,
    naive_lane_counts,
    naive_md_autocorrelation,
    naive_md_derivative,
    naive_md_ft,
    naive_md_inverse_ft,
    naive_vector_convolve,
    random_circle_function,
    random_function,
)

# (p, n, modulus or None for the default, factors)
CASES = [
    (2, 1, None, [(3, 1)]),
    (2, 1, None, [(3, 2)]),
    (3, 1, None, [(2, 1), (4, 1)]),
    (3, 1, [2, 1, 1], [(4, 1)]),
    (2, 2, None, [(5, 1)]),
    (2, 2, [1, 0, 0, 1, 1], [(5, 1)]),
    (5, 1, None, [(2, 1), (3, 1)]),
    (7, 1, None, [(8, 1)]),
    (3, 2, None, [(2, 1), (5, 1)]),
    (2, 5, None, [(3, 1), (11, 1)]),
    (5, 1, None, [(6, 1)]),  # one composite cyclic factor
    (2, 1, None, [(3, 3)]),  # a factor of multiplicity 3
    (3, 2, None, [(10, 1)]),  # odd p, four coefficient lanes
]


@functools.cache
def _spec_of(i):
    p, n, modulus, factors = CASES[i]
    return make_group(make_context(p, n, modulus), factors)


@functools.cache
def _by_norm(ctx):
    out = {}
    for e in ctx.elements():
        out.setdefault(e.norm(), []).append(e)
    return out


each_case = pytest.mark.parametrize("i", range(len(CASES)))
examples = settings(max_examples=6, deadline=None)


def _table(data, spec):
    ctx = spec.ctx
    codes = data.draw(
        st.lists(st.integers(0, ctx.q - 1), min_size=spec.order, max_size=spec.order)
    )
    return ScalarFunction(spec, tuple(FieldElement(ctx, c) for c in codes))


def _circle_table(data, spec):
    s = spec.ctx.circle_order
    exps = data.draw(st.lists(st.integers(0, s - 1), min_size=spec.order, max_size=spec.order))
    return ScalarFunction.from_exponents(spec, s, exps)


def _vector_table(data, spec, dim):
    coords = [_table(data, spec).values for _ in range(dim)]
    return VectorFunction(spec, dim, tuple(zip(*coords)))


def _sphere_table(data, spec):
    """A table G -> GF(q)^2 whose vectors have self-product one."""
    ctx = spec.ctx
    by_norm = _by_norm(ctx)
    rows = []
    for a in _table(data, spec).values:
        choices = by_norm[ctx.one - a.norm()]
        rows.append((a, choices[data.draw(st.integers(0, len(choices) - 1))]))
    return VectorFunction(spec, 2, tuple(rows))


class TestRowBuilders:
    @each_case
    def test_exponent_rows_are_character_exponents(self, i):
        spec = _spec_of(i)
        elems = list(spec.elements())
        for alpha in elems:
            assert spec.exponent_row(alpha) == [char_exponent(spec, alpha, x) for x in elems]

    @each_case
    def test_translate_rows_index_the_sums(self, i):
        spec = _spec_of(i)
        elems = list(spec.elements())
        for a in elems:
            assert spec.translate_row(a) == [spec.index_of(spec.add(a, x)) for x in elems]

    def test_rows_reduce_their_argument(self, z2z4):
        assert z2z4.exponent_row((3, -1)) == z2z4.exponent_row((1, 3))
        assert z2z4.translate_row((3, -1)) == z2z4.translate_row((1, 3))


class TestScalarKernels:
    @each_case
    @examples
    @given(st.data())
    def test_ft_and_inverse(self, i, data):
        spec = _spec_of(i)
        f = _table(data, spec)
        assert ft(f) == naive_ft(f)
        F = _table(data, spec)
        assert inverse_ft(F).values == tuple(naive_inverse_ft_at(F, x) for x in spec.elements())

    @each_case
    @examples
    @given(st.data())
    def test_convolve(self, i, data):
        spec = _spec_of(i)
        f, g = _table(data, spec), _table(data, spec)
        assert convolve(f, g) == naive_convolve(f, g)

    @each_case
    @examples
    @given(st.data())
    def test_autocorrelation_and_derivative(self, i, data):
        spec = _spec_of(i)
        for f in (_table(data, spec), _circle_table(data, spec)):
            assert autocorrelation(f) == naive_autocorrelation(f)
            alpha = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
            assert derivative(f, alpha) == naive_derivative(f, alpha)


class TestVectorKernels:
    @each_case
    @examples
    @given(st.integers(1, 3), st.data())
    def test_md_transforms(self, i, dim, data):
        spec = _spec_of(i)
        f = _vector_table(data, spec, dim)
        assert md_ft(f) == naive_md_ft(f)
        assert md_inverse_ft(f) == naive_md_inverse_ft(f)

    @each_case
    @examples
    @given(st.integers(1, 3), st.data())
    def test_vector_convolve_and_derivative(self, i, dim, data):
        spec = _spec_of(i)
        f, g = _vector_table(data, spec, dim), _vector_table(data, spec, dim)
        assert vector_convolve(f, g) == naive_vector_convolve(f, g)
        alpha = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
        assert md_derivative(f, alpha) == naive_md_derivative(f, alpha)

    @each_case
    @examples
    @given(st.data())
    def test_md_derivative_criterion(self, i, data):
        spec = _spec_of(i)
        f = _sphere_table(data, spec)
        ac = naive_md_autocorrelation(f)
        report = is_md_bent_derivative(f)
        zero = spec.ctx.zero
        failing = tuple(spec.element_at(a) for a, v in enumerate(ac) if a and v != zero)
        assert report.failing_points == failing
        assert report.is_bent == (not failing)
        assert report.spectrum_norms == naive_ft(ScalarFunction(spec, tuple(ac))).values


def _with_zeros(data, f):
    """f with a column of zeros added, and all its values at a drawn point zero."""
    spec, zero = f.spec, f.spec.ctx.zero
    x0 = data.draw(st.integers(0, spec.order - 1))
    rows = [row + (zero,) for row in f.values]
    rows[x0] = (zero,) * (f.dim + 1)
    return VectorFunction(spec, f.dim + 1, tuple(rows))


def _no_table(*args):
    raise AssertionError("a line table was built")


def _record_tables(mp, built):
    """Append to `built` the (context, d) of each table the kernel builds."""
    build = field_module._build_line_table
    mp.setattr(
        field_module, "_build_line_table", lambda ctx, d: built.append((ctx, d)) or build(ctx, d)
    )


def _force_route(mp, table):
    """Make every line take the table route (a table built apart from the
    context's memo, whatever the context decided or keeps) or the
    per-output route."""
    build = functools.cache(field_module._build_line_table) if table else lambda ctx, d: None
    mp.setattr(FieldContext, "_line_table", build)


def _sampled(spec, rng):
    """Every index of a small group, a few of a large one."""
    if spec.order <= 100:
        return range(spec.order)
    return [0, 1, spec.order - 1, rng.randrange(spec.order)]


class TestTransformRoutes:
    """Each pass of the transform kernel sums a line per output or through
    the line table of its length, as FieldContext._line_table decides for the
    field.  Forced each way on every case, both routes give the double-sum
    oracles, so they agree: both signs, the inverse's scale (not 1 where p is
    odd and |G| mod p is not 1), zero codes (a zero point and a zero column)
    and tables of 1-3 columns.  Every case fits a forced table: 2d(p - 1)
    stays below 2^bits."""

    @each_case
    @examples
    @given(st.integers(1, 2), st.data())
    def test_forced_routes(self, i, dim, data):
        spec = _spec_of(i)
        ctx = spec.ctx
        assert all(2 * d * (ctx.p - 1) < 1 << ctx._bits for d in spec.dims)
        f = _with_zeros(data, _vector_table(data, spec, dim))
        g = coordinate_function(f, 0)
        want = (
            naive_md_ft(f),
            naive_md_inverse_ft(f),
            naive_ft(g),
            tuple(naive_inverse_ft_at(g, x) for x in spec.elements()),
        )
        for table in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                _force_route(mp, table)
                got = (md_ft(f), md_inverse_ft(f), ft(g), inverse_ft(g).values)
            assert got == want

    @pytest.mark.parametrize(
        "p, n, factors", [(3, 1, [(2, 1), (4, 1)]), (5, 1, [(3, 2)]), (7, 1, [(4, 4)])]
    )
    def test_scaled_inverse(self, p, n, factors):
        """The inverse scales by (|G| mod p)^-1 = 2, 4 and 2 here.  Unforced,
        on its fresh context, it builds a table for each length d >= 3 and
        none for d = 2; then forced each way.  Large groups are sampled."""
        spec = make_group(make_context(p, n), factors)
        assert spec.inv_order_mod_p != 1
        F = random_function(spec, random.Random(p))
        idxs = _sampled(spec, random.Random(spec.order))
        built = []
        for table in (None, False, True):  # None: as the context decides
            with pytest.MonkeyPatch.context() as mp:
                if table is None:
                    _record_tables(mp, built)
                else:
                    _force_route(mp, table)
                back = inverse_ft(F)
            for idx in idxs:
                assert back.values[idx] == naive_inverse_ft_at(F, spec.element_at(idx))
        assert built == [(spec.ctx, d) for d in sorted(set(spec.dims)) if d > 2]

    @pytest.mark.parametrize("p, n, factors", [(3, 1, [(2, 1), (4, 1)]), (7, 1, [(4, 4)])])
    def test_both_signs_read_one_table(self, monkeypatch, p, n, factors):
        """On a fresh context ft builds one table per line length d >= 3, and
        inverse_ft, with its odd-p scale, reads those and builds none."""
        spec = make_group(make_context(p, n), factors)
        built = []
        _record_tables(monkeypatch, built)
        F = random_function(spec, random.Random(p))
        out = ft(F)
        assert [d for _, d in built] == [4]
        back = inverse_ft(F)
        assert len(built) == 1
        for idx in _sampled(spec, random.Random(spec.order)):
            x = spec.element_at(idx)
            assert out.values[idx] == naive_ft_at(F, x)
            assert back.values[idx] == naive_inverse_ft_at(F, x)

    @pytest.mark.parametrize(
        "p, n, factors", [(2, 2, [(5, 2)]), (2, 6, [(5, 1), (13, 1)]), (3, 1, [(2, 6)])]
    )
    def test_one_route_for_any_column_count(self, p, n, factors):
        """ft and a 3-column md_ft on one group ask for the same line tables
        and get the same answer: the route depends on the field and d, not on
        how many lines a call sums.  Z_5^2/GF(16) and Z_5 x Z_13/GF(4096) take
        tables, Z_2^6/GF(9) sums per output."""
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(p + n)
        f = random_function(spec, rng)
        vf = VectorFunction(
            spec, 3, tuple(zip(f.values, *(random_function(spec, rng).values for _ in range(2))))
        )
        line_table, routes = FieldContext._line_table, []

        def record(ctx, d):
            table = line_table(ctx, d)
            routes[-1].append((d, table is not None))
            return table

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FieldContext, "_line_table", record)
            for call, arg in [(ft, f), (md_ft, vf)]:
                routes.append([])
                out = call(arg)
        one, three = routes
        assert one == three and set(one) == {(d, d > 2) for d in spec.dims}
        assert coordinate_function(out, 0) == ft(f) == naive_ft(f)


class TestTransformTablesFit:
    """FieldContext._line_table returns None, keeps it, and builds nothing,
    where a table cannot gain or cannot fit: d = 2, a line's 2d packed terms
    that would overflow a lane, and a table past MAX_WORK bits.  Each such
    case builds a table once that bound alone is lifted, and its transform,
    per output, equals the oracles."""

    @staticmethod
    def _refused(ctx, d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field_module, "_build_line_table", _no_table)
            assert ctx._line_table(d) is None
            assert ctx._line_tables == {d: None}
            assert ctx._line_table(d) is None

    @staticmethod
    def _admitted(ctx, d, mp):
        """Whether _line_table would build on a twin of ctx under mp's patches."""
        built = []
        mp.setattr(field_module, "_build_line_table", lambda ctx, d: built.append(d) or "table")
        return ctx._line_table(d) == "table" and built == [d]

    def test_lines_of_two(self):
        ctx = make_context(3, 1)
        self._refused(ctx, 2)
        spec = make_group(ctx, [(2, 6)])
        f = random_function(spec, random.Random(2))
        assert ft(f) == naive_ft(f) and ctx._line_tables == {2: None}

    @pytest.mark.parametrize("p, n, d", [(2, 5, 33), (5, 2, 26)])
    def test_lines_that_would_overflow_a_lane(self, monkeypatch, p, n, d):
        """Z_33/GF(2^10) (2d = 66 > 63) and Z_26/GF(5^4) (2d(p - 1) = 208 >
        127) take the per-output route; lanes of 8 bits would hold their sums.
        Z_d^2 is sampled."""
        ctx = make_context(p, n)
        assert 2 * d * (p - 1) >= 1 << ctx._bits
        with pytest.MonkeyPatch.context() as mp:
            twin = make_context(p, n)
            mp.setattr(twin, "_bits", 8)
            mp.setattr(twin, "_chunk", 255 // (p - 1) - 1)  # the capacity of 8-bit lanes
            assert self._admitted(twin, d, mp)
        self._refused(ctx, d)
        line = make_group(ctx, [(d, 1)])
        f = random_function(line, random.Random(d))
        assert ft(f) == naive_ft(f)
        spec = make_group(ctx, [(d, 2)])
        monkeypatch.setattr(field_module, "_build_line_table", _no_table)
        rng = random.Random(d)
        f = random_function(spec, rng)
        F, back = ft(f), inverse_ft(f)
        for idx in [0, 1, d, spec.order - 1, rng.randrange(spec.order)]:
            point = spec.element_at(idx)
            assert F.values[idx] == naive_ft_at(f, point)
            assert back.values[idx] == naive_inverse_ft_at(f, point)

    def test_a_table_past_the_size_bound(self, monkeypatch):
        """Z_43^2/GF(2^14): a line of 43 would take a table of 2 * 43^2 * 128
        packed elements of 112 bits, 53 million bits, past MAX_WORK; twice
        the bound admits it."""
        ctx = make_context(2, 7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field_module, "MAX_WORK", 1 << 26)
            assert self._admitted(make_context(2, 7), 43, mp)
        self._refused(ctx, 43)
        spec = make_group(ctx, [(43, 2)])
        monkeypatch.setattr(field_module, "_build_line_table", _no_table)
        rng = random.Random(43)
        f = random_function(spec, rng)
        F = ft(f)
        for idx in [0, 1, spec.order - 1, rng.randrange(spec.order)]:
            assert F.values[idx] == naive_ft_at(f, spec.element_at(idx))


class TestLineTableBuild:
    """The line table against a direct construction: entry [h][t][v] joins,
    slot a at byte offset a * size, the d packed products of the half code v
    (times x^n for h = 1) with w^(a t), each looked up by its log; for odd p
    and for p = 2, whose lanes add by XOR."""

    @staticmethod
    def _direct(ctx, d):
        q1, P, log, terms = ctx.q - 1, ctx.sqrt_q, ctx._log, ctx._terms
        k = ctx._step * (ctx.circle_order // d)
        size = -(-ctx.width * ctx._bits // 8)
        return [
            [
                [
                    sum(terms[log[v * P**h] + k * a * t % q1] << 8 * size * a for a in range(d))
                    for v in range(P)
                ]
                for t in range(d)
            ]
            for h in range(2)
        ]

    @pytest.mark.parametrize(
        "p, n, d", [(3, 2, 10), (5, 2, 13), (13, 1, 14), (13, 1, 7), (2, 4, 17), (2, 6, 13)]
    )
    def test_table_is_the_direct_construction(self, p, n, d):
        ctx = make_context(p, n)
        lo_rows, hi_rows, _ = ctx._line_table(d)
        assert [lo_rows, hi_rows] == self._direct(ctx, d)


class TestTransformKeepsOneTablePerLength:
    """A context keeps one line table per length d, built by the first call
    over a line of that length and read by every later call of either sign,
    on any group over that field: on groups where they take tables, ft,
    inverse_ft, md_ft, md_inverse_ft and dual_bent build one table per
    (context, d) in all, and a second round builds none.  The spec, and the
    context's equality and hash, stay as they were."""

    @staticmethod
    def _state(obj):
        return {k: copy.copy(v) for k, v in vars(obj).items()}

    def test_one_table_per_context_and_length(self, monkeypatch):
        built = []
        _record_tables(monkeypatch, built)
        h = make_group(make_context(2, 4), [(17, 1)])
        mm = mm_construct(ScalarFunction.from_exponents(h, 17, [y * y for y in range(17)]))
        z5cube = make_group(make_context(2, 2), [(5, 3)])
        for spec, f in [(mm.spec, mm), (z5cube, random_circle_function(z5cube, random.Random(5)))]:
            ctx, d = spec.ctx, spec.dims[0]
            before, key = self._state(spec), hash(ctx)
            vf = VectorFunction.from_scalar(f, 2)
            for _ in range(2):
                ft(f), inverse_ft(f), md_ft(vf), md_inverse_ft(vf)
                if spec is mm.spec:
                    dual_bent(f)
                assert len(built) == 1 and built[0][0] is ctx and built[0][1] == d
                assert list(ctx._line_tables) == [d]
            built.clear()
            assert vars(spec) == before
            twin = make_context(ctx.p, ctx.n)
            assert ctx == twin and hash(ctx) == hash(twin) == key

    def test_a_single_line_builds_the_table(self, monkeypatch):
        """ft on Z_17 over a fresh GF(256), one line, builds the d = 17 table."""
        built = []
        _record_tables(monkeypatch, built)
        spec = make_group(make_context(2, 4), [(17, 1)])
        f = random_function(spec, random.Random(17))
        assert ft(f) == naive_ft(f)
        assert built == [(spec.ctx, 17)] and list(spec.ctx._line_tables) == [17]

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_groups_over_one_field_share_the_table(self, monkeypatch, order):
        """Z_17 then Z_17^2 over one GF(256), or the reverse, build the d = 17
        table once, and both read it."""
        built = []
        _record_tables(monkeypatch, built)
        ctx = make_context(2, 4)
        for m in order:
            spec = make_group(ctx, [(17, m)])
            f = random_function(spec, random.Random(m))
            F = ft(f)
            assert list(ctx._line_tables) == [17] and len(built) == 1
            rng = random.Random(m)
            for idx in _sampled(spec, rng):
                assert F.values[idx] == naive_ft_at(f, spec.element_at(idx))
        assert built == [(ctx, 17)]

    def test_copies_leave_the_memo_out(self):
        """A context that keeps a table (d = 4) and a None (d = 2) pickles and
        deep-copies without either; a copy decides both again on use."""
        spec = make_group(make_context(3, 1), [(2, 1), (4, 1)])
        f = random_function(spec, random.Random(9))
        F = ft(f)
        assert spec.ctx._line_tables[2] is None and spec.ctx._line_tables[4]
        for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and twin.spec.ctx is not spec.ctx
            assert twin.spec.ctx._line_tables == {}
            assert ft(twin) == F and twin.spec.ctx._line_tables.keys() == {2, 4}
            assert twin.spec.ctx._line_tables[2] is None


class TestPastTheOldCacheCutoff:
    """Z_17^2 over GF(256): at 289 elements, the largest group any test
    transforms.  Sampled rows are compared with the per-factor character
    route, since a full double sum would be slow."""

    @pytest.fixture(scope="class")
    def z17sq(self):
        return make_group(make_context(2, 4), [(17, 2)])

    def _rows(self, spec, rng):
        picks = [rng.randrange(spec.order) for _ in range(4)]
        return [0, 1, 17, spec.order - 1] + picks

    def test_ft_and_inverse_rows(self, z17sq):
        rng = random.Random(17)
        ctx = z17sq.ctx
        els = list(ctx.elements())
        f = ScalarFunction(z17sq, tuple(rng.choice(els) for _ in range(z17sq.order)))
        F, f_back = ft(f), inverse_ft(f)
        for idx in self._rows(z17sq, rng):
            point = z17sq.element_at(idx)
            assert F.values[idx] == naive_ft_at(f, point)
            assert f_back.values[idx] == naive_inverse_ft_at(f, point)

    def test_classical_ft_rows(self, z17sq):
        rng = random.Random(18)
        ef = ExponentFunction(z17sq, 17, tuple(rng.randrange(17) for _ in range(z17sq.order)))
        spectrum, lanes = classical_ft(ef), lane_counts(ef)
        tol = 1e-9 * z17sq.order
        for idx in self._rows(z17sq, rng):
            point = z17sq.element_at(idx)
            assert lanes[idx] == naive_lane_counts(ef, point)
            assert abs(spectrum[idx] - naive_classical_ft_at(ef, point)) <= tol


class TestThousandsOfElements:
    """Sampled rows of the transforms on groups of 625 and 4913 elements,
    against the per-factor character route, and the classical lane counts
    against their one-by-one count."""

    sizes = pytest.mark.parametrize("p, n, factors", [(2, 2, [(5, 4)]), (2, 4, [(17, 3)])])

    @staticmethod
    def _rows(spec, rng):
        return [0, 1, spec.order - 1] + [rng.randrange(spec.order) for _ in range(2)]

    @sizes
    def test_ft_and_inverse_rows(self, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(spec.order)
        f = random_function(spec, rng)
        F, f_back = ft(f), inverse_ft(f)
        for idx in self._rows(spec, rng):
            point = spec.element_at(idx)
            assert F.values[idx] == naive_ft_at(f, point)
            assert f_back.values[idx] == naive_inverse_ft_at(f, point)

    @sizes
    def test_classical_ft_rows(self, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        rng = random.Random(spec.order)
        s = spec.ctx.circle_order
        ef = ExponentFunction(spec, s, tuple(rng.randrange(s) for _ in range(spec.order)))
        spectrum, lanes = classical_ft(ef), lane_counts(ef)
        for idx in self._rows(spec, rng):
            point = spec.element_at(idx)
            assert lanes[idx] == naive_lane_counts(ef, point)
            assert abs(spectrum[idx] - naive_classical_ft_at(ef, point)) <= 1e-9 * spec.order


class TestLongCorrelationSums:
    """A correlation sum of more terms than one coefficient lane can hold is
    reduced in chunks, so no lane carries into the next."""

    @pytest.mark.parametrize("p, n, factors", [(3, 2, [(10, 2)]), (2, 5, [(11, 2)])])
    def test_sums_past_one_lane(self, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        assert spec.order * (p - 1) >= 1 << spec.ctx._bits
        rng = random.Random(p)
        f, g = random_function(spec, rng), random_function(spec, rng)
        assert autocorrelation(f) == naive_autocorrelation(f)
        assert convolve(f, g) == naive_convolve(f, g)
        # Every term has the largest digit in every lane.
        top = ScalarFunction.constant(spec, spec.ctx.element([p - 1] * spec.ctx.width))
        one = ScalarFunction.constant(spec, spec.ctx.one)
        assert convolve(top, one) == naive_convolve(top, one)


class TestZeroEntries:
    """The correlation sums raise each entry of the second table to its power
    (1, or p^n to conjugate) by its log, and leave the zeros out: the log of
    0 is the sentinel 2(q - 1), which reduced mod q - 1 would be 0, the log
    of 1.  Tables with zeros in both arguments, one zero each and an all-zero
    coordinate column, against the double-sum oracles."""

    @pytest.mark.parametrize(
        "p, n, factors", [(2, 1, [(3, 2)]), (3, 1, [(2, 1), (4, 1)]), (5, 1, [(6, 1)])]
    )
    def test_zeros_in_both_arguments(self, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        ctx = spec.ctx
        rng = random.Random(p)
        nonzero = list(ctx.elements())[1:]

        def one_zero(x0):
            values = [rng.choice(nonzero) for _ in range(spec.order)]
            values[x0] = ctx.zero
            return ScalarFunction(spec, tuple(values))

        f, g = one_zero(0), one_zero(spec.order // 2)
        assert autocorrelation(f) == naive_autocorrelation(f)
        assert autocorrelation(g) == naive_autocorrelation(g)
        assert convolve(f, g) == naive_convolve(f, g)
        assert convolve(g, f) == naive_convolve(g, f)
        h = ScalarFunction(spec, tuple(rng.choice(nonzero) for _ in range(spec.order)))
        vh = VectorFunction.from_scalar(h, 2)  # no zero but its all-zero second column
        vg = VectorFunction(spec, 2, tuple(zip(g.values, f.values)))
        for a, b in [(vh, vg), (vg, vh), (vg, vg), (vh, vh)]:
            assert vector_convolve(a, b) == naive_vector_convolve(a, b)


class TestLongNormSums:
    """The spectral verdicts sum the coordinate norms of a vector as packed
    terms, reduced every ctx._chunk terms.  Over GF(2^16) a lane holds 9
    bits and a chunk 510 terms, so a vector of 1024 circle values carries
    past its first lane unless it is reduced in chunks.  Every figure is
    compared with norm_l, which sums FieldElement products."""

    DIM = 1024

    @pytest.fixture(scope="class")
    def z1(self):
        return make_group(make_context(2, 8), [(1, 1)])

    def test_dimension_past_one_lane(self, z1):
        ctx, dim = z1.ctx, self.DIM
        assert dim > ctx._chunk == 510
        rng = random.Random(16)
        circle, els = ctx.circle(), list(ctx.elements())
        vectors = [
            # 1023 norms of one and a zero: on the sphere, with 1023 in lane 0
            tuple(rng.choice(circle) for _ in range(dim - 1)) + (ctx.zero,),
            tuple(rng.choice(circle) for _ in range(dim)),  # self-product 1024 = 0
            tuple(rng.choice(els) for _ in range(dim)),
            tuple(rng.choice(els) for _ in range(dim - 1)) + (ctx.one,),
        ]
        assert norm_l(vectors[0]) == ctx.one
        for vec in vectors:
            f = VectorFunction(z1, dim, (vec,))
            want = norm_l(vec)
            assert (f.hypersphere_witness() is None) == (want == ctx.one)
            if want == ctx.one:
                report = is_md_bent(f)
                assert report.spectrum_norms == tuple(map(norm_l, naive_md_ft(f).values))
                assert report.spectrum_norms == (ctx.one,) and report.is_bent
            else:
                with pytest.raises(NotOnHypersphere):
                    is_md_bent(f)


def _naive_report(spec, norms):
    """The spectral verdict on a FieldElement norm table: each norm against
    |G| mod p, the failing points in canonical order."""
    target = spec.ctx.from_int(spec.order)
    failing = tuple(a for a, v in zip(spec.elements(), norms) if v != target)
    return BentReport(not failing, tuple(norms), failing)


def _naive_norm_l(vec):
    return functools.reduce(FieldElement.__add__, (x.norm() for x in vec))


class TestCodeReports:
    """The spectral verdicts decide on codes; their reports equal a route of
    the double-sum oracles and FieldElement.norm, on seeded random tables
    and on bent ones from the search, over GF(4), GF(9) and GF(25)."""

    # (p, n, factors, d of the bent tables)
    GROUPS = [
        (2, 1, [(3, 1)], 3),
        (2, 1, [(3, 2)], 3),
        (3, 1, [(4, 1)], 4),
        (3, 1, [(2, 1), (4, 1)], 4),  # |G| = 2 mod 3, no square root
        (5, 1, [(6, 1)], 6),
        (5, 1, [(3, 2)], 3),  # |G| = 4 mod 5, the dual scales by 1/2
    ]

    @staticmethod
    def tables(spec, d, rng):
        """Six random circle tables, and up to six bent ones found by the search."""
        bent = search_bent(spec, d).tables
        picks = rng.sample(bent, min(6, len(bent)))
        return [random_circle_function(spec, rng) for _ in range(6)] + [
            ScalarFunction.from_exponents(spec, d, e) for e in picks
        ]

    @pytest.mark.parametrize("p, n, factors, d", GROUPS)
    def test_scalar_reports(self, p, n, factors, d):
        spec = make_group(make_context(p, n), factors)
        ctx, c = spec.ctx, spec.order_mod_p
        rng = random.Random(p * 100 + spec.order)
        seen = set()
        for f in self.tables(spec, d, rng):
            spectrum = naive_ft(f).values
            want = _naive_report(spec, [v.norm() for v in spectrum])
            assert is_bent_spectral(f) == want
            seen.add(want.is_bent)
            if not want.is_bent:
                with pytest.raises(NotBent) as info:
                    dual_bent(f)
                assert info.value.witness == want.failing_points[0]
                assert f"fails at {len(want.failing_points)} points" in str(info.value)
            elif p > 2 and pow(c, (p - 1) // 2, p) != 1:
                with pytest.raises(NotQuadraticResidue):
                    dual_bent(f)
            else:
                scale = ctx.from_int(pow(bent_module._sqrt_mod_prime(c, p), -1, p))
                assert dual_bent(f).values == tuple(scale * v for v in spectrum)
        assert seen == {True, False}

    @pytest.mark.parametrize("p, n, factors, d", GROUPS)
    def test_vector_reports(self, p, n, factors, d):
        spec = make_group(make_context(p, n), factors)
        ctx = spec.ctx
        rng = random.Random(p * 100 + spec.order)
        els = list(ctx.elements())
        by_norm = {}
        for x in els:
            by_norm.setdefault(x.norm(), []).append(x)
        seen = set()
        for f in self.tables(spec, d, rng):
            # (a f, b f) with norm(a) + norm(b) = 1 is md-bent iff f is bent.
            a = rng.choice(els)
            b = rng.choice(by_norm[ctx.one - a.norm()])
            vf = VectorFunction(spec, 2, tuple((a * v, b * v) for v in f.values))
            # and a table with a random vector of the sphere at each point
            rows = []
            for _ in range(spec.order):
                x = rng.choice(els)
                rows.append((x, rng.choice(by_norm[ctx.one - x.norm()]), ctx.zero))
            for g in (vf, VectorFunction(spec, 3, tuple(rows))):
                want = _naive_report(spec, list(map(_naive_norm_l, naive_md_ft(g).values)))
                assert is_md_bent(g) == want
                seen.add(want.is_bent)
        assert seen == {True, False}


class TestOraclesIgnoreThePackedTable:
    """With the kernel's packed table scrambled, ft breaks but the oracle,
    coefficient vectors and field addition do not."""

    @pytest.mark.parametrize("p, n, factors", [(2, 2, [(5, 1)]), (3, 1, [(2, 1), (4, 1)])])
    def test_scrambled_table(self, monkeypatch, p, n, factors):
        spec = make_group(make_context(p, n), factors)
        ctx = spec.ctx
        f = random_function(spec, random.Random(5))
        els = list(ctx.elements())
        want = (naive_ft(f), [x.coeffs for x in els], [x + y for x in els for y in els])
        # Shifted by one, the table maps almost every term to the next power of g.
        monkeypatch.setattr(ctx, "_terms", ctx._terms[1:] + ctx._terms[:1])
        assert (naive_ft(f), [x.coeffs for x in els], [x + y for x in els for y in els]) == want
        assert ft(f) != want[0]


class TestWorkBound:
    """Every route refuses more than MAX_WORK terms before it builds a row:
    Z_257^2 has 66049 elements, so the transform would sum 66049 * 514 terms
    (twice that for the two coordinates of a vector table, and 257 lane terms
    for each in the classical transform) and the quadratic routes 66049^2."""

    @pytest.fixture(scope="class")
    def z257sq(self):
        return make_group(make_context(2, 8), [(257, 2)])

    def test_routes_refuse_before_any_row(self, monkeypatch, z257sq):
        def no_row(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(GroupSpec, "exponent_row", no_row)
        monkeypatch.setattr(GroupSpec, "translate_row", no_row)
        # is_classical_bent packs the table into one int of |G| lanes first.
        monkeypatch.setattr(group_module, "_pack_lanes", no_row)
        monkeypatch.setattr(GroupSpec, "_difference_counts", no_row)
        f = ScalarFunction.constant(z257sq, z257sq.ctx.one)
        ef = ExponentFunction(z257sq, 257, (0,) * z257sq.order)
        vf = VectorFunction.from_scalar(f, 2)
        z257 = make_group(z257sq.ctx, [(257, 1)])
        order = z257sq.order
        for call, work in [
            (lambda: ft(f), order * 514),
            (lambda: inverse_ft(f), order * 514),
            (lambda: autocorrelation(f), order**2),
            (lambda: convolve(f, f), order**2),
            (lambda: vector_convolve(vf, vf), 2 * order**2),
            (lambda: md_ft(vf), 2 * order * 514),
            (lambda: md_inverse_ft(vf), 2 * order * 514),
            (lambda: classical_ft(ef), order * 514 * 257),
            (lambda: is_classical_bent(ef), order**2),
            # The output table on Z_257^2, which ft would refuse.
            (lambda: mm_construct(ScalarFunction.constant(z257, z257.ctx.one)), order * 514),
        ]:
            with pytest.raises(TooLarge) as info:
                call()
            assert info.value.witness == {"work": work, "max_work": MAX_WORK}

    def test_bound_admits_the_tested_sizes(self):
        assert 4913**2 <= MAX_WORK


class TestPointCheck:
    """Scalar and vector tables share one point check: on a table with two
    bad points, every route that checks it names the first."""

    BAD = (3, 6)

    def test_first_point_off_the_circle(self, z2z4):
        ctx = z2z4.ctx
        values = [ctx.one] * z2z4.order
        for i in self.BAD:
            values[i] = ctx.g  # norm g^4 = -1
        f = ScalarFunction(z2z4, tuple(values))
        first = z2z4.element_at(self.BAD[0])
        assert f.circle_witness() == first == (0, 3)
        for call in (is_bent_spectral, is_bent_autocorr, dual_bent, mm_construct):
            with pytest.raises(NotCircleValued) as info:
                call(f)
            assert info.value.witness == first
            assert str(info.value) == "value at [0, 3] has norm != 1"

    def test_first_point_off_the_sphere(self, z2z4):
        ctx = z2z4.ctx
        values = [(ctx.one, ctx.zero)] * z2z4.order
        for i in self.BAD:
            values[i] = (ctx.one, ctx.one)  # self-product 2
        f = VectorFunction(z2z4, 2, tuple(values))
        first = z2z4.element_at(self.BAD[0])
        assert f.hypersphere_witness() == first == (0, 3)
        for call in (is_md_bent, is_md_bent_derivative):
            with pytest.raises(NotOnHypersphere) as info:
                call(f)
            assert info.value.witness == first
            assert str(info.value) == "value at [0, 3] has self-product != 1"


class TestIndependentRoutes:
    """The derivative route never transforms f: convolution and the
    autocorrelations do not call ft at all, and the derivative criteria call
    it once, on the autocorrelation, for the reported norm table."""

    def test_correlations_never_transform(self, monkeypatch, z2z4):
        def forbidden(*args):
            raise AssertionError("the transform was called")

        monkeypatch.setattr("gfharmonic.fourier._transform", forbidden)
        rng = random.Random(3)
        els = list(z2z4.ctx.elements())
        f = ScalarFunction(z2z4, tuple(rng.choice(els) for _ in range(z2z4.order)))
        vf = VectorFunction.from_scalar(f, 2)
        assert convolve(f, f) == naive_convolve(f, f)
        assert autocorrelation(f) == naive_autocorrelation(f)
        assert vector_convolve(vf, vf) == naive_vector_convolve(vf, vf)

    def test_derivative_criteria_transform_only_the_autocorrelation(self, monkeypatch, z5):
        seen = []

        def recording_ft(g):
            seen.append(g)
            return naive_ft(g)

        monkeypatch.setattr(bent_module, "ft", recording_ft)
        f = ScalarFunction.from_exponents(z5, 5, [0, 1, 4, 4, 1])
        is_bent_autocorr(f)
        assert seen == [naive_autocorrelation(f)]
        seen.clear()
        vf = VectorFunction.from_scalar(f, 2, 1)
        is_md_bent_derivative(vf)
        assert seen == [ScalarFunction(z5, tuple(naive_md_autocorrelation(vf)))]
