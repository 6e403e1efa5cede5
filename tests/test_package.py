import copy
import importlib
import pickle
import struct

import pytest

import gfharmonic
from gfharmonic import (
    BentReport,
    DimensionMismatch,
    ExponentFunction,
    InvalidOrder,
    ScalarFunction,
    SearchResult,
    ShapeMismatch,
    SpecMismatch,
    VectorFunction,
    ft,
    is_bent_autocorr,
    is_bent_spectral,
    make_context,
    make_group,
    md_ft,
    search_bent,
)


class TestLazyPackage:
    def test_every_exported_name_resolves(self):
        for name in gfharmonic.__all__:
            module = importlib.import_module(f"gfharmonic.{gfharmonic._MODULE_OF[name]}")
            assert getattr(gfharmonic, name) is getattr(module, name)

    def test_star_import(self):
        namespace = {}
        exec("from gfharmonic import *", namespace)
        assert set(gfharmonic.__all__) <= set(namespace)
        assert namespace["ft"] is gfharmonic.fourier.ft

    def test_dir_lists_the_public_names(self):
        assert set(gfharmonic.__all__) <= set(dir(gfharmonic))
        assert "__version__" in dir(gfharmonic)

    def test_reference_helpers_are_not_exported(self):
        from gfharmonic.characters import character_value_naive

        assert callable(character_value_naive)
        assert not {"character_sum", "character_value_naive"} & set(gfharmonic.__all__)
        assert not hasattr(gfharmonic.characters, "character_sum")

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gfharmonic.no_such_name
        assert not hasattr(gfharmonic, "no_such_name")


@pytest.fixture
def records(z3, z5):
    f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
    g = ScalarFunction.from_exponents(z5, 5, [0, 1, 4, 4, 1])
    read = ft(g)
    read.values  # a table whose view is built and kept
    vf = VectorFunction.from_scalar(f, 2)
    return [
        f,
        ExponentFunction(z3, 3, (0, 1, 1)),
        vf,
        BentReport(True, f.values, ()),
        SearchResult(3, 27, ((0, 1, 1),)),
        ft(g),
        read,
        md_ft(vf),
        is_bent_spectral(g),
        is_bent_autocorr(g),
        BentReport(False, (), ()),
    ]


def _arguments(r):
    """The constructor's arguments that rebuild r."""
    return [getattr(r, name) for name in r._args or r.__slots__]


class TestRecords:
    def test_equality_and_hash(self, records):
        for r in records:
            for twin in (type(r)._of(*r._fields()), type(r)(*_arguments(r))):
                assert twin == r and twin is not r
                assert hash(twin) == hash(r) == hash(r._fields())
        assert SearchResult(3, 27, ()) != SearchResult(3, 9, ())
        assert SearchResult(3, 27, ()) != (3, 27, ())
        twins = [type(r)._of(*r._fields()) for r in records]
        assert len(set(records + twins)) == len(set(records))
        assert records[-3] == records[-2]  # g is bent: both routes give one report

    def test_tables_keep_codes(self, z3):
        f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
        vf = VectorFunction.from_scalar(f, 2, 1)
        assert f._fields() == (z3, (1, 2, 2))
        assert vf._fields() == (z3, ((0, 0, 0), (1, 2, 2)))
        report = BentReport(True, f.values, ())
        assert report._fields() == (True, z3.ctx, (1, 2, 2), ())
        assert BentReport(True, (), ())._fields() == (True, None, (), ())

    def test_repr(self, z3):
        assert repr(SearchResult(3, 27, ((0, 1, 1),))) == (
            "SearchResult(d=3, candidates=27, tables=((0, 1, 1),))"
        )
        assert repr(ExponentFunction(z3, 3, (0, 4, 1))) == (
            "ExponentFunction(spec=GroupSpec(Z_3 over GF(4)), m=3, exponents=(0, 1, 1))"
        )

    def test_assignment_raises(self, records):
        for r in records:
            name = r.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
            with pytest.raises(AttributeError):
                r.extra = 1

    def test_keyword_construction(self, z3):
        ef = ExponentFunction(exponents=(0, 1, 1), spec=z3, m=3)
        assert ef == ExponentFunction(z3, 3, (0, 1, 1))
        for args, kwargs in [((z3, 3), {}), ((z3, 3), {"spec": z3}), ((z3,), {"m": 3, "x": 1})]:
            with pytest.raises(TypeError):
                ExponentFunction(*args, **kwargs)

    def test_copy_and_pickle(self, records):
        for r in records:
            assert copy.copy(r) == r
            assert copy.deepcopy(r) == r
            assert pickle.loads(pickle.dumps(r)) == r
        # A view kept by a table is no field: copies and pickles leave it out.
        read, unread = records[6], records[5]
        assert len(pickle.dumps(read)) == len(pickle.dumps(unread))
        for twin in (copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
            assert not hasattr(twin, "_view") and twin.values == read.values
        # A record whose context keeps a line table (Z_5^3/GF(16) transforms
        # through one) pickles and deep-copies without it; it rebuilds on use.
        spec = make_group(make_context(2, 2), [(5, 3)])
        f = ScalarFunction.from_exponents(spec, 5, [x * x for x in range(spec.order)])
        size = len(pickle.dumps(f))
        F = ft(f)
        assert list(spec.ctx._line_tables) == [5]
        assert len(pickle.dumps(f)) == size
        for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and twin.spec.ctx is not spec.ctx
            assert twin.spec.ctx._line_tables == {}
            assert ft(twin) == F and list(twin.spec.ctx._line_tables) == [5]
        assert copy.copy(f).spec.ctx is spec.ctx

    def test_entries_that_are_not_field_elements(self, z3, gf16):
        one = z3.ctx.one
        for values in [(1, 2, 3), (one, one, 1), (one, None, one), (one, gf16.one, one)]:
            with pytest.raises(SpecMismatch, match="table value"):
                ScalarFunction(z3, values)
            with pytest.raises(SpecMismatch, match="vector entry"):
                VectorFunction(z3, 1, tuple((v,) for v in values))
            with pytest.raises(SpecMismatch, match="vector entry"):
                VectorFunction(z3, 2, tuple((one, v) for v in values))
            with pytest.raises(SpecMismatch):
                BentReport(True, values, ())

    def test_count_property(self):
        assert SearchResult(3, 27, ((0, 1, 1), (0, 2, 2))).count == 2

    def test_search_result_keeps_one_block(self, z3):
        r = SearchResult(3, 27, ((0, 1, 1), (0, 2, 2)))
        assert r._fields() == (3, 27, 3, bytes([0, 1, 1, 0, 2, 2]))
        assert r.count == 2 and not hasattr(r, "_view")
        # An empty result keeps |G| = 0, from the constructor and from a search:
        # Z_2^3 over GF(9) has no bent table with d = 2.
        empty = search_bent(make_group(make_context(3, 1), [(2, 3)]), 2)
        assert empty._fields() == SearchResult(2, 256, ())._fields() == (2, 256, 0, b"")
        assert (empty.count, empty.tables) == (0, ())
        found = search_bent(z3, 3)
        twin = SearchResult(3, 27, found.tables)
        assert twin == found and hash(twin) == hash(found) == hash(found._fields())
        assert twin != SearchResult(3, 27, found.tables[1:])
        assert SearchResult(3, 27, ((0, 1, 1),)) != SearchResult(3, 9, ((0, 1, 1),))

    def test_search_result_view_is_kept_and_left_out(self, z3):
        read, unread = search_bent(z3, 3), search_bent(z3, 3)
        tables = read.tables
        assert read.tables is tables and len(tables) == read.count == 18
        assert not hasattr(unread, "_view")
        assert read == unread and hash(read) == hash(unread)
        assert len(pickle.dumps(read)) == len(pickle.dumps(unread))
        for twin in (copy.copy(read), copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
            assert twin == read and not hasattr(twin, "_view")
            assert twin.tables == tables

    def test_search_result_constructor_round_trips(self, z3, z3sq, z2z4):
        # The trivial group over GF(2^16) with d = 257: the one search whose
        # entries pass a byte, kept in lanes of two bytes.
        trivial = make_group(make_context(2, 8), [(1, 1)])
        wide = SearchResult(257, 257, tuple((v,) for v in range(257)))
        assert wide._block == struct.pack("<257H", *range(257))
        assert wide == search_bent(trivial, 257) and wide.count == 257
        assert wide.tables == tuple((v,) for v in range(257))
        for spec, d in [(z3, 3), (z3sq, 3), (z2z4, 4), (trivial, 257)]:
            found = search_bent(spec, d)
            twin = SearchResult(found.d, found.candidates, found.tables)
            assert twin == found and twin.tables == found.tables
            assert SearchResult(d, found.candidates, list(map(list, found.tables))) == found
        assert repr(wide).startswith("SearchResult(d=257, candidates=257, tables=((0,), (1,),")

    def test_search_result_rejects_malformed_tables(self):
        for tables in [((0, 1), (0,)), ((0,), (0, 1)), ((),), ((), ())]:
            with pytest.raises(ShapeMismatch):
                SearchResult(3, 27, tables)
        for tables in [((0, 3),), ((0, -1),), ((0, 0.0),), ((0, "1"),), ((None, 0),), ((0, True),)]:
            with pytest.raises(InvalidOrder):
                SearchResult(3, 9, tables)
        with pytest.raises(InvalidOrder):
            SearchResult(257, 257, ((257,),))
        for d in (0, -1, 3.0, (1 << 32) + 1, True):
            with pytest.raises(InvalidOrder):
                SearchResult(d, 1, ())

    def test_validation(self, z3, gf16):
        f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
        with pytest.raises(SpecMismatch):
            ScalarFunction(z3, f.values[:2])
        with pytest.raises(SpecMismatch):
            ScalarFunction(z3, (gf16.one,) * 3)
        with pytest.raises(InvalidOrder):
            ExponentFunction(z3, 2, (0, 1, 1))
        with pytest.raises(SpecMismatch):
            ExponentFunction(z3, 3, (0, 1))
        assert ExponentFunction(z3, 3, (3, -1, 7)).exponents == (0, 2, 1)
        with pytest.raises(DimensionMismatch):
            VectorFunction(z3, 0, ((),) * 3)
        with pytest.raises(DimensionMismatch):
            VectorFunction(z3, 2, tuple((v,) for v in f.values))
        with pytest.raises(SpecMismatch):
            VectorFunction(z3, 1, ((gf16.one,),) * 3)
