import copy
import importlib
import pickle

import pytest

import gfharmonic
from gfharmonic import (
    BentReport,
    DimensionMismatch,
    ExponentFunction,
    InvalidOrder,
    ScalarFunction,
    SearchResult,
    SpecMismatch,
    VectorFunction,
    ft,
    make_context,
    make_group,
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
def records(z3):
    f = ScalarFunction.from_exponents(z3, 3, [0, 1, 1])
    return [
        f,
        ExponentFunction(z3, 3, (0, 1, 1)),
        VectorFunction.from_scalar(f, 2),
        BentReport(True, f.values, ()),
        SearchResult(3, 27, ((0, 1, 1),)),
    ]


class TestRecords:
    def test_equality_and_hash(self, records):
        for r in records:
            twin = type(r)(*r._fields())
            assert twin == r and twin is not r
            assert hash(twin) == hash(r) == hash(r._fields())
        assert SearchResult(3, 27, ()) != SearchResult(3, 9, ())
        assert SearchResult(3, 27, ()) != (3, 27, ())
        assert len(set(records + [type(r)(*r._fields()) for r in records])) == len(records)

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

    def test_count_property(self):
        assert SearchResult(3, 27, ((0, 1, 1), (0, 2, 2))).count == 2

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
