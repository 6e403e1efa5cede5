import json
import random

import pytest

from gfharmonic import (
    ExponentFunction,
    MalformedInput,
    ScalarFunction,
    VectorFunction,
)
from gfharmonic.serialize import (
    context_from_obj,
    context_to_obj,
    dumps,
    exponent_function_from_obj,
    group_file_to_obj,
    group_from_file_obj,
    scalar_function_from_obj,
    scalar_function_to_obj,
    vector_function_from_obj,
    vector_function_to_obj,
)
from _oracles import exponent_function_to_obj, random_function, random_vector_function


class TestContext:
    def test_round_trip(self, gf16):
        obj = context_to_obj(gf16)
        assert obj == {"p": 2, "n": 2, "modulus": [1, 1, 0, 0, 1]}
        assert context_from_obj(obj) == gf16

    def test_omitted_modulus_auto_selects(self):
        ctx = context_from_obj({"p": 2, "n": 2})
        assert ctx.modulus == (1, 1, 0, 0, 1)

    def test_element_coefficients_low_to_high(self, gf4):
        w = gf4.element([0, 1])
        assert list(w.coeffs) == [0, 1]

    def test_rejects_non_object(self):
        with pytest.raises(MalformedInput):
            context_from_obj([1, 2])

    def test_rejects_missing_keys(self):
        with pytest.raises(MalformedInput):
            context_from_obj({"p": 2})


class TestGroup:
    def test_round_trip(self, z5sq):
        obj = group_file_to_obj(z5sq)
        assert obj["group"] == {"factors": [{"d": 5, "m": 2}]}
        assert group_from_file_obj(obj) == z5sq

    def test_rejects_empty_factors(self, gf4):
        with pytest.raises(MalformedInput):
            group_from_file_obj({"context": {"p": 2, "n": 1}, "group": {"factors": []}})


class TestFunctions:
    def test_scalar_round_trip_bit_for_bit(self, z2z4):
        rng = random.Random(1)
        f = random_function(z2z4, rng)
        text = dumps(scalar_function_to_obj(f))
        loaded = scalar_function_from_obj(json.loads(text))
        assert loaded == f
        assert dumps(scalar_function_to_obj(loaded)) == text

    def test_exponent_round_trip_bit_for_bit(self, z3):
        ef = ExponentFunction(z3, 3, (0, 1, 1))
        text = dumps(exponent_function_to_obj(ef))
        loaded = exponent_function_from_obj(json.loads(text))
        assert loaded == ef
        assert dumps(exponent_function_to_obj(loaded)) == text

    def test_vector_round_trip_bit_for_bit(self, z3):
        rng = random.Random(2)
        f = random_vector_function(z3, 2, rng)
        text = dumps(vector_function_to_obj(f))
        loaded = vector_function_from_obj(json.loads(text))
        assert loaded == f
        assert dumps(vector_function_to_obj(loaded)) == text

    def test_scalar_values_schema(self, gf4, z3):
        w = gf4.element([0, 1])
        f = ScalarFunction(z3, (gf4.one, w, w))
        obj = scalar_function_to_obj(f)
        assert obj["values"] == [[1, 0], [0, 1], [0, 1]]

    def test_vector_schema_shape(self, gf4, z3):
        f = VectorFunction.from_scalar(ScalarFunction.constant(z3, gf4.one), 2)
        obj = vector_function_to_obj(f)
        assert obj["l"] == 2
        assert obj["values"][0] == [[1, 0], [0, 0]]

    def test_missing_values_rejected(self, z3):
        obj = {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 3, "m": 1}]}}
        with pytest.raises(MalformedInput):
            scalar_function_from_obj(obj)

    @pytest.mark.parametrize(
        "values, message",
        [(None, "requires a 'values' array"), ([7, 7, 7], "must be an array of elements")],
    )
    def test_vector_values_must_be_arrays(self, values, message):
        obj = {"context": {"p": 2, "n": 1}, "group": {"factors": [{"d": 3, "m": 1}]}, "l": 1}
        if values is not None:
            obj["values"] = values
        with pytest.raises(MalformedInput, match=message):
            vector_function_from_obj(obj)
