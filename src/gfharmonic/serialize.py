"""JSON encodings for contexts, groups, and function tables.

Field elements serialize as coefficient arrays, lowest degree first.
Function tables are listed in the group's canonical element order, written
from the codes a table keeps and read into codes, digit by digit
(FieldContext._coeffs and _code, the rule of FieldElement.coeffs and
FieldContext.element), so no FieldElement is built per value.  The
writers are deterministic (fixed key order, compact separators), so any
artifact round-trips bit for bit through its reader.  A table reader given
a context reads over it a file whose context names the same p, n and
modulus, so `conv` builds one field for two tables over it.  The group and
table types are imported by the readers that build them, so reading or
writing a context alone loads only the field module.
"""

from __future__ import annotations

import io
import json
import os
from typing import TYPE_CHECKING, Any, Optional

from .errors import MalformedInput, TooLarge
from .field import FieldContext, FieldElement, make_context

if TYPE_CHECKING:
    from .characters import ScalarFunction
    from .classical import ExponentFunction
    from .group import GroupSpec
    from .vectorial import VectorFunction

SCHEMA_VERSION = 1


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _expect_mapping(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _is_int(obj: Any) -> bool:
    # JSON true and false decode to bools, which Python counts as ints.
    return isinstance(obj, int) and not isinstance(obj, bool)


def _expect_int(obj: Any, what: str) -> int:
    if not _is_int(obj):
        raise MalformedInput(f"{what} must be an integer", witness=obj)
    return obj


def _expect_int_list(obj: Any, what: str) -> list[int]:
    if not isinstance(obj, list) or not all(_is_int(v) for v in obj):
        raise MalformedInput(f"{what} must be an array of integers", witness=obj)
    return obj


def _expect_coeffs(obj: Any, p: int, what: str) -> list[int]:
    coeffs = _expect_int_list(obj, what)
    if not all(0 <= c < p for c in coeffs):
        raise MalformedInput(f"{what} coefficients must lie in [0, {p})", witness=obj)
    return coeffs


# -- context ------------------------------------------------------------------


def context_to_obj(ctx: FieldContext) -> dict:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)}


def _checked_context(p: int, n: int, modulus: Optional[list[int]], what: str) -> FieldContext:
    """make_context, with the modulus coefficients checked against [0, p)
    first, so that a malformed modulus is reported as given, not reduced."""
    if modulus is not None and p >= 2:
        _expect_coeffs(modulus, p, what)
    return make_context(p, n, modulus)


def _context_args(obj: Any) -> tuple[int, int, Optional[list[int]]]:
    """The p, n and modulus (None if omitted) that a context object names."""
    obj = _expect_mapping(obj, "context")
    if "p" not in obj or "n" not in obj:
        raise MalformedInput("context requires 'p' and 'n'")
    modulus = obj.get("modulus")
    if modulus is not None:
        modulus = _expect_int_list(modulus, "context.modulus")
    return _expect_int(obj["p"], "context.p"), _expect_int(obj["n"], "context.n"), modulus


def context_from_obj(obj: Any) -> FieldContext:
    return _checked_context(*_context_args(obj), "context.modulus")


# -- group ---------------------------------------------------------------------


def group_to_obj(spec: GroupSpec) -> dict:
    return {"factors": [{"d": d, "m": m} for d, m in spec.factors]}


def group_from_obj(ctx: FieldContext, obj: Any) -> GroupSpec:
    from .group import make_group

    obj = _expect_mapping(obj, "group")
    factors = obj.get("factors")
    if not isinstance(factors, list) or not factors:
        raise MalformedInput("group requires a nonempty 'factors' array")
    pairs = []
    for f in factors:
        f = _expect_mapping(f, "group factor")
        if "d" not in f or "m" not in f:
            raise MalformedInput("each group factor requires 'd' and 'm'")
        d = _expect_int(f["d"], "group factor d")
        m = _expect_int(f["m"], "group factor m")
        pairs.append((d, m))
    return make_group(ctx, pairs)


def group_file_to_obj(spec: GroupSpec) -> dict:
    return {"context": context_to_obj(spec.ctx), "group": group_to_obj(spec)}


def group_from_file_obj(obj: Any, ctx: Optional[FieldContext] = None) -> GroupSpec:
    """The group of a group file, over ctx where its context names ctx's p,
    n and modulus, else over the field it names, built afresh.  A context
    that leaves its modulus out is always built afresh: telling whether the
    default modulus is ctx's would take the search that builds it."""
    obj = _expect_mapping(obj, "group file")
    args = _context_args(obj.get("context"))
    if ctx is None or args != (ctx.p, ctx.n, list(ctx.modulus)):
        ctx = _checked_context(*args, "context.modulus")
    return group_from_obj(ctx, obj.get("group"))


# -- elements -------------------------------------------------------------------


def element_to_obj(v: FieldElement) -> list[int]:
    return list(v.coeffs)


def element_from_obj(ctx: FieldContext, obj: Any) -> FieldElement:
    return FieldElement(ctx, _code_from_obj(ctx, obj))


def _code_from_obj(ctx: FieldContext, obj: Any) -> int:
    return ctx._code(_expect_coeffs(obj, ctx.p, "field element"))


# -- scalar functions -------------------------------------------------------------


def scalar_function_to_obj(f: ScalarFunction) -> dict:
    return {
        **group_file_to_obj(f.spec),
        "values": list(map(f.spec.ctx._coeffs, f._codes)),
    }


def scalar_function_from_obj(obj: Any, ctx: Optional[FieldContext] = None) -> ScalarFunction:
    """The table of a function file; its field is ctx where the file names
    ctx's p, n and modulus (`group_from_file_obj`)."""
    from .characters import ScalarFunction

    obj = _expect_mapping(obj, "function")
    spec = group_from_file_obj(obj, ctx)
    values = obj.get("values")
    if not isinstance(values, list):
        raise MalformedInput("function requires a 'values' array")
    ctx = spec.ctx
    return ScalarFunction._of(spec, [_code_from_obj(ctx, v) for v in values])


# -- exponent functions ------------------------------------------------------------


def exponent_function_from_obj(obj: Any) -> ExponentFunction:
    from .classical import ExponentFunction

    obj = _expect_mapping(obj, "exponent function")
    spec = group_from_file_obj(obj)
    if "m" not in obj:
        raise MalformedInput("exponent function requires 'm'")
    exponents = _expect_int_list(obj.get("exponents"), "exponents")
    m = _expect_int(obj["m"], "exponent function m")
    return ExponentFunction(spec, m, tuple(exponents))


# -- vector functions ----------------------------------------------------------------


def vector_function_to_obj(f: VectorFunction) -> dict:
    return {
        **group_file_to_obj(f.spec),
        "l": f.dim,
        "values": [list(map(f.spec.ctx._coeffs, vec)) for vec in zip(*f._codes)],
    }


def vector_function_from_obj(obj: Any) -> VectorFunction:
    from .vectorial import VectorFunction, _coordinate_columns

    obj = _expect_mapping(obj, "vector function")
    spec = group_from_file_obj(obj)
    if "l" not in obj:
        raise MalformedInput("vector function requires 'l'")
    dim = _expect_int(obj["l"], "vector function l")
    values = obj.get("values")
    if not isinstance(values, list):
        raise MalformedInput("vector function requires a 'values' array")
    ctx = spec.ctx
    rows = []
    for vec in values:
        if not isinstance(vec, list):
            raise MalformedInput("each vector value must be an array of elements")
        rows.append([_code_from_obj(ctx, v) for v in vec])
    return VectorFunction._of(spec, _coordinate_columns(spec, dim, rows))


# -- files -------------------------------------------------------------------------


# The largest table field.MAX_WORK admits (786432 values) is about 11 MB of JSON.
MAX_INPUT_BYTES = 1 << 26


def read_json(path: str) -> Any:
    """The JSON value in the file at path, refused before decoding past MAX_INPUT_BYTES."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size <= MAX_INPUT_BYTES:
            # A pipe reports size 0, so its read stops one byte past the bound.
            data = fh.read(None if size else MAX_INPUT_BYTES + 1)
            size = len(data)
    if size > MAX_INPUT_BYTES:
        raise TooLarge(
            f"{path}: {size} bytes exceed the input bound of {MAX_INPUT_BYTES}",
            witness={"bytes": size, "max_bytes": MAX_INPUT_BYTES},
        )
    try:
        # Decoded as a text-mode read would, universal newlines included.
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    # ValueError covers JSONDecodeError, UnicodeDecodeError and overlong integers.
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
