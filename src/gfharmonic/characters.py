"""Circle-valued characters of admissible groups.

The character attached to a group element alpha sends x to the product over
factors of u_d^(alpha_i . x_i), where u_d is the order-d circle generator.
Because every value is a power of the circle generator u, a character value
is fully described by an exponent modulo s = p^n + 1.  Whole rows of
exponents come from GroupSpec.exponent_row; a reference path that
exponentiates in the field per factor is kept for cross-checking.

A table keeps its values as coordinate columns of codes (`_Coded`), the
form every sum kernel reads and returns: a scalar table is one column.
Equality, hashing, copies and pickles work on the codes, and the library's
producers, character_row and from_exponents among them, build tables from
codes with a length check only (`_of`).  Only the values a caller reads
become FieldElements: `ScalarFunction.values` is built on first read and
kept.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import SpecMismatch
from .field import FieldContext, FieldElement, _norm_sums
from .group import GroupElement, GroupSpec


class Record:
    """Base of the library's immutable records.

    A subclass names the fields it keeps in ``__slots__``.  Its constructor
    takes the fields, or the arguments that ``_args`` names in their place,
    positionally or by name, and keeps what ``_validate`` returns for them.
    Records of the same class are equal when their fields are, hash by
    their fields, print as ``Name(argument=value, ...)``, reject
    assignment, and copy and pickle through ``_of``.
    """

    __slots__ = ()
    _args: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._args or self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(k) for k in names[len(args):] if k in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self._set(self._validate(*args))

    def _validate(self, *args) -> tuple:
        """Check the constructor's arguments; return the fields to keep."""
        return args

    @classmethod
    def _of(cls, *fields):
        """The record of the given fields, kept as they are."""
        record = object.__new__(cls)
        record._set(fields)
        return record

    def _set(self, fields: Sequence) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._args or self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self._of, self._fields()


class _Coded(Record):
    """A record that keeps field values as codes.  The FieldElements a
    caller reads (a property made by `_kept`) are built on first read and
    kept in the `_view` slot, which is no field: equality, hashing, copies
    and pickles leave it out."""

    __slots__ = ("_view",)


def _kept(build: Callable[[_Coded], tuple]) -> property:
    """A read-only property whose value build makes on first read; it is kept."""

    def get(record: _Coded) -> tuple:
        view = getattr(record, "_view", None)
        if view is None:
            view = build(record)
            object.__setattr__(record, "_view", view)
        return view

    return property(get, doc=build.__doc__)


def _elements(ctx: FieldContext, codes: Sequence[int]) -> tuple[FieldElement, ...]:
    """The elements of ctx with the given codes."""
    return tuple([FieldElement(ctx, c) for c in codes])


def _codes_of(ctx: FieldContext | None, values, error: str) -> tuple[int, ...]:
    """The codes of values; SpecMismatch(error) unless each is a FieldElement of ctx."""
    values = tuple(values)
    if not all(isinstance(v, FieldElement) and (v.ctx is ctx or v.ctx == ctx) for v in values):
        raise SpecMismatch(error)
    return tuple([v.code for v in values])


def _check_length(spec: GroupSpec, table: Sequence) -> None:
    if len(table) != spec.order:
        raise SpecMismatch(f"table has {len(table)} entries, group has {spec.order}")


def _first_failing(spec: GroupSpec, columns: Sequence[Sequence[int]]) -> GroupElement | None:
    """The first point where the columns of codes have a norm sum != 1, or None."""
    for i, c in enumerate(_norm_sums(spec.ctx, columns)):
        if c != 1:
            return spec.element_at(i)
    return None


class ScalarFunction(_Coded):
    """A total table G -> GF(q) in canonical element order, kept as the
    codes of its values."""

    __slots__ = ("spec", "_codes")
    _args = ("spec", "values")
    spec: GroupSpec
    _codes: tuple[int, ...]

    def _validate(self, spec: GroupSpec, values: Sequence[FieldElement]) -> tuple:
        codes = _codes_of(spec.ctx, values, "table value lies outside the spec's field")
        _check_length(spec, codes)
        return spec, codes

    @classmethod
    def _of(cls, spec: GroupSpec, codes: Sequence[int]) -> "ScalarFunction":
        """The table of the given codes in canonical order; checks their number."""
        _check_length(spec, codes)
        return super()._of(spec, tuple(codes))

    @_kept
    def values(self) -> tuple[FieldElement, ...]:
        """The values in canonical order, built on first read and kept."""
        return _elements(self.spec.ctx, self._codes)

    def at(self, x: Sequence[int]) -> FieldElement:
        return self.values[self.spec.index_of(x)]

    def circle_witness(self) -> GroupElement | None:
        """First point whose value has norm != 1, or None if circle-valued."""
        return _first_failing(self.spec, self._columns())

    def _columns(self) -> list[Sequence[int]]:
        """The codes of the table as its one coordinate column."""
        return [self._codes]

    @classmethod
    def constant(cls, spec: GroupSpec, value: FieldElement) -> "ScalarFunction":
        return cls(spec, (value,) * spec.order)

    @classmethod
    def delta(cls, spec: GroupSpec, x: Sequence[int]) -> "ScalarFunction":
        """Indicator of x: one at x, zero elsewhere."""
        codes = [0] * spec.order
        codes[spec.index_of(x)] = 1
        return cls._of(spec, codes)

    @classmethod
    def from_exponents(cls, spec: GroupSpec, d: int, exponents: Sequence[int]) -> "ScalarFunction":
        """Table x -> u_d^(exponents[x]) for the order-d circle subgroup."""
        ctx = spec.ctx
        ctx.circle_subgroup_generator(d)  # validates d | s
        s, power = ctx.circle_order, ctx._circle_pow
        step = s // d
        return cls._of(spec, [power[step * (int(e) % d) % s] for e in exponents])


def char_exponent(spec: GroupSpec, alpha: Sequence[int], x: Sequence[int]) -> int:
    """Exponent k with chi_alpha(x) = u^k, reduced modulo the circle order."""
    alpha = spec.validate_element(alpha)
    x = spec.validate_element(x)
    s = spec.ctx.circle_order
    return sum(st * a * b for st, a, b in zip(spec.coord_steps, alpha, x)) % s


def character_value(spec: GroupSpec, alpha: Sequence[int], x: Sequence[int]) -> FieldElement:
    """chi_alpha(x), computed by circle-exponent arithmetic."""
    ctx = spec.ctx
    return FieldElement(ctx, ctx._circle_pow[char_exponent(spec, alpha, x)])


def character_value_naive(spec: GroupSpec, alpha: Sequence[int], x: Sequence[int]) -> FieldElement:
    """chi_alpha(x) by per-factor field exponentiation; reference path."""
    alpha, x = spec.validate_element(alpha), spec.validate_element(x)
    out, off = spec.ctx.one, 0
    for d, m in spec.factors:
        dot = sum(a * b for a, b in zip(alpha[off:off + m], x[off:off + m])) % d
        out, off = out * spec.ctx.circle_subgroup_generator(d) ** dot, off + m
    return out


def character_row(spec: GroupSpec, alpha: Sequence[int]) -> ScalarFunction:
    """The character chi_alpha as a table over G."""
    power = spec.ctx._circle_pow
    return ScalarFunction._of(spec, [power[k] for k in spec.exponent_row(alpha)])


def _dot(x: Sequence[FieldElement], y: Sequence[FieldElement]) -> FieldElement:
    """sum_i x_i * conj(y_i) over nonempty sequences of equal length."""
    terms = [a * b.conjugate() for a, b in zip(x, y)]
    return sum(terms[1:], terms[0])


def inner_product(f: ScalarFunction, g: ScalarFunction) -> FieldElement:
    """sum_x f(x) * conj(g(x)); conjugate-symmetric, not positive definite."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    return _dot(f.values, g.values)


def evaluation_map_is_bijective(spec: GroupSpec) -> bool:
    """Check that x -> (alpha -> chi_alpha(x)) separates the points of G.

    Injectivity suffices for bijectivity since G and its double dual have
    equal order.  The map is a homomorphism, so it is injective iff no
    x != 0 has an all-zero row; one row is held at a time, and a group
    whose |G|^2 exponents exceed field.MAX_WORK raises TooLarge.
    """
    spec._check_work(spec.order)
    # chi_alpha(x) = chi_x(alpha), so the row of x is its evaluation map.
    return all(any(spec.exponent_row(x)) for x in spec.elements() if any(x))
