"""Circle-valued characters of admissible groups.

The character attached to a group element alpha sends x to the product over
factors of u_d^(alpha_i . x_i), where u_d is the order-d circle generator.
Because every value is a power of the circle generator u, a character value
is fully described by an exponent modulo s = p^n + 1.  Whole rows of
exponents come from GroupSpec.exponent_row; a reference path that
exponentiates in the field per factor is kept for cross-checking.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SpecMismatch
from .field import FieldElement
from .group import GroupElement, GroupSpec


class Record:
    """Base of the library's immutable records.

    A subclass names its fields in ``__slots__``; the constructor takes
    them positionally or by name and then calls ``_validate``.  Records of
    the same class are equal when their fields are, hash by their fields,
    print as ``Name(field=value, ...)`` and reject assignment.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(k) for k in names[len(args):] if k in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self) -> None:
        """Check (or normalize, through object.__setattr__) the fields."""

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
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def _first_failing(spec: GroupSpec, oks: Iterable[bool]) -> GroupElement | None:
    """The first point whose flag in oks is false, or None."""
    for i, ok in enumerate(oks):
        if not ok:
            return spec.element_at(i)
    return None


class ScalarFunction(Record):
    """A total table G -> GF(q) in canonical element order."""

    __slots__ = ("spec", "values")
    spec: GroupSpec
    values: tuple[FieldElement, ...]

    def _validate(self):
        if len(self.values) != self.spec.order:
            raise SpecMismatch(
                f"table has {len(self.values)} entries, group has {self.spec.order}"
            )
        for v in self.values:
            if v.ctx is not self.spec.ctx and v.ctx != self.spec.ctx:
                raise SpecMismatch("table value lies outside the spec's field")

    def at(self, x: Sequence[int]) -> FieldElement:
        return self.values[self.spec.index_of(x)]

    def circle_witness(self) -> GroupElement | None:
        """First point whose value has norm != 1, or None if circle-valued."""
        return _first_failing(self.spec, map(FieldElement.in_circle, self.values))

    @classmethod
    def constant(cls, spec: GroupSpec, value: FieldElement) -> "ScalarFunction":
        return cls(spec, (value,) * spec.order)

    @classmethod
    def delta(cls, spec: GroupSpec, x: Sequence[int]) -> "ScalarFunction":
        """Indicator of x: one at x, zero elsewhere."""
        ctx = spec.ctx
        values = [ctx.zero] * spec.order
        values[spec.index_of(x)] = ctx.one
        return cls(spec, tuple(values))

    @classmethod
    def from_exponents(cls, spec: GroupSpec, d: int, exponents: Sequence[int]) -> "ScalarFunction":
        """Table x -> u_d^(exponents[x]) for the order-d circle subgroup."""
        ctx = spec.ctx
        ctx.circle_subgroup_generator(d)  # validates d | s
        s = ctx.circle_order
        step = s // d
        if len(exponents) != spec.order:
            raise SpecMismatch(
                f"exponent table has {len(exponents)} entries, group has {spec.order}"
            )
        values = tuple(
            FieldElement(ctx, ctx._circle_pow[step * (int(e) % d) % s]) for e in exponents
        )
        return cls(spec, values)


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
    ctx = spec.ctx
    values = tuple(FieldElement(ctx, ctx._circle_pow[k]) for k in spec.exponent_row(alpha))
    return ScalarFunction(spec, values)


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
    whose |G|^2 exponents exceed group.MAX_WORK raises TooLarge.
    """
    spec._check_work(spec.order)
    # chi_alpha(x) = chi_x(alpha), so the row of x is its evaluation map.
    return all(any(spec.exponent_row(x)) for x in spec.elements() if any(x))
