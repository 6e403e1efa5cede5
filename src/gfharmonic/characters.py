"""Circle-valued characters of admissible groups.

The character attached to a group element alpha sends x to the product over
factors of u_d^(alpha_i . x_i), where u_d is the order-d circle generator.
Because every value is a power of the circle generator u, a character value
is fully described by an exponent modulo s = p^n + 1.  Whole rows of
exponents come from GroupSpec.exponent_row; a reference path that
exponentiates in the field per factor is kept for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SpecMismatch, TooLarge
from .field import FieldElement
from .group import GroupElement, GroupSpec


@dataclass(frozen=True)
class ScalarFunction:
    """A total table G -> GF(q) in canonical element order."""

    spec: GroupSpec
    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.values) != self.spec.order:
            raise SpecMismatch(
                f"table has {len(self.values)} entries, group has {self.spec.order}"
            )
        for v in self.values:
            if v.ctx != self.spec.ctx:
                raise SpecMismatch("table value lies outside the spec's field")

    def at(self, x: Sequence[int]) -> FieldElement:
        return self.values[self.spec.index_of(x)]

    def circle_witness(self) -> GroupElement | None:
        """First point whose value has norm != 1, or None if circle-valued."""
        one = self.spec.ctx.one
        for i, v in enumerate(self.values):
            if v.norm() != one:
                return self.spec.element_at(i)
        return None

    @classmethod
    def from_values(cls, spec: GroupSpec, values: Sequence[FieldElement]) -> "ScalarFunction":
        return cls(spec, tuple(values))

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
    ctx = spec.ctx
    out = ctx.one
    for (d, _), dot in zip(spec.factors, spec.factor_dot(alpha, x)):
        out = out * ctx.circle_subgroup_generator(d) ** dot
    return out


def character_row(spec: GroupSpec, alpha: Sequence[int]) -> ScalarFunction:
    """The character chi_alpha as a table over G."""
    ctx = spec.ctx
    values = tuple(FieldElement(ctx, ctx._circle_pow[k]) for k in spec.exponent_row(alpha))
    return ScalarFunction(spec, values)


def character_sum(spec: GroupSpec, alpha: Sequence[int]) -> FieldElement:
    """sum_x chi_alpha(x), by direct summation.

    Vanishes for alpha != 0 and equals (|G| mod p) * 1 at alpha = 0; this
    function computes the literal sum so tests can check that fact against
    the closed form.
    """
    ctx = spec.ctx
    acc = ctx.zero
    for x in spec.elements():
        acc = acc + character_value(spec, alpha, x)
    return acc


def inner_product(f: ScalarFunction, g: ScalarFunction) -> FieldElement:
    """sum_x f(x) * conj(g(x)); conjugate-symmetric, not positive definite."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    acc = f.spec.ctx.zero
    for a, b in zip(f.values, g.values):
        acc = acc + a * b.conjugate()
    return acc


def evaluation_map_is_bijective(spec: GroupSpec, max_order: int = 1024) -> bool:
    """Check that x -> (alpha -> chi_alpha(x)) separates the points of G.

    Injectivity suffices for bijectivity since G and its double dual have
    equal order.  Guarded: groups larger than max_order raise TooLarge.
    """
    if spec.order > max_order:
        raise TooLarge(
            f"group order {spec.order} exceeds enumeration bound {max_order}",
            witness=spec.order,
        )
    # chi_alpha(x) = chi_x(alpha), so the row of x is its evaluation map.
    rows = {tuple(spec.exponent_row(x)) for x in spec.elements()}
    return len(rows) == spec.order
