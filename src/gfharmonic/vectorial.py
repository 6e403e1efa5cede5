"""Vector-valued tables G -> GF(q)^l and their bentness.

GF(q)^l carries the Hermitian dot product sum_i x_i * conj(y_i); its
"hypersphere" is the set of vectors of self-product one (which, unlike the
complex case, misses some nonzero vectors and is exactly why the
dot product is only a pairing).  The transform sends alpha to
sum_x chi_alpha(x) f(x) and works coordinatewise like the scalar one; the
derivative in direction alpha is the scalar table
x -> <f(alpha + x), f(x)>, and bentness asks every transformed vector to
have self-product |G| mod p.
"""

from __future__ import annotations

from typing import Sequence

from .bent import BentReport, _derivative_report, _require, _spectral_report
from .characters import Record, ScalarFunction, _dot, _first_failing
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotOnHypersphere,
    SpecMismatch,
)
from .field import FieldElement
from .fourier import _correlate, ft, inverse_ft
from .group import GroupElement, GroupSpec

FieldVector = tuple[FieldElement, ...]


def hermitian_dot(x: Sequence[FieldElement], y: Sequence[FieldElement]) -> FieldElement:
    """sum_i x_i * conj(y_i); linear in x, conjugate-symmetric."""
    if len(x) != len(y) or not x:
        raise DimensionMismatch(f"dimensions {len(x)} and {len(y)} differ or are zero")
    return _dot(x, y)


def norm_l(x: Sequence[FieldElement]) -> FieldElement:
    """Self dot product; always lies in the subfield GF(p^n)."""
    return hermitian_dot(x, x)


def on_hypersphere(x: Sequence[FieldElement]) -> bool:
    return norm_l(x).code == 1


class VectorFunction(Record):
    """A total table G -> GF(q)^l in canonical element order."""

    __slots__ = ("spec", "dim", "values")
    spec: GroupSpec
    dim: int
    values: tuple[FieldVector, ...]

    def _validate(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")
        if len(self.values) != self.spec.order:
            raise SpecMismatch(
                f"table has {len(self.values)} entries, group has {self.spec.order}"
            )
        for vec in self.values:
            if len(vec) != self.dim:
                raise DimensionMismatch(
                    f"vector of length {len(vec)} in a dimension-{self.dim} table"
                )
            for v in vec:
                if v.ctx != self.spec.ctx:
                    raise SpecMismatch("vector entry lies outside the spec's field")

    def at(self, x: Sequence[int]) -> FieldVector:
        return self.values[self.spec.index_of(x)]

    def hypersphere_witness(self) -> GroupElement | None:
        """First point whose vector has self-product != 1, or None."""
        return _first_failing(self.spec, map(on_hypersphere, self.values))

    @classmethod
    def from_scalar(cls, f: ScalarFunction, dim: int, slot: int = 0) -> "VectorFunction":
        """Zero-pad a scalar table into coordinate ``slot`` of a dim-vector table."""
        if not 0 <= slot < dim:
            raise IndexOutOfRange(f"slot {slot} outside dimension {dim}", witness=slot)
        zero = f.spec.ctx.zero
        values = tuple(
            tuple(v if i == slot else zero for i in range(dim)) for v in f.values
        )
        return cls(f.spec, dim, values)


def coordinate_function(f: VectorFunction, e: int) -> ScalarFunction:
    """Projection onto the e-th canonical basis vector."""
    if not 0 <= e < f.dim:
        raise IndexOutOfRange(f"basis index {e} outside dimension {f.dim}", witness=e)
    return ScalarFunction(f.spec, tuple(vec[e] for vec in f.values))


def _coordinatewise(transform, f: VectorFunction) -> VectorFunction:
    f.spec._check_work(f.dim * sum(f.spec.dims))  # all l transforms, before the first
    coords = [transform(coordinate_function(f, i)).values for i in range(f.dim)]
    return VectorFunction(f.spec, f.dim, tuple(zip(*coords)))


def md_ft(f: VectorFunction) -> VectorFunction:
    """alpha -> sum_x chi_alpha(x) f(x): the coordinate transforms, stacked."""
    return _coordinatewise(ft, f)


def md_inverse_ft(F: VectorFunction) -> VectorFunction:
    """x -> (|G| mod p)^-1 sum_alpha conj(chi_alpha(x)) F(alpha), coordinatewise."""
    return _coordinatewise(inverse_ft, F)


def vector_convolve(f: VectorFunction, g: VectorFunction) -> ScalarFunction:
    """(f * g)(alpha) = sum_x <g(alpha + x), f(x)>; scalar-valued."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {g.dim} differ")
    pairs = [
        (tuple(vec[i] for vec in g.values), tuple(vec[i].conjugate() for vec in f.values))
        for i in range(f.dim)
    ]
    return _correlate(f.spec, pairs)


def md_derivative(f: VectorFunction, alpha: Sequence[int]) -> ScalarFunction:
    """x -> <f(alpha + x), f(x)>, the orthogonality defect along alpha."""
    row = f.spec.translate_row(alpha)
    values = tuple(hermitian_dot(f.values[y], vec) for y, vec in zip(row, f.values))
    return ScalarFunction(f.spec, values)


def is_md_bent(f: VectorFunction) -> BentReport:
    """Bentness by definition: norm_l(md_ft(f)(alpha)) == |G| mod p for all alpha."""
    _require(f.hypersphere_witness(), NotOnHypersphere, "self-product")
    return _spectral_report(f.spec, tuple(norm_l(vec) for vec in md_ft(f).values))


def is_md_bent_derivative(f: VectorFunction) -> BentReport:
    """Bentness by the derivative criterion: sum_x <f(alpha+x), f(x)> = 0
    for every nonzero alpha.  Norm table reported via ft of the
    autocorrelation, independent of the spectral route."""
    _require(f.hypersphere_witness(), NotOnHypersphere, "self-product")
    return _derivative_report(vector_convolve(f, f))
