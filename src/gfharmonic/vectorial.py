"""Vector-valued tables G -> GF(q)^l and their bentness.

GF(q)^l carries the Hermitian dot product sum_i x_i * conj(y_i); its
"hypersphere" is the set of vectors of self-product one (which, unlike the
complex case, misses some nonzero vectors and is exactly why the
dot product is only a pairing).  The transform sends alpha to
sum_x chi_alpha(x) f(x) and works coordinatewise like the scalar one; the
derivative in direction alpha is the scalar table
x -> <f(alpha + x), f(x)>, and bentness asks every transformed vector to
have self-product |G| mod p.  A table keeps one column of codes per
coordinate and hands them to the scalar layer's kernels as they are, a
scalar table being one column: the transform, the norm sums, the spectral
verdict (bent._spectral) and the correlation sums.  md_ft, md_inverse_ft,
coordinate_function and from_scalar build tables from columns of codes;
only the vectors a caller reads (VectorFunction.values, built on first read
and kept) become FieldElements.  norm_l, hermitian_dot and md_derivative
stay on FieldElement arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from .bent import BentReport, _derivative_report, _require, _spectral
from .characters import (
    ScalarFunction,
    _check_length,
    _Coded,
    _codes_of,
    _dot,
    _elements,
    _first_failing,
    _kept,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotOnHypersphere,
    SpecMismatch,
)
from .field import FieldElement
from .fourier import _correlate, _transform
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


class VectorFunction(_Coded):
    """A total table G -> GF(q)^l in canonical element order, kept as one
    column of codes per coordinate; dim is l."""

    __slots__ = ("spec", "_codes")
    _args = ("spec", "dim", "values")
    spec: GroupSpec
    _codes: tuple[tuple[int, ...], ...]

    def _validate(self, spec: GroupSpec, dim: int, values: Sequence[FieldVector]) -> tuple:
        ctx = spec.ctx
        error = "vector entry lies outside the spec's field"
        rows = [_codes_of(ctx, vec, error) for vec in values]
        return spec, _coordinate_columns(spec, dim, rows)

    @classmethod
    def _of(cls, spec: GroupSpec, columns: Sequence[Sequence[int]]) -> "VectorFunction":
        """The table of the given coordinate columns of codes; checks their lengths."""
        for column in columns:
            _check_length(spec, column)
        return super()._of(spec, tuple(map(tuple, columns)))

    @property
    def dim(self) -> int:
        return len(self._codes)

    @_kept
    def values(self) -> tuple[FieldVector, ...]:
        """The vectors in canonical order, built on first read and kept."""
        ctx = self.spec.ctx
        return tuple(zip(*[_elements(ctx, column) for column in self._codes]))

    def at(self, x: Sequence[int]) -> FieldVector:
        return self.values[self.spec.index_of(x)]

    def hypersphere_witness(self) -> GroupElement | None:
        """First point whose vector has self-product != 1, or None."""
        return _first_failing(self.spec, self._columns())

    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The codes of the table, one column per coordinate."""
        return self._codes

    @classmethod
    def from_scalar(cls, f: ScalarFunction, dim: int, slot: int = 0) -> "VectorFunction":
        """Zero-pad a scalar table into coordinate ``slot`` of a dim-vector table."""
        if not 0 <= slot < dim:
            raise IndexOutOfRange(f"slot {slot} outside dimension {dim}", witness=slot)
        zeros = (0,) * f.spec.order
        return cls._of(f.spec, tuple(f._codes if i == slot else zeros for i in range(dim)))


def _coordinate_columns(spec: GroupSpec, dim: int, rows: Sequence[Sequence[int]]) -> tuple:
    """The coordinate columns of a table of dim-vectors of codes, after
    checking dim, the number of vectors and the length of each."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
    _check_length(spec, rows)
    for vec in rows:
        if len(vec) != dim:
            raise DimensionMismatch(f"vector of length {len(vec)} in a dimension-{dim} table")
    return tuple(zip(*rows))


def coordinate_function(f: VectorFunction, e: int) -> ScalarFunction:
    """Projection onto the e-th canonical basis vector."""
    if not 0 <= e < f.dim:
        raise IndexOutOfRange(f"basis index {e} outside dimension {f.dim}", witness=e)
    return ScalarFunction._of(f.spec, f._codes[e])


def md_ft(f: VectorFunction) -> VectorFunction:
    """alpha -> sum_x chi_alpha(x) f(x): the coordinate transforms, stacked."""
    return VectorFunction._of(f.spec, _transform(f.spec, f._columns(), 1, 1))


def md_inverse_ft(F: VectorFunction) -> VectorFunction:
    """x -> (|G| mod p)^-1 sum_alpha conj(chi_alpha(x)) F(alpha), coordinatewise."""
    spec = F.spec
    return VectorFunction._of(spec, _transform(spec, F._columns(), -1, spec.inv_order_mod_p))


def vector_convolve(f: VectorFunction, g: VectorFunction) -> ScalarFunction:
    """(f * g)(alpha) = sum_x <g(alpha + x), f(x)>; scalar-valued."""
    if f.spec != g.spec:
        raise SpecMismatch("functions live on different groups")
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimensions {f.dim} and {g.dim} differ")
    return _correlate(f.spec, list(zip(g._columns(), f._columns())), f.spec.ctx.sqrt_q)


def md_derivative(f: VectorFunction, alpha: Sequence[int]) -> ScalarFunction:
    """x -> <f(alpha + x), f(x)>, the orthogonality defect along alpha."""
    row = f.spec.translate_row(alpha)
    values = tuple(hermitian_dot(f.values[y], vec) for y, vec in zip(row, f.values))
    return ScalarFunction(f.spec, values)


def is_md_bent(f: VectorFunction) -> BentReport:
    """Bentness by definition: norm_l(md_ft(f)(alpha)) == |G| mod p for all alpha."""
    _require(f.hypersphere_witness(), NotOnHypersphere, "self-product")
    return _spectral(f.spec, f._columns())[1]


def is_md_bent_derivative(f: VectorFunction) -> BentReport:
    """Bentness by the derivative criterion: sum_x <f(alpha+x), f(x)> = 0
    for every nonzero alpha.  Norm table reported via ft of the
    autocorrelation, independent of the spectral route."""
    _require(f.hypersphere_witness(), NotOnHypersphere, "self-product")
    return _derivative_report(vector_convolve(f, f))
