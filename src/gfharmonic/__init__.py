"""Exact harmonic analysis over square-order finite fields.

GF(p^(2n)) carries a conjugation, a norm into GF(p^n), and a cyclic unit
circle of order p^n + 1.  Groups whose cyclic factors divide that circle
order admit circle-valued characters, an exact Fourier transform, and a
bentness notion for circle-valued (and vector-valued) tables, plus an
exact bridge to the classical complex-valued bentness.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a process pays only
for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bent": (
        "BentReport", "SearchResult", "autocorrelation", "derivative", "dual_bent",
        "is_bent_autocorr", "is_bent_spectral", "mm_construct", "search_bent",
    ),
    "characters": (
        "ScalarFunction", "char_exponent", "character_row", "character_sum",
        "character_value", "character_value_naive", "evaluation_map_is_bijective",
        "inner_product",
    ),
    "classical": (
        "ExponentFunction", "classical_ft", "comparison_check", "embed",
        "is_classical_bent",
    ),
    "errors": (
        "BudgetExceeded", "DegreeMismatch", "DimensionMismatch", "DivisionByZero",
        "HarmonicError", "InadmissibleFactor", "IndexOutOfRange", "InvalidDegree",
        "InvalidDivisor", "InvalidOrder", "MalformedInput", "NonPrime", "NotBent",
        "NotCircleValued", "NotOnHypersphere", "NotQuadraticResidue", "ReducibleModulus",
        "ShapeMismatch", "SpecMismatch", "TooLarge",
    ),
    "field": ("FieldContext", "FieldElement", "make_context"),
    "fourier": ("convolve", "ft", "inverse_ft", "parseval_check", "plancherel_check"),
    "group": ("GroupSpec", "make_group"),
    "vectorial": (
        "VectorFunction", "coordinate_function", "hermitian_dot", "is_md_bent",
        "is_md_bent_derivative", "md_derivative", "md_ft", "md_inverse_ft", "norm_l",
        "on_hypersphere", "vector_convolve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
