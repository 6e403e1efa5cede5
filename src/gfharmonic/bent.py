"""Bent functions for circle-valued tables on admissible groups.

A circle-valued f is bent when every spectral value ft(f)(alpha) has norm
equal to |G| mod p.  Equivalently, the derivative sums
sum_x f(alpha + x) conj(f(x)) vanish for every nonzero direction alpha;
both routes are implemented and kept independent so they can cross-check
each other.  The module also builds duals, the product-group construction
f(x, y) = chi_x(y) g(y), and an exhaustive search over subgroup-valued
tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .characters import ScalarFunction, character_value
from .errors import (
    BudgetExceeded,
    NotBent,
    NotCircleValued,
    NotQuadraticResidue,
)
from .field import FieldElement
from .fourier import ft
from .group import GroupElement, GroupSpec, make_group


@dataclass(frozen=True)
class BentReport:
    """Outcome of a bentness test: verdict, the per-direction norm table of
    the spectrum, and the points where the test failed (empty iff bent)."""

    is_bent: bool
    spectrum_norms: tuple[FieldElement, ...]
    failing_points: tuple[GroupElement, ...]


def _require_circle_valued(f: ScalarFunction) -> None:
    witness = f.circle_witness()
    if witness is not None:
        raise NotCircleValued(
            f"value at {list(witness)} has norm != 1", witness=witness
        )


def is_bent_spectral(f: ScalarFunction) -> BentReport:
    """Bentness by definition: norm(ft(f)(alpha)) == |G| mod p for all alpha."""
    _require_circle_valued(f)
    spec = f.spec
    target = spec.ctx.from_int(spec.order_mod_p)
    norms = tuple(v.norm() for v in ft(f).values)
    failing = tuple(
        spec.element_at(i) for i, v in enumerate(norms) if v != target
    )
    return BentReport(not failing, norms, failing)


def derivative(f: ScalarFunction, alpha: Sequence[int]) -> ScalarFunction:
    """Directional derivative: x -> f(alpha + x) * conj(f(x))."""
    spec = f.spec
    values = tuple(
        f.at(spec.add(alpha, x)) * f.at(x).conjugate() for x in spec.elements()
    )
    return ScalarFunction(spec, values)


def autocorrelation(f: ScalarFunction) -> ScalarFunction:
    """alpha -> sum_x f(alpha + x) * conj(f(x))."""
    spec = f.spec
    ctx = spec.ctx
    out = []
    for alpha in spec.elements():
        acc = ctx.zero
        for x in spec.elements():
            acc = acc + f.at(spec.add(alpha, x)) * f.at(x).conjugate()
        out.append(acc)
    return ScalarFunction(spec, tuple(out))


def is_bent_autocorr(f: ScalarFunction) -> BentReport:
    """Bentness by the derivative criterion: all nonzero-direction
    autocorrelations vanish.

    The reported norm table is ft(AC_f), which coincides with the spectrum
    norms without ever computing ft(f) itself, so the two reports stay on
    independent computational routes.
    """
    _require_circle_valued(f)
    spec = f.spec
    ac = autocorrelation(f)
    zero = spec.ctx.zero
    # index 0 is the identity element in canonical order; its direction is exempt
    failing = tuple(
        spec.element_at(i) for i, v in enumerate(ac.values) if i and v != zero
    )
    return BentReport(not failing, ft(ac).values, failing)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo prime p; caller guarantees a is a residue.

    For p = 2 the root is a itself; for p % 4 == 3 the closed form
    a^((p+1)/4) is used; otherwise Tonelli-Shanks, tie-broken to the
    smaller representative in [0, p).
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks: write p - 1 = t * 2^e with t odd.
    t, e = p - 1, 0
    while t % 2 == 0:
        t //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, t, p)
    x = pow(a, (t + 1) // 2, p)
    r = pow(a, t, p)
    m = e
    while r != 1:
        i = 0
        probe = r
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        r = r * b % p * b % p
        c = b * b % p
        m = i
    return min(x, p - x)


def dual_bent(f: ScalarFunction) -> ScalarFunction:
    """The dual of a bent f: its spectrum scaled by the inverse square root
    of |G| mod p.  Requires |G| mod p to be a quadratic residue when p >= 3."""
    spec = f.spec
    ctx = spec.ctx
    p = ctx.p
    c = spec.order_mod_p
    report = is_bent_spectral(f)
    if not report.is_bent:
        raise NotBent(
            f"dual requires a bent input; fails at {len(report.failing_points)} points",
            witness=report.failing_points[0],
        )
    if p >= 3 and pow(c, (p - 1) // 2, p) != 1:
        raise NotQuadraticResidue(
            f"|G| mod p = {c} is not a square modulo {p}", witness=c
        )
    root = _sqrt_mod_prime(c, p)
    scale = ctx.from_int(pow(root, -1, p))
    values = tuple(scale * v for v in ft(f).values)
    return ScalarFunction(spec, values)


def mm_construct(g: ScalarFunction) -> ScalarFunction:
    """Lift any circle-valued g on G to the bent table
    (x, y) -> chi_x(y) g(y) on G x G."""
    _require_circle_valued(g)
    spec = g.spec
    spec2 = make_group(spec.ctx, spec.factors + spec.factors)
    elems = list(spec.elements())
    values = tuple(
        character_value(spec, x, y) * g.at(y) for x in elems for y in elems
    )
    return ScalarFunction(spec2, values)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive search: subgroup order, number of candidate
    tables examined, and the bent exponent tables in enumeration order."""

    d: int
    candidates: int
    tables: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.tables)


class _SearchKernel:
    """Derivative-criterion bent test specialized to exponent tables.

    A candidate x -> u_d^(e[x]) has derivative values u_d^(e[a+x] - e[x]),
    so the autocorrelation at direction a is determined by the multiset of
    exponent differences; the test counts them and checks that the weighted
    sum of u_d powers vanishes coordinate by coordinate.
    """

    def __init__(self, spec: GroupSpec, d: int):
        ctx = spec.ctx
        ud = ctx.circle_subgroup_generator(d)
        self.d = d
        self.p = ctx.p
        self.n_points = spec.order
        self.width = ctx.width
        elems = list(spec.elements())
        index = {x: i for i, x in enumerate(elems)}
        self.add_rows = [
            [index[spec.add(a, x)] for x in elems] for a in elems
        ]
        powers = [(ud**j).coeffs for j in range(d)]
        self.coord_cols = [[powers[j][t] for j in range(d)] for t in range(self.width)]

    def is_bent(self, e: Sequence[int]) -> bool:
        d, p = self.d, self.p
        for row in self.add_rows[1:]:
            counts = [0] * d
            for x in range(self.n_points):
                counts[(e[row[x]] - e[x]) % d] += 1
            for col in self.coord_cols:
                if sum(c * w for c, w in zip(counts, col)) % p:
                    break
            else:
                continue
            return False
        return True

    def run(self, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        free = self.n_points - len(prefix)
        found = []
        for suffix in itertools.product(range(self.d), repeat=free):
            e = prefix + suffix
            if self.is_bent(e):
                found.append(e)
        return found


_WORKER_KERNEL: Optional[_SearchKernel] = None


def _init_search_worker(p, n, modulus, factors, d):
    from .field import make_context

    global _WORKER_KERNEL
    ctx = make_context(p, n, modulus)
    _WORKER_KERNEL = _SearchKernel(make_group(ctx, factors), d)


def _run_search_block(prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
    return _WORKER_KERNEL.run(prefix)


def iter_bent_tables(spec: GroupSpec, d: int) -> Iterator[tuple[int, ...]]:
    """Lazily yield the bent exponent tables in enumeration order."""
    kernel = _SearchKernel(spec, d)
    for e in itertools.product(range(d), repeat=spec.order):
        if kernel.is_bent(e):
            yield e


def search_bent(
    spec: GroupSpec,
    d: int,
    max_candidates: int = 1_000_000,
    jobs: int = 1,
) -> SearchResult:
    """Enumerate every table G -> S_d and keep the bent ones.

    Candidates are exponent tables in mixed-radix order (first point most
    significant).  With jobs > 1 the space is split by leading digits
    across worker processes and the blocks are merged back in order, so the
    result does not depend on the worker count.
    """
    ctx = spec.ctx
    ctx.circle_subgroup_generator(d)  # validates d | s
    total = d**spec.order
    if total > max_candidates:
        raise BudgetExceeded(
            f"{total} candidates exceed the budget of {max_candidates}", witness=total
        )
    if jobs <= 1 or total <= jobs:
        tables = tuple(_SearchKernel(spec, d).run(()))
        return SearchResult(d, total, tables)

    # Imported here so that only a parallel search loads the process pool.
    from concurrent.futures import ProcessPoolExecutor

    depth = 0
    while d**depth < jobs and depth < spec.order:
        depth += 1
    prefixes = list(itertools.product(range(d), repeat=depth))
    found: list[tuple[int, ...]] = []
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_search_worker,
        initargs=(ctx.p, ctx.n, ctx.modulus, spec.factors, d),
    ) as pool:
        for block in pool.map(_run_search_block, prefixes):
            found.extend(block)
    return SearchResult(d, total, tuple(found))
