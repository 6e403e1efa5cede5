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
import math
import operator
import os
from typing import Iterable, Iterator, Optional, Sequence

from .characters import Record, ScalarFunction
from .errors import (
    BudgetExceeded,
    NotBent,
    NotCircleValued,
    NotQuadraticResidue,
    TooLarge,
)
from .field import FieldElement
from .fourier import _correlate, ft
from .group import GroupElement, GroupSpec, _outer_sum, make_group


class BentReport(Record):
    """Outcome of a bentness test: verdict, the per-direction norm table of
    the spectrum, and the points where the test failed (empty iff bent)."""

    __slots__ = ("is_bent", "spectrum_norms", "failing_points")
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
    return _spectral_report(f.spec, tuple(v.norm() for v in ft(f).values))


def _spectral_report(spec: GroupSpec, norms: tuple[FieldElement, ...]) -> BentReport:
    """The spectral verdict from a norm table: every norm must be |G| mod p."""
    target = spec.ctx.from_int(spec.order_mod_p)
    failing = tuple(
        spec.element_at(i) for i, v in enumerate(norms) if v != target
    )
    return BentReport(not failing, norms, failing)


def derivative(f: ScalarFunction, alpha: Sequence[int]) -> ScalarFunction:
    """Directional derivative: x -> f(alpha + x) * conj(f(x))."""
    row = f.spec.translate_row(alpha)
    values = tuple(f.values[y] * v.conjugate() for y, v in zip(row, f.values))
    return ScalarFunction(f.spec, values)


def autocorrelation(f: ScalarFunction) -> ScalarFunction:
    """alpha -> sum_x f(alpha + x) * conj(f(x))."""
    return _correlate(f.spec, [(f.values, tuple(v.conjugate() for v in f.values))])


def is_bent_autocorr(f: ScalarFunction) -> BentReport:
    """Bentness by the derivative criterion: all nonzero-direction
    autocorrelations vanish.

    The reported norm table is ft(AC_f), which coincides with the spectrum
    norms without ever computing ft(f) itself, so the two reports stay on
    independent computational routes.
    """
    _require_circle_valued(f)
    return _derivative_report(autocorrelation(f))


def _derivative_report(ac: ScalarFunction) -> BentReport:
    """The derivative verdict from an autocorrelation table, with ft(ac) as
    the norm table."""
    spec = ac.spec
    zero = spec.ctx.zero
    # index 0 is the identity element in canonical order; its direction is exempt
    failing = tuple(
        spec.element_at(i) for i, v in enumerate(ac.values) if i and v != zero
    )
    return BentReport(not failing, ft(ac).values, failing)


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo prime p; caller guarantees a is a residue.

    For p % 4 == 3 the closed form a^((p+1)/4), not always the smaller root,
    is used; otherwise the smallest root in [0, p), found by trying each as
    q <= MAX_Q bounds p by 256.  The values of dual_bent depend on this choice.
    """
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    return min(r for r in range(p) if r * r % p == a)


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
    circle = spec.ctx.circle()
    values = tuple(
        circle[k] * v for x in spec.elements() for k, v in zip(spec.exponent_row(x), g.values)
    )
    return ScalarFunction(spec2, values)


# Measured on a 2-vCPU VM with Python 3.11: a cold `gfharmonic search --jobs 2`
# process takes a median 16 ms (quartiles 10-28 ms, 30 pairs) longer than
# `--jobs 1` to import the process pool and fork and initialize two workers,
# and the kernel decides a normalized table in 2.6-3.0 us (Z_3^2 with d = 3,
# Z_4^2 with d = 2).  So a worker pays for its start-up at about
# 16 ms / 2.8 us ~ 5900 tables; BLOCK is the power of two below that.  A search
# starts one worker per BLOCK normalized tables, and none below 2 * BLOCK.
BLOCK = 4096

# The default budget of a search, and of `compare --exhaustive`, in tables.
MAX_CANDIDATES = 1_000_000

# The search kernel holds |G| translation rows of |G| entries each.  With
# d >= 2 the d^|G| tables exceed any feasible budget long before |G| = 64, so
# only d = 1 (a single table) reaches larger groups; the bound keeps the rows
# of any search to at most 2^16 entries.
MAX_SEARCH_ORDER = 256


class SearchResult(Record):
    """Outcome of an exhaustive search: the subgroup order d, the size
    d^|G| of the full candidate space, and every bent exponent table of that
    space in mixed-radix order.

    The search tests one normalized table per orbit of e -> e + c + h (see
    `_SearchKernel`) and expands the bent ones, so `candidates` counts every
    table decided, not the tables tested directly.
    """

    __slots__ = ("d", "candidates", "tables")
    d: int
    candidates: int
    tables: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.tables)


class _SearchKernel:
    """Derivative-criterion bent test specialized to exponent tables, over
    one normalized table per orbit of the shifts e -> e + c + h.

    A candidate x -> u_d^(e[x]) has derivative values u_d^(e[a+x] - e[x]),
    so the autocorrelation at direction a is determined by the multiset of
    exponent differences; the test counts them and checks that the weighted
    sum of u_d powers vanishes coordinate by coordinate.

    For a constant c and a homomorphism h: G -> Z_d, the differences of
    e + c + h at direction a are those of e plus h(a), so the verdict is the
    same.  h is fixed by its values h_j at the coordinate generators, which
    are the multiples of d / gcd(d, d_j).  These d * prod gcd(d, d_j) shifts
    act freely, and each orbit holds exactly one normalized table: e[0] = 0
    and e[g_j] < d / gcd(d, d_j) at each generator g_j.
    """

    def __init__(self, spec: GroupSpec, d: int):
        ctx = spec.ctx
        ud = ctx.circle_subgroup_generator(d)
        self.d = d
        self.p = ctx.p
        self.n_points = spec.order
        self.width = ctx.width
        self.add_rows = [spec.translate_row(a) for a in spec.elements()]
        powers = [(ud**j).coeffs for j in range(d)]
        self.coord_cols = [[powers[j][t] for j in range(d)] for t in range(self.width)]

        # ranges[i] lists the values point i takes in a normalized table.
        self.ranges = [range(1)] + [range(d)] * (spec.order - 1)
        hom_parts = []
        for dj, stride in zip(spec.dims, spec._strides):
            g = math.gcd(d, dj)
            if g > 1:
                self.ranges[stride] = range(d // g)
            hom_parts.append([[k * (d // g) * x for x in range(dj)] for k in range(g)])
        self.normalized = math.prod(map(len, self.ranges))
        self.shifts = [
            tuple((c + h) % d for h in _outer_sum(parts))
            for c in range(d)
            for parts in itertools.product(*hom_parts)
        ]

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

    def run(self, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Yield the bent normalized tables that start with prefix."""
        for suffix in itertools.product(*self.ranges[len(prefix):]):
            e = prefix + suffix
            if self.is_bent(e):
                yield e

    def expand(self, normalized: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Every shift of the given normalized tables, in mixed-radix order."""
        mod_d = tuple(range(self.d)) * 2  # a + b < 2d for a, b in Z_d
        return sorted(
            tuple(map(mod_d.__getitem__, map(operator.add, e, s)))
            for e in normalized
            for s in self.shifts
        )


_WORKER_KERNEL: Optional[_SearchKernel] = None


def _init_search_worker(p, n, modulus, factors, d):
    from .field import make_context

    global _WORKER_KERNEL
    ctx = make_context(p, n, modulus)
    _WORKER_KERNEL = _SearchKernel(make_group(ctx, factors), d)


def _run_search_block(prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(_WORKER_KERNEL.run(prefix))


def _bent_tables(spec: GroupSpec, d: int, jobs: int) -> list[tuple[int, ...]]:
    """The bent tables of the full space in mixed-radix order; the normalized
    tables are tested inline, or split by leading positions across
    min(jobs, cpu count, normalized // BLOCK) workers when that is above 1."""
    kernel = _SearchKernel(spec, d)
    workers = min(jobs, os.cpu_count() or 1, kernel.normalized // BLOCK)
    if workers <= 1:
        return kernel.expand(kernel.run(()))

    # Imported here so that only a search big enough for workers loads the pool.
    from concurrent.futures import ProcessPoolExecutor

    depth, blocks = 0, 1
    while blocks < workers:
        blocks *= len(kernel.ranges[depth])
        depth += 1
    prefixes = list(itertools.product(*kernel.ranges[:depth]))
    ctx = spec.ctx
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_search_worker,
        initargs=(ctx.p, ctx.n, ctx.modulus, spec.factors, d),
    ) as pool:
        found = list(itertools.chain.from_iterable(pool.map(_run_search_block, prefixes)))
    return kernel.expand(found)


def _check_search(spec: GroupSpec, d: int, max_candidates: int) -> int:
    """Validate a search of the d^|G| tables G -> S_d before anything is
    built, and return their number."""
    spec.ctx.circle_subgroup_generator(d)  # validates d | s
    return _check_tables(spec, d, max_candidates)


def _check_tables(spec: GroupSpec, base: int, budget: int) -> int:
    """Return base^|G|, the number of tables G -> Z_base, unless |G| exceeds
    MAX_SEARCH_ORDER or that number exceeds budget.

    The order is bounded first, so the power has at most 617 digits (base
    divides p^n + 1 <= 257); with |G| unbounded the power itself runs away.
    """
    if spec.order > MAX_SEARCH_ORDER:
        raise TooLarge(
            f"group order {spec.order} exceeds the search bound {MAX_SEARCH_ORDER}",
            witness={"order": spec.order, "max_order": MAX_SEARCH_ORDER},
        )
    total = base**spec.order
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidates exceed the budget of {budget}", witness=total
        )
    return total


def iter_bent_tables(
    spec: GroupSpec, d: int, max_candidates: int = MAX_CANDIDATES
) -> Iterator[tuple[int, ...]]:
    """Yield the bent exponent tables in mixed-radix order.

    The tables come from the same serial search as `search_bent`, which runs
    in full before the first one is yielded; the same budget and group bound
    are checked before any table is tested.
    """
    _check_search(spec, d, max_candidates)
    yield from _bent_tables(spec, d, 1)


def search_bent(
    spec: GroupSpec,
    d: int,
    max_candidates: int = MAX_CANDIDATES,
    jobs: int = 1,
) -> SearchResult:
    """Find every bent table G -> S_d.

    The budget applies to the full space of d^|G| exponent tables, which is
    also what `candidates` reports; a group of more than MAX_SEARCH_ORDER
    elements raises TooLarge before any table is built.  Only the
    normalized tables, one per orbit of e -> e + c + h (d * prod gcd(d, d_j)
    tables each), are tested;
    each bent one is expanded by its orbit and the result sorted into
    mixed-radix order (first point most significant).  Worker processes
    start only when jobs > 1 and there are at least 2 * BLOCK normalized
    tables: then min(jobs, os.cpu_count(), normalized // BLOCK) workers
    split them by leading positions.  The result does not depend on jobs.
    """
    total = _check_search(spec, d, max_candidates)
    return SearchResult(d, total, tuple(_bent_tables(spec, d, jobs)))
