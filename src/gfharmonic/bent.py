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
from typing import Iterable, Sequence

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
    _require_circle_valued(f)
    spectrum = ft(f).values
    report = _spectral_report(spec, tuple(v.norm() for v in spectrum))
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
    values = tuple(scale * v for v in spectrum)
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


# Measured on a 2-vCPU VM with Python 3.11, on Z_4^2 over GF(9) with d = 2: a
# cold `gfharmonic search --jobs 2` process takes a median 11 ms (quartiles
# 4-21 ms, two sets of 30 pairs) longer than `--jobs 1` to import the process
# pool and start two workers that receive the kernel.  Per-direction count
# lists decided a normalized table in 2.7-3.2 us there (also Z_3^2 with d = 3);
# the packed kernel is about 2 and 3 times as fast (the two timed alternately),
# so a worker pays for its start-up at about 11 ms / 1.3 us ~ 8500 tables, and
# the power of two below is 8192.  BLOCK keeps the 4096 set when each worker
# rebuilt the field until a pooled benchmark workload measures it.
# A search starts one worker per BLOCK normalized tables, and none below 2 * BLOCK.
BLOCK = 4096

# The default budget of a search, and of `compare --exhaustive`, in tables.
MAX_CANDIDATES = 1_000_000

# The search kernel holds fewer than |G| translation rows of |G| entries.  With
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
    so the autocorrelation at direction a is sum_j c_a[j] u_d^j, where c_a
    counts the exponent differences mod d.  c_{-a}[j] = c_a[-j mod d] and u_d^-1
    is the Frobenius image of u_d, so a and -a agree and one of each pair is
    checked.  A row's counts are summed at C level into one int, |G|.bit_length()
    bits per difference class; each distinct sum (at most one per composition of
    |G| into d parts) is decided once and kept in the kernel's own `verdicts`.

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
        # A nonzero direction needs |G| >= 2, so each getter returns a tuple.
        rows = map(spec.translate_row, spec.directions_up_to_sign())
        self.rows = [operator.itemgetter(*row) for row in rows]
        powers = [(ud**j).coeffs for j in range(d)]
        self.coord_cols = [[powers[j][t] for j in range(d)] for t in range(ctx.width)]
        # lanes[e[a+x] - e[x]] counts one in the lane of that difference mod d.
        self.lane_bits = spec.order.bit_length()
        self.lanes = [1 << (self.lane_bits * j) for j in range(d)]
        self.verdicts: dict[int, bool] = {}

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

    def _vanishes(self, packed: int) -> bool:
        """Whether sum_j c[j] u_d^j = 0 for the counts c packed in lanes."""
        mask = (1 << self.lane_bits) - 1
        counts = [packed >> (self.lane_bits * j) & mask for j in range(self.d)]
        return not any(sum(c * w for c, w in zip(counts, col)) % self.p for col in self.coord_cols)

    def is_bent(self, e: Sequence[int]) -> bool:
        lane, verdicts = self.lanes.__getitem__, self.verdicts
        for row in self.rows:
            packed = sum(map(lane, map(operator.sub, row(e), e)))
            vanishes = verdicts.get(packed)
            if vanishes is None:
                vanishes = verdicts[packed] = self._vanishes(packed)
            if not vanishes:
                return False
        return True

    def run(self, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The bent normalized tables that start with prefix."""
        tables = (prefix + suffix for suffix in itertools.product(*self.ranges[len(prefix):]))
        return [e for e in tables if self.is_bent(e)]

    def expand(self, normalized: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Every shift of the given normalized tables, in mixed-radix order."""
        mod_d = tuple(range(self.d)) * 2  # a + b < 2d for a, b in Z_d
        return sorted(
            tuple(map(mod_d.__getitem__, map(operator.add, e, s)))
            for e in normalized
            for s in self.shifts
        )


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
    spec.ctx.circle_subgroup_generator(d)  # validates d | s
    total = _check_tables(spec, d, max_candidates)
    kernel = _SearchKernel(spec, d)
    workers = min(jobs, os.cpu_count() or 1, kernel.normalized // BLOCK)
    if workers <= 1:
        return SearchResult(d, total, tuple(kernel.expand(kernel.run(()))))

    # Imported here so that only a search big enough for workers loads the pool.
    from concurrent.futures import ProcessPoolExecutor

    depth, blocks = 0, 1
    while blocks < workers:
        blocks *= len(kernel.ranges[depth])
        depth += 1
    prefixes = list(itertools.product(*kernel.ranges[:depth]))
    # Each block carries the parent's kernel, so a worker builds no field or group.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        found = list(itertools.chain.from_iterable(pool.map(kernel.run, prefixes)))
    return SearchResult(d, total, tuple(kernel.expand(found)))
