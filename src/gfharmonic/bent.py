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

import functools
import itertools
import math
import operator
import os
from typing import Callable, Iterable, Iterator, Sequence

from .characters import Record, ScalarFunction
from .errors import (
    BudgetExceeded,
    HarmonicError,
    NotBent,
    NotCircleValued,
    NotQuadraticResidue,
    TooLarge,
)
from .field import FieldContext, FieldElement
from .fourier import _correlate, ft
from .group import GroupElement, GroupSpec, _outer_sum, make_group


class BentReport(Record):
    """Outcome of a bentness test: verdict, the per-direction norm table of
    the spectrum, and the points where the test failed (empty iff bent)."""

    __slots__ = ("is_bent", "spectrum_norms", "failing_points")
    is_bent: bool
    spectrum_norms: tuple[FieldElement, ...]
    failing_points: tuple[GroupElement, ...]


def _require(witness: GroupElement | None, error: type[HarmonicError], what: str) -> None:
    """Raise error at witness, the first point whose value has `what` != 1."""
    if witness is not None:
        raise error(f"value at {list(witness)} has {what} != 1", witness=witness)


def is_bent_spectral(f: ScalarFunction) -> BentReport:
    """Bentness by definition: norm(ft(f)(alpha)) == |G| mod p for all alpha."""
    _require(f.circle_witness(), NotCircleValued, "norm")
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
    _require(f.circle_witness(), NotCircleValued, "norm")
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
    _require(f.circle_witness(), NotCircleValued, "norm")
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
    _require(g.circle_witness(), NotCircleValued, "norm")
    spec = g.spec
    spec2 = make_group(spec.ctx, spec.factors + spec.factors)
    spec2._check_work(sum(spec2.dims))  # an output table that ft would refuse
    circle = spec.ctx.circle()
    values = tuple(
        circle[k] * v for x in spec.elements() for k, v in zip(spec.exponent_row(x), g.values)
    )
    return ScalarFunction(spec2, values)


# A search starts one worker per BLOCK normalized tables, and none below 2 * BLOCK.
# Measured on a 2-vCPU VM with Python 3.11, on Z_4^2 over GF(9) with d = 2: a
# cold `gfharmonic search --jobs 2` process takes a median 11 ms (quartiles
# 4-21 ms, two sets of 30 pairs) longer than `--jobs 1` to import the process
# pool and start two workers that receive the kernel.  Per-direction count
# lists decided a normalized table in 2.7-3.2 us there (also Z_3^2 with d = 3);
# the packed kernel is about 2 and 3 times as fast (the two timed alternately),
# so a worker pays for its start-up at about 11 ms / 1.3 us ~ 8500 tables, and
# the nearest power of two is 8192.  BLOCK stays 4096 while no benchmark
# workload starts a pool, since no benchmark could then show what a change does.
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


def _direction_rows(spec: GroupSpec) -> Iterator[operator.itemgetter]:
    """Getters of e[a + x] for every x, one per pair {a, -a} of directions,
    each built when it is reached.  |G| >= 2 here, so each returns a tuple."""
    return (operator.itemgetter(*spec.translate_row(a)) for a in spec.directions_up_to_sign())


def _vanishes(cols: list[tuple[int, ...]], p: int, counts: list[int]) -> bool:
    return not any(sum(map(operator.mul, counts, col)) % p for col in cols)


def _field_verdict(ctx: FieldContext, d: int) -> Callable[[list[int]], bool]:
    """Whether sum_j c[j] u_d^j = 0 in GF(q), for counts c; checks that d | s."""
    ud = ctx.circle_subgroup_generator(d)
    return functools.partial(_vanishes, list(zip(*((ud**j).coeffs for j in range(d)))), ctx.p)


class _CountKernel:
    """A verdict on the counts c_a[j] = #{x : e[a+x] - e[x] = j mod d} of
    tables e: G -> Z_d, whose autocorrelation at a is sum_j c_a[j] w^j for w
    of order d.  `verdict` (picklable: pool workers receive the kernel)
    decides whether that vanishes: at u_d for the field (`_field_verdict`),
    at every primitive d-th root of unity classically.  Both hold at w iff
    at 1/w, and c_{-a}[j] = c_a[-j mod d], so one row of each pair {a, -a}
    is counted.  A row's counts are summed at C level into one int, a lane
    of |G|.bit_length() bits per class; each distinct sum is decided once.
    """

    def __init__(self, order: int, d: int, verdict: Callable[[list[int]], bool]):
        self.d, self.verdict = d, verdict
        # lanes[e[a+x] - e[x]] counts one in the lane of that difference mod d.
        self.lane_bits = order.bit_length()
        self.lanes = [1 << (self.lane_bits * j) for j in range(d)]
        self.verdicts: dict[int, bool] = {}

    def holds(self, e: Sequence[int], rows: Iterable[operator.itemgetter]) -> bool:
        """Whether the verdict holds along every row; stops at the first that fails."""
        lane, verdicts = self.lanes.__getitem__, self.verdicts
        for row in rows:
            packed = sum(map(lane, map(operator.sub, row(e), e)))
            ok = verdicts.get(packed)
            if ok is None:
                mask = (1 << self.lane_bits) - 1
                counts = [packed >> (self.lane_bits * j) & mask for j in range(self.d)]
                ok = verdicts[packed] = self.verdict(counts)
            if not ok:
                return False
        return True


class _SearchKernel(_CountKernel):
    """The count kernel, with every row built once, over one normalized table
    per orbit of e -> e + c + h, for a constant c and a homomorphism
    h: G -> Z_d.  At a, e + c + h has the differences of e plus h(a), which
    multiplies c_a by x^h(a) mod x^d - 1 and keeps either verdict.  h_j at
    each coordinate generator g_j is a multiple of d / gcd(d, d_j).  These
    d * prod gcd(d, d_j) shifts act freely, and each orbit holds exactly one
    normalized table: e[0] = 0 and e[g_j] < d / gcd(d, d_j) at each g_j.
    """

    def __init__(self, spec: GroupSpec, d: int, verdict: Callable[[list[int]], bool]):
        super().__init__(spec.order, d, verdict)
        self.rows = list(_direction_rows(spec))
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

    def run(self, prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The normalized tables that start with prefix and pass the verdict."""
        tables = (prefix + suffix for suffix in itertools.product(*self.ranges[len(prefix):]))
        return [e for e in tables if self.holds(e, self.rows)]

    def expand(self, normalized: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Every shift of the given normalized tables, in mixed-radix order."""
        mod_d = tuple(range(self.d)) * 2  # a + b < 2d for a, b in Z_d
        return sorted(
            tuple(map(mod_d.__getitem__, map(operator.add, e, s)))
            for e in normalized
            for s in self.shifts
        )


def _search(
    spec: GroupSpec, d: int, verdict: Callable[[list[int]], bool], budget: int, jobs: int
) -> SearchResult:
    """Every table G -> Z_d whose difference counts pass verdict.  |G| is
    bounded first (so d^|G|, d | p^n + 1 <= 257, has at most 617 digits), then
    d^|G| by budget, before any row is built; workers as `search_bent` says."""
    if spec.order > MAX_SEARCH_ORDER:
        raise TooLarge(
            f"group order {spec.order} exceeds the search bound {MAX_SEARCH_ORDER}",
            witness={"order": spec.order, "max_order": MAX_SEARCH_ORDER},
        )
    total = d**spec.order
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidates exceed the budget of {budget}", witness=total
        )
    kernel = _SearchKernel(spec, d, verdict)
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
    tables each), are tested; each bent one is expanded by its orbit and the
    result sorted into mixed-radix order (first point most significant).
    Worker processes start only when jobs > 1 and there are at least
    2 * BLOCK normalized tables: then min(jobs, os.cpu_count(),
    normalized // BLOCK) workers split them by leading positions.  The
    result does not depend on jobs.
    """
    return _search(spec, d, _field_verdict(spec.ctx, d), max_candidates, jobs)
