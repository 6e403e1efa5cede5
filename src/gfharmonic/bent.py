"""Bent functions for circle-valued tables on admissible groups.

A circle-valued f is bent when every spectral value ft(f)(alpha) has norm
equal to |G| mod p.  Equivalently, the derivative sums
sum_x f(alpha + x) conj(f(x)) vanish for every nonzero direction alpha;
both routes are implemented and kept independent so they can cross-check
each other.  The module also builds duals, the product-group construction
f(x, y) = chi_x(y) g(y), and an exhaustive search over subgroup-valued
tables.  The spectral test and the dual run on codes: the transform
kernel (fourier._transform), the norm codes (field._norms) and the
comparison with |G| mod p, whose code is itself; a FieldElement is built
only for each value returned.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from typing import Sequence

from .characters import Record, ScalarFunction
from .errors import (
    BudgetExceeded,
    HarmonicError,
    NotBent,
    NotCircleValued,
    NotQuadraticResidue,
    TooLarge,
)
from .field import FieldContext, FieldElement, _minimal_polynomial, _norm_sums, _poly_rem
from .fourier import _correlate, _scalar, _transform, ft
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
    return _spectral(f.spec, f._columns())[1]


def _spectral(spec: GroupSpec, columns: list[list[int]]) -> tuple[list[list[int]], BentReport]:
    """The transforms of the coordinate columns of codes of a table, and the
    spectral verdict on them: every norm sum must be |G| mod p, whose code is
    itself."""
    ctx = spec.ctx
    spectra = _transform(spec, columns, 1, 1)
    norms = _norm_sums(ctx, spectra)
    failing = tuple(itertools.compress(spec.elements(), map(spec.order_mod_p.__ne__, norms)))
    return spectra, BentReport(not failing, tuple([FieldElement(ctx, v) for v in norms]), failing)


def derivative(f: ScalarFunction, alpha: Sequence[int]) -> ScalarFunction:
    """Directional derivative: x -> f(alpha + x) * conj(f(x))."""
    row = f.spec.translate_row(alpha)
    values = tuple(f.values[y] * v.conjugate() for y, v in zip(row, f.values))
    return ScalarFunction(f.spec, values)


def autocorrelation(f: ScalarFunction) -> ScalarFunction:
    """alpha -> sum_x f(alpha + x) * conj(f(x))."""
    codes = f._columns()[0]
    return _correlate(f.spec, [(codes, codes)], f.spec.ctx.sqrt_q)


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
    # index 0 is the identity element in canonical order; its direction is exempt
    directions = itertools.islice(spec.elements(), 1, None)
    failing = tuple(itertools.compress(directions, [v.code for v in ac.values[1:]]))
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
    (spectrum,), report = _spectral(spec, f._columns())
    if not report.is_bent:
        raise NotBent(
            f"dual requires a bent input; fails at {len(report.failing_points)} points",
            witness=report.failing_points[0],
        )
    if p >= 3 and pow(c, (p - 1) // 2, p) != 1:
        raise NotQuadraticResidue(
            f"|G| mod p = {c} is not a square modulo {p}", witness=c
        )
    # The scale 1 / sqrt(c) multiplies by adding its log; bent spectra have no zero.
    exp, log, q1 = ctx._exp, ctx._log, ctx.q - 1
    shift = log[pow(_sqrt_mod_prime(c, p), -1, p)]
    return _scalar(spec, [exp[(log[x] + shift) % q1] for x in spectrum])


def mm_construct(g: ScalarFunction) -> ScalarFunction:
    """Lift any circle-valued g on G to the bent table
    (x, y) -> chi_x(y) g(y) on G x G."""
    _require(g.circle_witness(), NotCircleValued, "norm")
    spec = g.spec
    spec2 = make_group(spec.ctx, spec.factors + spec.factors)
    spec2._check_work(sum(spec2.dims))  # an output table that ft would refuse
    # chi_x(y) g(y) = g^(step k + log g(y)), for chi_x(y) = u^k and u = g^step.
    ctx = spec.ctx
    exp, step, q1 = ctx._exp, ctx._step, ctx.q - 1
    logs = [ctx._log[v.code] for v in g.values]
    codes = [
        exp[(step * k + b) % q1] for x in spec.elements() for k, b in zip(spec.exponent_row(x), logs)
    ]
    return _scalar(spec2, codes)


# A search starts one worker per BLOCK normalized tables, and none below 2 * BLOCK.
# Measured on a 2-vCPU VM with Python 3.11: cold `gfharmonic search` processes
# at `--jobs 1` and `--jobs 2` with a pool of two, in alternating pairs, with
# the medians of two or three rounds of 12 pairs in ms.  `--jobs 2` was faster
# on Z_4^2/GF(9), d = 2 (8192 normalized tables) in 2 pairs of 24 (91-123 ->
# 111-156); on Z_2 x Z_6/GF(25), d = 3 (59049) in 12 of 36 (126-175 ->
# 155-184); on Z_18/GF(17^2), d = 2 (65536) in 23 of 36 (151-198 -> 176-196);
# on Z_8/GF(79^2), d = 5 (78125) in 4 of 36 (141-156 -> 150-168); and on
# Z_19/GF(37^2), d = 2 (262144), the one space of the default budget past
# 2 * 65536, in 24 of 24 (457-521 -> 323-348).  The pool pays for its start-up
# by the kernel's work, not by the table count alone: Z_8's tables are cheap.
# So BLOCK is the least power of two whose 2 * BLOCK lies past every space
# where the pool lost.  Any positive BLOCK is correct: the workers split the
# heads of `run` by stride, so no worker count decides a table twice or leaves
# one out.
BLOCK = 65536

# The default budget of a search, and of `compare --exhaustive`, in tables.
MAX_CANDIDATES = 1_000_000

# The search kernel holds fewer than |G| translation rows of |G| entries.  With
# d >= 2 the d^|G| tables exceed any feasible budget long before |G| = 64, so
# only d = 1 (a single table) reaches larger groups; the bound keeps the rows
# of any search to at most 2^16 entries.  It also keeps d <= 256 when |G| >= 2,
# so that every entry of a table but the first fits a byte: d | p^n + 1 <= 257,
# and d = 257 (over GF(2^16)) leaves only Z_1 factors, since Z_257 is too large.
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


def _field_verdict(ctx: FieldContext, d: int) -> tuple[list[int], int]:
    """(mu_d, p): the minimal polynomial of u_d, dividing counts over GF(p); checks d | s."""
    return _minimal_polynomial(ctx.circle_subgroup_generator(d)), ctx.p


def _passes(spec: GroupSpec, e: Sequence[int], d: int, verdict: tuple[Sequence[int], int]) -> bool:
    """Whether verdict holds along every row of e: G -> Z_d; stops at the first
    that fails.  Row a counts c_a[j] = #{x : e[a+x] - e[x] = j mod d}
    (`GroupSpec._difference_counts`), and c_a(w), w of order d, is the
    autocorrelation at a.  verdict is (divisor, p): c_a passes when the monic
    divisor divides it over GF(p), or over Z when p is 0: (mu_d, p) for the
    field (`_field_verdict`), (Phi_d, 0) classically.  Both vanish at 1/w with
    w (1/u_d = u_d^(p^n) is a conjugate), and c_{-a}(w) = c_a(1/w), so one row
    of each pair {a, -a} is counted.  Each count vector is decided once."""
    verdicts: dict[tuple[int, ...], bool] = {}
    for counts in spec._difference_counts(e, d):
        ok = verdicts.get(counts)
        if ok is None:
            ok = verdicts[counts] = not any(_poly_rem(counts, *verdict))
        if not ok:
            return False
    return True


class _SearchKernel:
    """The verdict of `_passes`, with every row built once, over one normalized
    table per orbit of e -> e + c + h, for a constant c and a homomorphism
    h: G -> Z_d.  At a, e + c + h has the differences of e plus h(a), which
    multiplies c_a by x^h(a) mod x^d - 1 and keeps either verdict.  h_j at
    each coordinate generator g_j is a multiple of d / gcd(d, d_j).  These
    d * prod gcd(d, d_j) shifts act freely, and each orbit holds exactly one
    normalized table: e[0] = 0 and e[g_j] < d / gcd(d, d_j) at each g_j.

    The tables that differ only at the last point z = |G| - 1 are decided
    together.  A row a reads e[z] in two terms, x = z and x = z - a, so its
    packed counts for e[z] = v are the row sum with e[z] = 0 plus two lane
    vectors indexed by v, looked up by e[a + z] and by e[z - a].  Each packed
    count vector is decided once, in `verdicts`.
    """

    def __init__(self, spec: GroupSpec, d: int, verdict: tuple[Sequence[int], int]):
        self.d, self.verdict = d, verdict
        self.verdicts: dict[int, bool] = {}
        # lanes[e[a+x] - e[x]] counts one in the lane of that difference mod d.
        self.lane_bits = spec.order.bit_length()
        self.lanes = [1 << (self.lane_bits * j) for j in range(d)]
        # ranges[i] lists the values point i takes in a normalized table.
        self.ranges = [range(1)] + [range(d)] * (spec.order - 1)
        homs = []
        for dj, stride in zip(spec.dims, spec._strides):
            g = math.gcd(d, dj)
            if g > 1:
                self.ranges[stride] = range(d // g)
            homs.append([[k * (d // g) * x for x in range(dj)] for k in range(g)])
        self.normalized = math.prod(map(len, self.ranges))
        # Each h past point 0 (h(0) = 0), a byte per point (see MAX_SEARCH_ORDER).
        self.shifts = [bytes(h % d for h in _outer_sum(p)[1:]) for p in itertools.product(*homs)]
        # Each row with the indices of a + z and z - a, where it reads e[z].
        z, lanes = spec.order - 1, self.lanes
        self.rows = []
        for a in spec.directions_up_to_sign():
            row = spec.translate_row(a)
            self.rows.append((operator.itemgetter(*row), row[z], row.index(z)))
        # into[k][v] moves the term e[a + z] - e[z] from k - 0 to k - v, and
        # out_of[k][v] the term e[z] - e[z - a] from 0 - k to v - k.
        self.into = [[lanes[k - v] - lanes[k] for v in self.ranges[z]] for k in range(d)]
        self.out_of = [[lanes[v - k] - lanes[-k] for v in self.ranges[z]] for k in range(d)]

    def run(self, start: int = 0, step: int = 1) -> list[tuple[int, ...]]:
        """The normalized tables that pass the verdict, from every step-th head
        from head start.  A head is a normalized table with e[z] = 0, and the
        heads come in mixed-radix order; so the parts of start = 0, .., step - 1
        hold every table once, for any step."""
        z, d, bits = len(self.ranges) - 1, self.d, self.lane_bits
        mask, offsets = (1 << bits) - 1, range(0, bits * d, bits)
        lane, get, verdicts, found = self.lanes.__getitem__, self.verdicts.get, self.verdicts, []
        rows, into, out_of = self.rows, self.into, self.out_of
        heads = itertools.islice(itertools.product(*self.ranges[:z], range(1)), start, None, step)
        for e in heads:
            values = self.ranges[z]
            for row, i, j in rows:
                base = sum(map(lane, map(operator.sub, row(e), e)))
                moved_in, moved_out, kept = into[e[i]], out_of[e[j]], []
                for v in values:
                    packed = base + moved_in[v] + moved_out[v]
                    ok = get(packed)
                    if ok is None:
                        counts = [packed >> k & mask for k in offsets]
                        ok = verdicts[packed] = not any(_poly_rem(counts, *self.verdict))
                    if ok:
                        kept.append(v)
                values = kept
                if not values:
                    break
            else:  # some value passed every row
                found.extend(e[:z] + (v,) for v in values)
        return found

    def expand(self, normalized: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Every shift of the given normalized tables, in mixed-radix order, with
        no Python step per table.  Point 0 of e + c + h is c, the other w = |G| - 1
        bytes: one translate per h adds h to a point's column, which fills every
        w-th byte of a buffer of rows; one translate per c adds c, and the rows are
        sorted (memcmp order is mixed-radix order), joined and cut into columns."""
        d, w, n = self.d, len(self.ranges) - 1, len(normalized) * len(self.shifts)
        ring = bytes(range(min(d, 256))) * (256 // d + 2)  # ring[s + v] = (s + v) % d, v < d
        adds = [ring[s : s + 256] for s in range(d)]  # the translate tables of + s
        columns, buf = list(map(bytes, zip(*normalized)))[1:], bytearray(n * w)
        for i, (column, hs) in enumerate(zip(columns, zip(*self.shifts))):
            buf[i::w] = b"".join(map(column.translate, map(adds.__getitem__, hs)))
        tails = bytes(buf)  # bytes, not bytearray: their slices sort twice as fast
        # Each row's slice, by count and not range, so that w = 0 gives n empty rows.
        rows = list(map(slice, itertools.islice(itertools.count(0, w), n), itertools.count(w, w)))
        found: list[tuple[int, ...]] = []
        for c in range(d):
            block = b"".join(sorted(map(tails.translate(adds[c]).__getitem__, rows)))
            found.extend(zip(itertools.repeat(c, n), *(block[i::w] for i in range(w))))
        return found


def _search(
    spec: GroupSpec, d: int, verdict: tuple[Sequence[int], int], budget: int, jobs: int
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
    workers = min(jobs, kernel.normalized // BLOCK)
    if workers > 1:  # only a search that may start a pool asks for the cpu count
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        found = kernel.run()
    else:
        # Imported here so that only a search big enough for workers loads the pool.
        from concurrent.futures import ProcessPoolExecutor

        # Each part carries the parent's kernel, so a worker builds no field or group.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(functools.partial(kernel.run, step=workers), range(workers))
            found = list(itertools.chain.from_iterable(parts))
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
    normalized // BLOCK) workers split them by stride: worker k decides
    every workers-th head from head k (`_SearchKernel.run`).  The result
    does not depend on jobs.
    """
    return _search(spec, d, _field_verdict(spec.ctx, d), max_candidates, jobs)
