"""Finite Abelian groups of the admissible shape.

A group here is a product of cyclic factors Z_d, each repeated m times,
where every d divides the circle order p^n + 1 of the bound field context.
That divisibility is what lets the group embed into the field's unit
circle, and it forces |G| to be coprime to p.  Elements are flat tuples of
residues; the canonical enumeration order is mixed-radix with the first
factor most significant and the last coordinate varying fastest, and it is
the table order used by every function serialization.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from array import array
from typing import Iterator, Sequence

from .errors import InadmissibleFactor, ShapeMismatch, TooLarge
from .field import MAX_WORK, FieldContext

GroupElement = tuple[int, ...]

# GroupSpec accepts at most 2^MAX_LOG2_ORDER elements, checked on
# sum m * log2(d) before the coordinates are listed: a huge m forms neither a
# huge power nor a huge list, nor an order with too many digits to print.  A
# factor Z_1 counts as Z_2, so there are at most MAX_LOG2_ORDER coordinates.
MAX_LOG2_ORDER = 24

# The lane widths in bits, least first, and their struct and array formats.
_LANE_FORMATS = {8: "B", 16: "H", 32: "I"}

# Each byte as a bytes object: bytes.count finds one faster than an int.
_BYTES = [bytes((j,)) for j in range(256)]


def _lane_bits(top: int) -> int:
    """The least lane width in bits that holds every value up to top."""
    return next(b for b in _LANE_FORMATS if top < 1 << b)


def _lane_bytes(values: Sequence[int], bits: int) -> bytes:
    """Lanes of `bits` bits, lane i holding values[i], as little-endian bytes."""
    return struct.pack(f"<{len(values)}{_LANE_FORMATS[bits]}", *values)


def _pack_lanes(values: Sequence[int], bits: int) -> int:
    """One int of lanes of `bits` bits, lane i holding values[i] (least first)."""
    return int.from_bytes(_lane_bytes(values, bits), "little")


def _lanes(data: bytes, bits: int) -> Sequence[int]:
    """The values of the lanes of `bits` bits in data, least first: what
    `_lane_bytes` packed.  Bytes are their own lanes of 8 bits, read faster
    than any copy; wider lanes come as an array (it reads many short values
    faster than struct.unpack, which takes a format string per call)."""
    if bits == 8:
        return data
    lanes = array(_LANE_FORMATS[bits], data)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _unpack_lanes(x: int, bits: int, count: int) -> Sequence[int]:
    """The first `count` lanes of `bits` bits of x: the values that `_pack_lanes` packed."""
    return _lanes(x.to_bytes(bits // 8 * count, "little"), bits)


def _outer_sum(parts: Sequence[Sequence[int]]) -> list[int]:
    """Entry i is sum_j parts[j][x_j], where x is the i-th element in
    canonical mixed-radix order; parts[j] is indexed by the j-th coordinate."""
    out = [0]
    for part in parts:
        out = [a + b for a in out for b in part]
    return out


class GroupSpec:
    """A validated product of cyclic factors bound to a field context.  Specs
    are equal when their fields and coordinate moduli (`dims`) are: they list
    the same elements in the same order, however the factors are grouped."""

    def __init__(self, ctx: FieldContext, factors: Sequence[tuple[int, int]]):
        factors = tuple((int(d), int(m)) for d, m in factors)
        if not factors:
            raise InadmissibleFactor("at least one factor is required", witness=[])
        s = ctx.circle_order
        for d, m in factors:
            if m < 1:
                raise InadmissibleFactor(
                    f"factor multiplicity must be >= 1, got {m}", witness=m
                )
            if d < 1 or s % d:
                raise InadmissibleFactor(
                    f"cyclic order {d} does not divide the circle order {s}", witness=d
                )
        log2_order = sum(m * math.log2(max(d, 2)) for d, m in factors)
        if log2_order > MAX_LOG2_ORDER:
            raise TooLarge(
                f"group order 2^{log2_order:.2f} exceeds the bound 2^{MAX_LOG2_ORDER}",
                witness={"log2_order": round(log2_order, 2), "max_log2_order": MAX_LOG2_ORDER},
            )
        self.ctx = ctx
        self.factors = factors
        self.dims: GroupElement = tuple(
            itertools.chain.from_iterable([d] * m for d, m in factors)
        )
        self.order = math.prod(self.dims)
        # |G| is coprime to p because every d divides p^n + 1.
        self.order_mod_p = self.order % ctx.p
        self.inv_order_mod_p = pow(self.order_mod_p, -1, ctx.p)

        self._strides = tuple(math.prod(self.dims[i + 1:]) for i in range(len(self.dims)))
        # Exponent step of the circle generator per coordinate: a coordinate
        # with modulus d contributes multiples of s/d to character exponents.
        self.coord_steps = tuple(s // d for d in self.dims)
        # (bits, j, r) -> the shifts and masks of _difference_counts that add r
        # to coordinate j, each built when first needed.
        self._rotations: dict[tuple[int, int, int], tuple[int, int, int, int]] = {}
        self._directions: tuple[GroupElement, ...] | None = None

    def _axes(self) -> Iterator[tuple[int, int, Iterator[slice]]]:
        """For each coordinate: its modulus d, its circle-exponent step s/d,
        and the slices of the canonical order that pick each line along it,
        the x with x_j = 0, 1, .. and every other coordinate fixed."""
        for d, st, c in zip(self.dims, self._strides, self.coord_steps):
            blocks = range(0, self.order, d * st)
            yield d, c, (slice(i, i + d * st, st) for b in blocks for i in range(b, b + st))

    def _difference_counts(self, e: Sequence[int], d: int) -> Iterator[tuple[int, ...]]:
        """For each a of directions_up_to_sign, in that order, the counts c_a
        of e: G -> Z_d, c_a[j] = #{x : e[a+x] - e[x] = j mod d} for j < d.

        e is held as one int of |G| lanes of b bits, 2d <= 2^b (`_pack_lanes`),
        lane i at the i-th element, and row a is that int translated, lane x
        holding e[a+x].  Adding r to coordinate j rotates each line along it, d
        lanes a stride apart: a lane comes down r strides, or up d - r where
        that would leave the line, so one rotation is two shifts under two
        masks.  A row's lanes e[a+x] - e[x] + d lie in [1, 2d - 1]; adding
        2^(b-1) - d sets a lane's top bit iff it is at least d, and there d is
        taken off.  One `bytes.count` over the low bytes counts each residue."""
        bits = _lane_bits(2 * d - 1)
        step, top = bits // 8, bits - 1
        size = self.order * step
        ones = int.from_bytes((1).to_bytes(step, "little") * self.order, "little")
        table = _pack_lanes(e, bits)
        base, carry = d * ones - table, ((1 << top) - d) * ones
        residues, rotations = _BYTES[:d], self._rotations
        for a in self.directions_up_to_sign():
            row = table
            for j, r in enumerate(a):
                if r:
                    down, low, up, high = rotations.get((bits, j, r)) or self._rotation(bits, j, r)
                    row = row >> down & low | row << up & high
            row += base
            row -= (row + carry >> top & ones) * d
            data = row.to_bytes(size, "little")
            counts = tuple(map(data[::step].count, residues))
            if d > 256:  # d = 257: residue 256, counted as 0 by its low byte
                over = data[1::2].count(1)
                counts = (counts[0] - over, *counts[1:], over)
            yield counts

    def _rotation(self, bits: int, j: int, r: int) -> tuple[int, int, int, int]:
        """The shifts and masks of _difference_counts that add r to coordinate j, kept."""
        d, st = self.dims[j], self._strides[j]
        step = bits // 8 * st  # the bytes of one stride
        line = b"\xff" * step * (d - r) + bytes(step * r)  # the lanes that come down
        low = int.from_bytes(line * (self.order // (d * st)), "little")
        high = low ^ ((1 << bits * self.order) - 1)
        rotation = self._rotations[bits, j, r] = (bits * st * r, low, bits * st * (d - r), high)
        return rotation

    def _check_work(self, per_element: int) -> None:
        """Raise TooLarge before a route sums |G| * per_element > MAX_WORK terms."""
        work = self.order * per_element
        if work > MAX_WORK:
            raise TooLarge(
                f"{work} terms exceed the work bound MAX_WORK = {MAX_WORK}",
                witness={"work": work, "max_work": MAX_WORK},
            )

    def validate_element(self, x: Sequence[int]) -> GroupElement:
        if len(x) != len(self.dims):
            raise ShapeMismatch(
                f"expected {len(self.dims)} coordinates, got {len(x)}", witness=list(x)
            )
        return tuple(int(c) % d for c, d in zip(x, self.dims))

    def zero(self) -> GroupElement:
        return (0,) * len(self.dims)

    def add(self, a: Sequence[int], b: Sequence[int]) -> GroupElement:
        a = self.validate_element(a)
        b = self.validate_element(b)
        return tuple((x + y) % d for x, y, d in zip(a, b, self.dims))

    def neg(self, a: Sequence[int]) -> GroupElement:
        a = self.validate_element(a)
        return tuple((-x) % d for x, d in zip(a, self.dims))

    def elements(self) -> Iterator[GroupElement]:
        """All elements in canonical mixed-radix order."""
        return itertools.product(*(range(d) for d in self.dims))

    def directions_up_to_sign(self) -> Iterator[GroupElement]:
        """The first-listed element of each pair {a, -a} with a != 0, in canonical
        order; listed on first use and kept."""
        if self._directions is None:
            first = [i and j >= i for i, j in enumerate(self._negation())]
            self._directions = tuple(itertools.compress(self.elements(), first))
        return iter(self._directions)

    def _negation(self) -> list[int]:
        """Entry i is the index of -a, a the i-th element in canonical order."""
        parts = [[-x % d * st for x in range(d)] for d, st in zip(self.dims, self._strides)]
        return _outer_sum(parts)

    def index_of(self, x: Sequence[int]) -> int:
        x = self.validate_element(x)
        return sum(c * s for c, s in zip(x, self._strides))

    def element_at(self, index: int) -> GroupElement:
        return tuple(index // s % d for s, d in zip(self._strides, self.dims))

    def exponent_row(self, alpha: Sequence[int]) -> list[int]:
        """Exponents k with chi_alpha(x) = u^k, for every x in canonical order."""
        alpha = self.validate_element(alpha)
        s = self.ctx.circle_order
        parts = [
            [st * a * x for x in range(d)]
            for st, a, d in zip(self.coord_steps, alpha, self.dims)
        ]
        return [k % s for k in _outer_sum(parts)]

    def translate_row(self, a: Sequence[int]) -> list[int]:
        """Index of a + x, for every x in canonical order."""
        a = self.validate_element(a)
        return _outer_sum(
            [[(c + x) % d * st for x in range(d)] for c, d, st in zip(a, self.dims, self._strides)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return self.ctx == other.ctx and self.dims == other.dims

    def __hash__(self) -> int:
        return hash((self.ctx, self.dims))

    def __repr__(self) -> str:
        desc = " x ".join(f"Z_{d}^{m}" if m > 1 else f"Z_{d}" for d, m in self.factors)
        return f"GroupSpec({desc} over GF({self.ctx.q}))"


def make_group(ctx: FieldContext, factors: Sequence[tuple[int, int]]) -> GroupSpec:
    """Validate and build a group spec; each cyclic order must divide p^n + 1."""
    return GroupSpec(ctx, factors)
