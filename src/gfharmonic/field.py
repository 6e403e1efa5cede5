"""Exact arithmetic in GF(p^(2n)) with conjugation, norm, and the unit circle.

The degree-two extension GF(p^(2n)) over GF(p^n) behaves like the complex
numbers over the reals: raising to the p^n-th power is an involutive field
automorphism that plays the role of conjugation, x * conj(x) is a "norm"
landing in the subfield, and the elements of norm one form a cyclic unit
circle of order p^n + 1.

Elements are coefficient vectors over GF(p) in the power basis of a fixed
monic irreducible modulus polynomial.  Fields here are deliberately
desk-scale (q at most MAX_Q = 65536), so construction builds full discrete
log / antilog tables once and every product afterwards is O(1).  The same
pass packs every power of g into one int, a lane per coefficient, so the
sum kernels add elements as ints, and _reducer decodes such a sum.  The
powers of g and the transform's line tables (_build_line_table, several
packed elements side by side in one int) are both built by linearity over
the digits of half codes (_span), with one lanewise sum mod p
(_lane_plus).  The verdicts take norms on codes, with no element object
(_norms, _norm_sums).  A context's one memo is the transform's route per
line length d (FieldContext._line_table): the line table, built on first
use where d >= 3, a line's sum fits every lane and the table fits in
MAX_WORK bits, or None, and the line sums per output.  So the route
depends on the field and d alone.  The memo never changes a result,
equality, hash or pickle, so a context is safe to share across workers.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    InvalidDegree,
    InvalidDivisor,
    NonPrime,
    ReducibleModulus,
    SpecMismatch,
    TooLarge,
)

# Construction builds tables of q entries and may try up to q candidate
# moduli, so q is bounded before any of that, or the primality test, runs.
MAX_Q = 1 << 16

# The most terms one call may sum, checked (GroupSpec._check_work) before any
# row or table is built: |G| * sum d_j for the transform (times s lanes for
# the classical one), |G|^2 per table pair for the routes that sum over G for
# every element.  Admits Z_17^3 (4913 elements) on every route.  A
# transform's line table takes at most MAX_WORK bits (_line_table).
MAX_WORK = 1 << 25


def _check_size(p: int, n: int) -> None:
    """Raise TooLarge unless q = p^(2n) <= MAX_Q.  The bit length of p
    bounds q first, so a huge p or n is rejected without computing q."""
    bits = p.bit_length() * 2 * n  # 2^(bits / 2) <= q < 2^bits for p >= 2
    if bits <= 256:
        q = p ** (2 * n)
        if q <= MAX_Q:
            return
    else:
        q = f">= 2^{bits // 2}"
    raise TooLarge(
        f"q = p^{2 * n} is {q}, above the bound MAX_Q = {MAX_Q}",
        witness={"q": q, "max_q": MAX_Q},
    )


def _is_prime(m: int) -> bool:
    return m >= 2 and _prime_factors(m) == [m]


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, by trial division (desk-scale inputs)."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _digits(code: int, p: int, width: int) -> tuple[int, ...]:
    return tuple([code // p**i % p for i in range(width)])


def _divmod_monic(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b in Z[x], low degree first;
    a has at least deg b coefficients, and so has the remainder."""
    r = list(a)
    k = len(b) - 1
    q = [0] * (len(a) - k)
    for i in range(len(a) - 1, k - 1, -1):
        c = q[i - k] = r[i]
        if c:
            for j, bj in enumerate(b):
                r[i - k + j] -= c * bj
    return q, r[:k]


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic b over GF(p), or over Z when p is 0:
    division by a monic polynomial commutes with reduction mod p."""
    r = _divmod_monic(a, b)[1]
    return [c % p for c in r] if p else r


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_rem(out, modulus, p)


def _poly_pow_mod(base: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    result = [1] + [0] * (len(modulus) - 2)
    acc = list(base)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, modulus, p)
        acc = _poly_mul_mod(acc, acc, modulus, p)
        e >>= 1
    return result


def _is_irreducible(modulus: Sequence[int], p: int, half_degree: int) -> bool:
    # A reducible polynomial of degree 2n has a monic factor of degree <= n,
    # so trial division against every monic polynomial of degree 1..n decides.
    for deg in range(1, half_degree + 1):
        for low in range(p**deg):
            divisor = _digits(low, p, deg) + (1,)
            if not any(_poly_rem(modulus, divisor, p)):
                return False
    return True


# The tables of a transform line (_build_line_table): lo_rows, hi_rows and
# decode.
LineTable = tuple[list[list[int]], list[list[int]], Callable[[int], list[int]]]


class FieldElement:
    """An element of GF(p^(2n)), identified by the base-p encoding of its
    coefficient vector.  Immutable; arithmetic goes through the context's
    log/antilog tables."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: "FieldContext", code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector over GF(p), lowest degree first."""
        ctx = self.ctx
        return tuple([self.code // w % ctx.p for w in ctx._pw])

    def is_zero(self) -> bool:
        return self.code == 0

    def _check_field(self, other: "FieldElement") -> None:
        ctx = self.ctx
        if not isinstance(other, FieldElement) or (other.ctx is not ctx and other.ctx != ctx):
            raise SpecMismatch("operands belong to different fields", witness=other)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_field(other)
        ctx = self.ctx
        # Digit by digit (XOR when p = 2), apart from the kernel's packed table.
        a, b, p = self.code, other.code, ctx.p
        if p == 2:
            return FieldElement(ctx, a ^ b)
        return FieldElement(ctx, sum([(a // w + b // w) % p * w for w in ctx._pw]))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return self.ctx.element([-c for c in self.coeffs])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_field(other)
        ctx, a, b = self.ctx, self.code, other.code
        code = a and b and ctx._exp[(ctx._log[a] + ctx._log[b]) % (ctx.q - 1)]
        return FieldElement(ctx, code)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        ctx = self.ctx
        if self.code == 0:
            if e > 0:
                return self
            if e == 0:
                return ctx.one
            raise DivisionByZero("0 has no inverse", witness=self.coeffs)
        k = ctx._log[self.code] * e % (ctx.q - 1)
        return FieldElement(ctx, ctx._exp[k])

    def inverse(self) -> "FieldElement":
        return self**-1

    def conjugate(self) -> "FieldElement":
        """The involutive automorphism x -> x^(p^n) fixing GF(p^n)."""
        return self**self.ctx.sqrt_q

    def norm(self) -> "FieldElement":
        """x * conj(x); lies in the subfield GF(p^n) and vanishes only at 0."""
        return self ** (self.ctx.sqrt_q + 1)

    def in_circle(self) -> bool:
        return self.norm().code == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.code == other.code

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.ctx.modulus, self.code))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return " + ".join(reversed(terms)) if terms else "0"

    def __repr__(self) -> str:
        return f"FieldElement({list(self.coeffs)}, q={self.ctx.q})"


class FieldContext:
    """The tower GF(p) < GF(p^n) < GF(q), q = p^(2n), with a validated
    modulus, a primitive element g, and the circle generator u.

    Construction verifies, exhaustively, that the modulus is irreducible,
    that g generates the full multiplicative group, and that u = g^((q-1)/s)
    has order exactly s = p^n + 1.
    """

    def __init__(self, p: int, n: int, modulus: Optional[Sequence[int]] = None):
        if not isinstance(p, int) or p < 2:
            raise NonPrime(f"p = {p} is not prime", witness=p)
        if not isinstance(n, int) or n < 1:
            raise InvalidDegree(f"n must be a positive integer, got {n}", witness=n)
        _check_size(p, n)
        if not _is_prime(p):
            raise NonPrime(f"p = {p} is not prime", witness=p)
        self.p = p
        self.n = n
        self.width = 2 * n
        self.q = p**self.width
        self.sqrt_q = p**n
        self.circle_order = self.sqrt_q + 1

        if modulus is None:
            self.modulus = self._select_modulus()
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != self.width + 1 or mod[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {self.width} over GF({p})",
                    witness=list(modulus),
                )
            if not _is_irreducible(mod, p, n):
                raise ReducibleModulus(
                    f"modulus {list(mod)} is reducible over GF({p})", witness=list(mod)
                )
            self.modulus = mod

        q = self.q
        self._pw = tuple(p**i for i in range(self.width))

        g_code = self._find_primitive()
        self._build_log_tables(g_code)
        self.g = FieldElement(self, g_code)

        # u = g^((q-1)/s) has order exactly s because g has order q-1.
        self._step = (q - 1) // self.circle_order
        u_code = self._exp[self._step]
        self.u = FieldElement(self, u_code)
        s = self.circle_order
        assert all(
            self._exp[self._step * (s // r) % (q - 1)] != 1 for r in _prime_factors(s)
        ), "circle generator order check failed"

        self._circle_pow = tuple(self._exp[k * self._step % (q - 1)] for k in range(s))
        # The transform's line tables by length d, or None where a line takes
        # the per-output route, each decided by _line_table when first needed
        # and kept; at most one per divisor d of s.
        self._line_tables: dict[int, Optional[LineTable]] = {}

    # -- construction helpers -------------------------------------------------

    def _select_modulus(self) -> tuple[int, ...]:
        # Smallest monic irreducible of degree 2n, ordered by the base-p
        # value of the non-leading coefficients.
        for low in range(self.q):
            cand = _digits(low, self.p, self.width) + (1,)
            if _is_irreducible(cand, self.p, self.n):
                return cand
        raise ReducibleModulus(f"no irreducible polynomial found for p={self.p}, n={self.n}")

    def _find_primitive(self) -> int:
        # The codes below p are GF(p), whose units have orders dividing p - 1.
        q, p = self.q, self.p
        one = [1] + [0] * (self.width - 1)
        checks = [(q - 1) // r for r in _prime_factors(q - 1)]
        for code in range(p, q):
            cand = _digits(code, p, self.width)
            if all(_poly_pow_mod(cand, e, self.modulus, p) != one for e in checks):
                return code
        raise ReducibleModulus("no primitive element found; modulus is not irreducible")

    def _build_log_tables(self, g_code: int) -> None:
        # An element packs into one int, a lane of `bits` bits per coefficient
        # (lowest degree lowest) that holds the kernel's longest sum, s = p^n + 1
        # digits below p, widened to fill the 30-bit digits the int has anyway.
        # Multiplication by g is GF(p)-linear: g * (lo + x^n hi), for the halves
        # lo and hi of a coefficient vector, is the lanewise sum mod p of two
        # packed vectors looked up by half code, each a _span of the packed
        # g x^j over its half's j, and a dict from packed halves gives the half
        # codes.
        q, p, n, w, P = self.q, self.p, self.n, self.width, self.sqrt_q
        lane = (self.circle_order * (p - 1)).bit_length()
        bits = self._bits = -(-lane * w // 30) * 30 // w
        ones = self._ones = sum(1 << i * bits for i in range(w))
        # A sum of a reduced element and _chunk more packed terms fits every lane.
        self._chunk = ((1 << bits) - 1) // (p - 1) - 1
        plus = _lane_plus(p, bits, ones)
        halves = _span([1 << j * bits for j in range(n)], p, plus)  # packed half codes
        half = self._half = {x: c for c, x in enumerate(halves)}
        units, xg = [], list(_digits(g_code, p, w))  # units[j]: g x^j packed
        for j in range(w):
            units.append(sum(c << i * bits for i, c in enumerate(xg)))
            xg = _poly_rem([0] + xg, self.modulus, p)
        times = [_span(units[:n], p, plus), _span(units[n:], p, plus)]
        shift, low, lo, hi = n * bits, (1 << n * bits) - 1, 1, 0
        exp, packed = array("i", [1]) * (q - 1), [1] * (q - 1)
        for i in range(1, q - 1):
            x = packed[i] = plus(times[0][lo], times[1][hi])
            lo, hi = half[x & low], half[x >> shift]
            exp[i] = lo + P * hi
        log = array("i", [-1]) * q
        for i, code in enumerate(exp):
            log[code] = i
        assert log.count(-1) == 1, "primitive element does not generate GF(q)*"
        # The kernel's table: _terms[k] is g^k packed for k < 2(q - 1) and 0
        # from there on, where the log of 0 points.  So _terms[log a + log b]
        # is the packed product ab unless both a and b are 0.
        log[0] = 2 * (q - 1)
        self._exp, self._log = exp, log
        self._terms = packed * 2 + [0] * (q - 1)

    def _line_table(self, d: int) -> Optional[LineTable]:
        """The tables of a line of length d (_build_line_table), or None where
        the line takes the per-output route; decided and built on first use,
        and kept.  A table is built where d >= 3 (on lines of 2 it measured
        slower), a line's 2d packed terms fit every lane (2d <= _chunk + 1),
        and its 2d^2 P packed elements take at most MAX_WORK bits."""
        if d not in self._line_tables:
            fits = 2 * d <= self._chunk + 1
            small = 2 * d * d * self.sqrt_q * self.width * self._bits <= MAX_WORK
            self._line_tables[d] = _build_line_table(self, d) if d > 2 and fits and small else None
        return self._line_tables[d]

    def __getstate__(self) -> dict:
        # Pickles and copies leave the line tables, and the Nones, out; they
        # are decided again on first use.
        return {**vars(self), "_line_tables": {}}

    # -- public surface --------------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        """Build an element from its coefficient vector (reduced mod p)."""
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) != self.width:
            raise DegreeMismatch(
                f"expected {self.width} coefficients, got {len(cs)}", witness=cs
            )
        return FieldElement(self, sum(c * w for c, w in zip(cs, self._pw)))

    def from_int(self, k: int) -> FieldElement:
        """The scalar (k mod p) * 1, i.e. the image of k in GF(p) < GF(q)."""
        return FieldElement(self, k % self.p)

    def elements(self) -> Iterator[FieldElement]:
        return (FieldElement(self, code) for code in range(self.q))

    def circle(self) -> tuple[FieldElement, ...]:
        """All p^n + 1 elements of norm one, as successive powers of u."""
        return tuple(FieldElement(self, code) for code in self._circle_pow)

    def circle_subgroup_generator(self, d: int) -> FieldElement:
        """Generator u^(s/d) of the order-d subgroup of the circle."""
        s = self.circle_order
        if d < 1 or s % d:
            raise InvalidDivisor(f"{d} does not divide {s}", witness=d)
        return FieldElement(self, self._circle_pow[(s // d) % s])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, n={self.n}, modulus={list(self.modulus)})"


def _reducer(ctx: FieldContext) -> Callable[[int], int]:
    """Code of a packed sum whose lanes have not overflowed: each lane
    reduced mod p."""
    p, bits = ctx.p, ctx._bits
    if p == 2:
        # A lane's parity is its low bit; the halves of the code are looked up.
        ones, half, shift, n = ctx._ones, ctx._half, ctx.n * bits, ctx.n
        low = (1 << shift) - 1
        return lambda x: half[(x := x & ones) & low] | half[x >> shift] << n
    places, mask = [(i * bits, w) for i, w in enumerate(ctx._pw)], (1 << bits) - 1
    return lambda x: sum((x >> sh & mask) % p * w for sh, w in places)


def _lane_plus(p: int, bits: int, ones: int) -> Callable[[int, int], int]:
    """The sum of two packed ints whose lanes, `bits` bits wide at the set
    bits of `ones`, are below p, reduced lane by lane mod p: one add and one
    step that takes p from each lane that reached it, or one XOR when p = 2."""
    if p == 2:
        return int.__xor__
    # A lane below 2p is at least p iff adding 2^top - p to it sets bit top.
    top, over = bits - 1, ((1 << bits - 1) - p) * ones

    def plus(x: int, y: int) -> int:
        x += y
        return x - p * ((x + over) >> top & ones)

    return plus


def _span(units: Sequence[int], p: int, plus: Callable[[int, int], int]) -> list[int]:
    """For each half code v (digits v_j below p, lowest first, one per unit),
    the packed sum of v_j units[j], by linearity: one `plus` per entry, and the
    multiples of a digit c > 1 are c - 1 `plus` steps on the unit."""
    span = [0]
    for unit in units:
        span += [plus(x, m) for m in accumulate([unit] * (p - 1), plus) for x in span]
    return span


def _build_line_table(ctx: FieldContext, d: int) -> LineTable:
    """The tables of a line of length d, whose root is w = u^(s/d) = g^k, on
    d slots side by side in one int, slot a one packed element padded to
    whole bytes, lowest slot first: lo_rows[t][v] holds in slot a the packed
    product v w^(a t), for each half code v (an element of the low half of
    the coefficients), and hi_rows[t][v] the same for v x^n (the high half).
    So the transform of a line of codes x_t = lo_t + P hi_t is the slot-wise
    sum over t of lo_rows[t][lo_t] + hi_rows[t][hi_t], which decode reads
    slot by slot with _reducer; its inverse reads slot a at -a mod d.  Each
    row is the _span of the slot ints of the units x^j w^(a t), j < n for
    lo_rows and n <= j < 2n for hi_rows, under _lane_plus on every lane of
    the d slots."""
    q1, p, n, log, terms = ctx.q - 1, ctx.p, ctx.n, ctx._log, ctx._terms
    k = ctx._step * (ctx.circle_order // d)
    size = -(-ctx.width * ctx._bits // 8)
    ones = int.from_bytes(ctx._ones.to_bytes(size, "little") * d, "little")
    plus = _lane_plus(p, ctx._bits, ones)
    # x^j w^m for j < 2n (the code of x^j is p^j), as slot strings.
    powers = [
        [terms[(log[p**j] + k * m) % q1].to_bytes(size, "little") for m in range(d)]
        for j in range(2 * n)
    ]
    # units[t][j]: slot a holds x^j w^(a t mod d).
    units = [
        [int.from_bytes(b"".join([ss[a * t % d] for a in range(d)]), "little") for ss in powers]
        for t in range(d)
    ]
    lo_rows = [_span(row[:n], p, plus) for row in units]
    hi_rows = [_span(row[n:], p, plus) for row in units]
    code_of, mask = _reducer(ctx), (1 << 8 * size) - 1
    offsets = range(0, 8 * size * d, 8 * size)
    return lo_rows, hi_rows, lambda x: [code_of(x >> o & mask) for o in offsets]


def _norms(ctx: FieldContext, codes: Iterable[int]) -> list[int]:
    """The codes of norm(x) = x^(p^n + 1) for the codes x, by their logs; 0 stays 0."""
    exp, log, e, q1 = ctx._exp, ctx._log, ctx.sqrt_q + 1, ctx.q - 1
    return [c and exp[log[c] * e % q1] for c in codes]


def _norm_sums(ctx: FieldContext, columns: Sequence[Sequence[int]]) -> list[int]:
    """The codes of sum_i norm(x_i) at each point of the coordinate columns
    of codes x_i: the first column's norms by _norms, and the others' added
    as packed terms, reduced every ctx._chunk terms so that no lane overflows."""
    out = _norms(ctx, columns[0])
    for i in range(1, len(columns), ctx._chunk):
        terms, log, code_of = ctx._terms, ctx._log, _reducer(ctx)
        packed = [[terms[log[c]] for c in _norms(ctx, col)] for col in columns[i:i + ctx._chunk]]
        out = [code_of(terms[log[c]] + sum(xs)) for c, xs in zip(out, zip(*packed))]
    return out


def _minimal_polynomial(x: FieldElement) -> list[int]:
    """The minimal polynomial of x != 0 over GF(p), as codes (each in GF(p)),
    low degree first: the product of t - r over the conjugates r = x^(p^i)."""
    ctx = x.ctx
    q, log, terms, code_of = ctx.q, ctx._log, ctx._terms, _reducer(ctx)
    minus = log[x.code] + (q - 1) // 2 * (ctx.p > 2)  # -1 = g^((q - 1) / 2) for odd p
    mu = [1]  # times t + y, for each conjugate y of -x: two packed products
    for k in {minus * ctx.p**i % (q - 1) for i in range(ctx.width)}:
        mu = [code_of(terms[log[a]] + terms[log[b] + k]) for a, b in zip([0] + mu, mu + [0])]
    return mu


def make_context(p: int, n: int, modulus: Optional[Sequence[int]] = None) -> FieldContext:
    """Construct and validate a GF(p^(2n)) context.

    When ``modulus`` is omitted the smallest monic irreducible of degree 2n
    is selected (ordered by the base-p value of its coefficient vector), and
    the primitive element g is the smallest element of full order under the
    same ordering, so contexts are reproducible across runs.  A field with
    more than MAX_Q elements raises TooLarge before anything is built.
    """
    return FieldContext(p, n, modulus)
