"""Exact arithmetic in the degree-16 number field Q(z20, s).

Every number used by the category and its invariants lives in the field
obtained from the cyclotomic field Q(z20) -- z20 a fixed primitive 20th
root of unity with minimal polynomial z^8 - z^6 + z^4 - z^2 + 1 -- by
adjoining a square root ``s`` of the golden-ratio constant ``eps``,
where eps^2 = eps + 1.  There are two real choices of eps (one positive,
one negative), each its own field; a :class:`Theory` of either is the
image of the (positive, plus) one under z20 -> z20^k, s -> s.

Scalars are immutable, compared by exact coordinates over the basis
{z20^i * s^j : 0 <= i <= 7, 0 <= j <= 1}, and stored as their nonzero
terms: integer numerators of basis elements over one positive common
denominator, in lowest terms.  Each field carries one table of the
integer coordinates of every product of two basis elements, one of their
conjugates, and one of their images under three automorphisms of Q(z20),
with which inversion multiplies down to a rational norm, and the twenty
roots z20^k and s as shared scalars.  A product by exactly 1 returns
the other operand; otherwise two single terms read one table entry, and
any other pair reads the table term by term.
The complex embedding at z20 = exp(i*pi/10) is for display and
diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, inf, isqrt, lcm
from typing import Iterable, Union

Rational = Union[int, Fraction]

# The terms of 1, over the denominator 1.
_ONE = ((0, 1),)

# z^8 = z^6 - z^4 + z^2 - 1, coefficients of z^0 .. z^7
_PHI20_FOLD = (-1, 0, 1, 0, -1, 0, 1, 0)

# An element of Z[z5], for z = z20^2 a primitive 10th root of unity
# (z^5 = -1): its integer coordinates at 1, z, z^2, z^3 (z20^0, 2, 4, 6).
_Coords = tuple[int, int, int, int]


def _times(a: _Coords, b: _Coords) -> _Coords:
    """The product in Z[z5], z^4 folded as z^3 - z^2 + z - 1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c4 = a1 * b3 + a2 * b2 + a3 * b1
    c5 = a2 * b3 + a3 * b2
    c6 = a3 * b3
    return (a0 * b0 - c4 - c5, a0 * b1 + a1 * b0 + c4 - c6,
            a0 * b2 + a1 * b1 + a2 * b0 - c4, a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c4)


def _zeta_powers() -> list[tuple[int, ...]]:
    """z20^k reduced mod the 20th cyclotomic polynomial, k = 0 .. 19."""
    powers = [[int(i == k) for i in range(8)] for k in range(8)]
    for k in range(8, 20):
        prev = powers[k - 1]
        cur = [0] + prev[:7]
        for i, c in enumerate(_PHI20_FOLD):
            cur[i] += prev[7] * c
        powers.append(cur)
    return [tuple(p) for p in powers]


class _Field:
    """Multiplication and conjugation tables for one choice of the sign of eps.

    Basis element p is z20^(p & 7) * s^(p >> 3).  ``table[p][q]`` lists the
    nonzero integer coordinates ``(m, c)`` of basis_p * basis_q, and
    ``conj[p]`` those of the complex conjugate of basis_p.  ``galois[k][i]``
    lists those of z20^(i*k), for the automorphisms z20 -> z20^k of Q(z20)
    with k = 3, 11, 19.  ``roots[k]`` is the scalar z20^k, k = 0 .. 19.
    """

    def __init__(self, positive_eps: bool):
        self.positive_eps = positive_eps
        zpow = _zeta_powers()
        # eps = z20^e + z20^-e, e twice the Galois exponent of the field's
        # (positive, plus) or (negative, minus) theory (``_GALOIS``), so
        # z20^k * s^2 = z20^(k + e) + z20^(k - e)
        e = 2 if positive_eps else 6

        def coords(k: int, j: int) -> list[tuple[int, int]]:
            if j < 2:
                vec = zpow[k % 20]
            else:
                j = 0
                vec = [x + y for x, y in zip(zpow[(k + e) % 20], zpow[(k - e) % 20])]
            return [(j * 8 + m, c) for m, c in enumerate(vec) if c]

        self.table = [[coords((p & 7) + (q & 7), (p >> 3) + (q >> 3))
                       for q in range(16)] for p in range(16)]
        # z20 -> z20^-1; s is real for positive eps and imaginary otherwise
        s_sign = 1 if positive_eps else -1
        self.conj = [[(m, c * s_sign if p >> 3 else c)
                      for m, c in coords(20 - (p & 7), p >> 3)]
                     for p in range(16)]
        # z20 -> z20^k on Q(z20), for the norm tower that inversion climbs
        self.galois = {k: [coords(i * k, 0) for i in range(8)] for k in (3, 11, 19)}
        self.roots = tuple(Scalar(self, z) for z in zpow)
        self.s = Scalar(self, (0,) * 8 + (1,))

    def __reduce__(self):
        # one field per sign: a pickled scalar loads with this process's
        return _field, (self.positive_eps,)

    def __repr__(self) -> str:
        return f"_Field(positive_eps={self.positive_eps})"


def _field(positive_eps: bool) -> _Field:
    return _FIELDS[positive_eps]


class Scalar:
    """An element of Q(z20, s), canonical over the 16-element basis.

    Stored as its nonzero terms: ``terms`` is a tuple of pairs ``(p, n)``,
    p strictly ascending, each n the nonzero integer numerator of basis
    element p over one positive common denominator ``den``, in lowest
    terms (zero is ``()`` over 1), so equal values have equal
    ``(terms, den)``.  ``coeffs[j*8 + i]`` is the rational coordinate of
    z20^i * s^j; the constructor takes at most these 16 coordinates, and
    pads a shorter list with zeros.
    """

    __slots__ = ("field", "terms", "den")

    def __init__(self, field: _Field, coeffs: Iterable[Rational]):
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > 16:
            raise ValueError(f"{len(fracs)} coordinates, but the basis has 16")
        den = lcm(*(f.denominator for f in fracs))
        self.field = field
        self.terms = tuple((p, f.numerator * (den // f.denominator))
                           for p, f in enumerate(fracs) if f)
        self.den = den

    @classmethod
    def _collect(cls, field: _Field, out: list[int], den: int) -> Scalar:
        """The scalar out / den, in lowest terms, from the numerators of all
        16 basis elements: the zeros, cancelled ones too, are dropped."""
        g = gcd(den, *out)
        # n // 1 would copy n, and numerators can run to thousands of digits
        if g != 1:
            out = [n // g for n in out]
            den //= g
        return cls._lowest(field, tuple([(p, n) for p, n in enumerate(out) if n]), den)

    @classmethod
    def _lowest(cls, field: _Field, terms: tuple[tuple[int, int], ...], den: int) -> Scalar:
        """The scalar of ``terms`` over den, which the caller gives in
        canonical form and lowest terms."""
        self = object.__new__(cls)
        self.field = field
        self.terms = terms
        self.den = den
        return self

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(field: _Field, q: Rational) -> Scalar:
        # an int or a Fraction is in lowest terms, over a positive denominator
        return Scalar._lowest(field, ((0, q.numerator),) if q else (), q.denominator)

    @classmethod
    def from_z5(cls, field: _Field, coords: _Coords, den: int = 1) -> Scalar:
        """The element of Q(z5), z = z20^2, with integer coordinates
        ``coords`` at z20^0, 2, 4, 6 over the positive integer ``den``:
        at den 1, the inverse of ``z5_coordinates``."""
        if den != 1:
            return cls._collect(field, [n for c in coords for n in (c, 0)], den)
        return cls._lowest(field, tuple([(2 * i, n) for i, n in enumerate(coords) if n]), 1)

    def z5_coordinates(self) -> _Coords:
        """The integer coordinates at z20^0, 2, 4, 6 of an element of
        Z[z5], z = z20^2; any other value, one with a denominator, an odd
        power of z20 or s, is a ``ValueError``."""
        coords = [0, 0, 0, 0]
        for p, n in self.terms:
            if p & 9 or self.den != 1:
                raise ValueError(f"{self} lies outside Z[z5]")
            coords[p >> 1] = n
        return tuple(coords)

    # -- predicates ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * 16
        for p, n in self.terms:
            out[p] = Fraction(n, self.den)
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        # the terms ascend, so only a lone term can be the last at p = 0
        return not self.terms or self.terms[-1][0] == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational scalar: {self}")
        return Fraction(self.terms[0][1] if self.terms else 0, self.den)

    def _check(self, other: Scalar) -> None:
        if self.field is not other.field:
            raise ValueError("cannot mix scalars from different eps-sign theories")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Scalar | Rational) -> Scalar:
        return self._sum(other, 1)

    def __sub__(self, other: Scalar | Rational) -> Scalar:
        return self._sum(other, -1)

    def _sum(self, other: Scalar | Rational, sign: int) -> Scalar:
        """self + sign * other."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        d1, d2 = self.den, other.den
        out = [0] * 16
        for p, n in self.terms:
            out[p] = n * d2
        scale = sign * d1
        for p, n in other.terms:
            out[p] += n * scale
        return Scalar._collect(self.field, out, d1 * d2)

    def __neg__(self) -> Scalar:
        return Scalar._lowest(self.field, tuple([(p, -n) for p, n in self.terms]), self.den)

    def __mul__(self, other: Scalar | Rational) -> Scalar:
        # the hot path: _coerce and _check, inlined for a Scalar operand
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.field is not other.field:
            self._check(other)
        # A product by exactly 1 returns the other operand, whatever its
        # shape.  Otherwise two single terms read one table entry, and any
        # other pair, zero included, multiplies term by term.
        terms, other_terms = self.terms, other.terms
        if other_terms == _ONE and other.den == 1:
            return self
        if terms == _ONE and self.den == 1:
            return other
        if len(terms) == 1 and len(other_terms) == 1:
            (p, a), = terms
            (q, b), = other_terms
            # every table entry's coordinates are coprime, so the
            # product's content is a * b
            n, den = a * b, self.den * other.den
            g = gcd(n, den)
            if g != 1:
                n //= g
                den //= g
            return Scalar._lowest(self.field,
                                  tuple([(m, n * c) for m, c in self.field.table[p][q]]),
                                  den)
        table = self.field.table
        out = [0] * 16
        for p, a in terms:
            row = table[p]
            for q, b in other_terms:
                ab = a * b
                for m, c in row[q]:
                    out[m] += ab * c
        return Scalar._collect(self.field, out, self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: Rational) -> Scalar:
        return (-self) + other

    def __truediv__(self, other: Scalar | Rational) -> Scalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other: Rational) -> Scalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.invert() ** (-n)
        result, base = self.field.roots[0], self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _coerce(self, other: Scalar | Rational) -> Scalar:
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.field, other)
        return NotImplemented

    def invert(self) -> Scalar:
        """Exact multiplicative inverse: den / num for a rational scalar,
        otherwise by field norms.  Write a = u + v*s with u, v in Q(z20).
        Each product below is of a nonzero element and its image under one
        more automorphism, so it is nonzero and lies in a smaller field:

            c = a * (u - v*s)   in Q(z20)          (s -> -s)
            d = c * c(z20^11)   in Q(z20^2)        (z20 -> -z20)
            f = d * d(z20^19)   in Q(sqrt 5)       (z20 -> 1/z20)
            n = f * f(z20^3)    rational,

        so 1/a = (u - v*s) * c(z20^11) * d(z20^19) * f(z20^3) / n."""
        if self.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        if self.is_rational:
            return Scalar.from_rational(self.field, Fraction(self.den, self.terms[0][1]))
        cofactor = Scalar._lowest(self.field,
                                  tuple([(p, -n if p >> 3 else n) for p, n in self.terms]),
                                  self.den)
        norm = self * cofactor
        for k in (11, 19, 3):
            image = norm._image(self.field.galois[k])
            cofactor = cofactor * image
            norm = norm * image
        return cofactor * Fraction(norm.den, norm.terms[0][1])

    def _image(self, images: list[list[tuple[int, int]]]) -> Scalar:
        """The image under the automorphism of Z[z20, s] that takes basis
        element p to ``images[p]``."""
        out = [0] * 16
        for p, n in self.terms:
            for m, c in images[p]:
                out[m] += n * c
        return Scalar._collect(self.field, out, self.den)

    def conjugate(self) -> Scalar:
        """Complex conjugation of the chosen embedding: z20 -> z20^-1."""
        return self._image(self.field.conj)

    def embed(self) -> complex:
        """Float image at z20 = exp(i*pi/10); display only, never for equality.

        A part outside float range becomes 0 or +-inf; ``render_float``
        prints it."""
        re, im, scale = self._embed_parts()
        return complex(_float(re, scale), _float(im, scale))

    def _embed_parts(self) -> tuple[int, int, int]:
        """Real and imaginary parts of the embedding as ``re / scale`` and
        ``im / scale``, each within 1e-12 of the modulus; a part no larger
        than the rounding error is exactly 0.

        The coordinates are summed exactly against the basis scaled by
        10^digits and rounded to integers, so each sum is off by at most
        the sum of |coordinates|.  The coordinates can be far larger than
        the value they sum to (the Hopf chain of k circles has k-digit
        coordinates and a value near eps^(1-k)), so the digits double until
        a sum exceeds that error by 12 digits.  A nonzero scalar has a
        nonzero image, so this ends."""
        size = sum(abs(n) for _, n in self.terms)
        if not size:
            return 0, 0, 1
        digits = 32
        while True:
            basis = _scaled_basis(self.field.positive_eps, digits)
            re = im = 0
            for p, n in self.terms:
                c, d = basis[p]
                re += n * c
                im += n * d
            if max(abs(re), abs(im)) > size * 10 ** 12:
                break
            digits *= 2
        return (0 if abs(re) <= size else re, 0 if abs(im) <= size else im,
                self.den * 10 ** digits)

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.from_rational(self.field, other)
        return (self.terms == other.terms and self.den == other.den
                and self.field is other.field)

    def __hash__(self) -> int:
        return hash((self.field.positive_eps, self.terms, self.den))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def render(self) -> str:
        """Canonical text form: terms q*z20^i*s^j ordered by (j, i)."""
        terms = []
        for p, n in self.terms:
            factors = []
            if p & 7:
                factors.append(f"z20^{p & 7}")
            if p >> 3:
                factors.append("s")
            mag = abs(Fraction(n, self.den))
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            terms.append((n < 0, body))
        if not terms:
            return "0"
        parts = [("-" if terms[0][0] else "") + terms[0][1]]
        for neg, body in terms[1:]:
            parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def render_float(self) -> str:
        """The embedding to 10 significant digits, also outside float range."""
        re, im, scale = self._embed_parts()
        return f"({_format_10g(re, scale)}, {_format_10g(im, scale)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _float(num: int, den: int) -> float:
    """num / den, correctly rounded, and +-inf past float range."""
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _format_10g(num: int, den: int) -> str:
    """num / den as ``:.10g`` prints a float, and in that exponent form
    where the float would overflow or lose digits."""
    f = _float(num, den)
    if not num or 1e-300 < abs(f) < 1e300:
        return f"{f:.10g}"
    with localcontext(Context(prec=10)):
        return format((Decimal(num) / den).normalize(), "e")


@lru_cache(maxsize=32)
def _scaled_basis(positive_eps: bool, digits: int) -> tuple[tuple[int, int], ...]:
    """(real, imaginary) parts of the 16 basis elements z20^i * s^j at
    z20 = exp(i*pi/10), times 10^digits and rounded to integers.

    Worked in integers scaled by 10^(digits + 10), where each step is off
    by a few units at most, so the rounded results are within 1."""
    one = 10 ** (digits + 10)
    root5 = isqrt(5 * one * one)
    sin18 = (root5 - one) // 4
    cos18 = isqrt(one * one - sin18 * sin18)
    powers = [(one, 0)]
    for _ in range(7):
        c, d = powers[-1]
        powers.append(((c * cos18 - d * sin18) // one, (c * sin18 + d * cos18) // one))
    t = isqrt((root5 + one if positive_eps else root5 - one) // 2 * one)
    # s = t for positive eps and i*t, the principal root, for negative eps
    if positive_eps:
        with_s = [(c * t // one, d * t // one) for c, d in powers]
    else:
        with_s = [(-d * t // one, c * t // one) for c, d in powers]
    half = 5 * 10 ** 9
    return tuple(((c + half) // 10 ** 10, (d + half) // 10 ** 10)
                 for c, d in powers + with_s)


_FIELDS = {True: _Field(True), False: _Field(False)}

# (epsilon_sign, beta_sign) -> k: the theory is the image of the (positive,
# plus) one under z20 -> z20^k, s -> s
_GALOIS = {("positive", "plus"): 1, ("positive", "minus"): 19,
           ("negative", "minus"): 3, ("negative", "plus"): 17}


@dataclass(frozen=True)
class Theory:
    """Choice of eps sign, braiding constant sign, and the free parameters.

    The signs fix one Galois exponent k (``_GALOIS``): the theory is the
    image of the (positive, plus) one under z20 -> z20^k, s -> s, so
    eps = z20^2k + z20^-2k, D = z20^k + z20^-k, beta = z20^6k, the twist
    theta = z20^-12k and the surgery phase Delta/D = z20^13k, each root of
    unity an exponent mod 20 into the field's shared roots.  The inverses
    the invariants need have closed forms, as eps^2 = eps + 1 and
    D^2 = eps + 2: 1/eps = eps - 1, 1/s = s/eps and 1/D = D (3 - eps)/5
    (``epsilon_inv``, ``s_inv``, ``big_d_inv``), and so has the
    associator's A, A, A block (``associator_block``).  Each is computed
    once per theory and kept on it, as are theta's five powers in Z[z5]
    (``theta_coordinates``), so no cache outlives the theory.  The
    parameters x, y, z are arbitrary nonzero rationals; every invariant is
    provably independent of them, which the test-suite checks rather than
    assumes.
    """

    epsilon_sign: str = "positive"
    beta_sign: str = "plus"
    x: Fraction = Fraction(1)
    y: Fraction = Fraction(1)
    z: Fraction = Fraction(1)

    def __post_init__(self):
        if self.epsilon_sign not in ("positive", "negative"):
            raise ValueError(f"epsilon_sign must be positive/negative, got {self.epsilon_sign!r}")
        if self.beta_sign not in ("plus", "minus"):
            raise ValueError(f"beta_sign must be plus/minus, got {self.beta_sign!r}")
        for name in ("x", "y", "z"):
            v = Fraction(getattr(self, name))
            if v == 0:
                raise ValueError(f"parameter {name} must be nonzero")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_k", _GALOIS[self.epsilon_sign, self.beta_sign])

    def __reduce__(self):
        # rebuilt from its fields, so no cached scalar or field is copied
        return Theory, (self.epsilon_sign, self.beta_sign, self.x, self.y, self.z)

    @property
    def field(self) -> _Field:
        return _FIELDS[self.epsilon_sign == "positive"]

    # -- scalar constructors --------------------------------------------

    def rational(self, q: Rational) -> Scalar:
        return Scalar.from_rational(self.field, q)

    def zeta(self, k: int) -> Scalar:
        """z20^k, one shared scalar per k mod 20."""
        return self.field.roots[k % 20]

    @cached_property
    def zero(self) -> Scalar:
        return self.rational(0)

    @cached_property
    def one(self) -> Scalar:
        return self.zeta(0)

    # -- the named constants ---------------------------------------------

    @cached_property
    def epsilon(self) -> Scalar:
        return self.zeta(2 * self._k) + self.zeta(-2 * self._k)

    @cached_property
    def beta(self) -> Scalar:
        return self.zeta(6 * self._k)

    @cached_property
    def beta_inv(self) -> Scalar:
        return self.zeta(-6 * self._k)

    def theta(self, n: int) -> Scalar:
        """theta^n, for the ribbon twist theta = beta^-2 on A."""
        return self.zeta(-12 * self._k * n)

    @cached_property
    def theta_coordinates(self) -> tuple[_Coords, ...]:
        """The Z[z5] coordinates of theta^r, r = 0 .. 4, so theta^n is
        entry n mod 5: theta is a fifth root of unity."""
        return tuple(self.theta(r).z5_coordinates() for r in range(5))

    def phase(self, n: int) -> Scalar:
        """(Delta/D)^n, the surgery phase: a 20th root of unity."""
        return self.zeta(13 * self._k * n)

    @cached_property
    def s(self) -> Scalar:
        """The chosen square root of epsilon, shared by the field."""
        return self.field.s

    @cached_property
    def epsilon_inv(self) -> Scalar:
        """1/eps = eps - 1, as eps^2 = eps + 1."""
        return self.epsilon - 1

    @cached_property
    def s_inv(self) -> Scalar:
        """1/s = s/eps, as s^2 = eps."""
        return self.s * self.epsilon_inv

    @cached_property
    def big_d(self) -> Scalar:
        """D with D^2 = 2 + eps and positive real embedding."""
        return self.zeta(self._k) + self.zeta(-self._k)

    @cached_property
    def big_d_inv(self) -> Scalar:
        """1/D = D (3 - eps)/5, as (eps + 2)(3 - eps) = 5."""
        return self.big_d * (3 - self.epsilon) * Fraction(1, 5)

    @cached_property
    def associator_block(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        """The associator's A, A, A block, on the summands A, 1, A of
        (A (x) A) (x) A and of A (x) (A (x) A), rows = target summand,
        cols = source summand: its entries (0, 0), (0, 2), (2, 0) and
        (2, 2), in that order; entry (1, 1) is 1 and the others are 0."""
        return (self.epsilon_inv, self.x_scalar * self.s_inv,
                self.s_inv * (1 / self.x), -self.epsilon_inv)

    @cached_property
    def delta(self) -> Scalar:
        return self.one + self.epsilon ** 2 * self.theta(-1)

    @cached_property
    def x_scalar(self) -> Scalar:
        return self.rational(self.x)

    @cached_property
    def y_scalar(self) -> Scalar:
        return self.rational(self.y)

    @cached_property
    def z_scalar(self) -> Scalar:
        return self.rational(self.z)

    def constants(self) -> dict[str, Scalar]:
        """All named constants of the theory, as exact scalars."""
        return {
            "epsilon": self.epsilon,
            "beta": self.beta,
            "s": self.s,
            "D": self.big_d,
            "Delta": self.delta,
            "x": self.x_scalar,
            "y": self.y_scalar,
            "z": self.z_scalar,
        }


ALL_THEORIES = tuple(
    Theory(epsilon_sign=e, beta_sign=b)
    for e in ("positive", "negative")
    for b in ("plus", "minus")
)
