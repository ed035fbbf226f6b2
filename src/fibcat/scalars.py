"""Exact arithmetic in the degree-16 number field Q(z20, s).

Every number used by the category and its invariants lives in the field
obtained from the cyclotomic field Q(z20) -- z20 a fixed primitive 20th
root of unity with minimal polynomial z^8 - z^6 + z^4 - z^2 + 1 -- by
adjoining a square root ``s`` of the golden-ratio constant ``eps``,
where eps^2 = eps + 1.  There are two real choices of eps (one positive,
one negative); each gives its own field structure, selected by the sign
carried in :class:`Theory`.

Scalars are immutable, compared by exact coordinates over the basis
{z20^i * s^j : 0 <= i <= 7, 0 <= j <= 1}; the complex embedding at
z20 = exp(i*pi/10) is for display and diagnostics only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# z^8 = z^6 - z^4 + z^2 - 1, coefficients of z^0 .. z^7
_PHI20_FOLD = (-1, 0, 1, 0, -1, 0, 1, 0)


def _zeta_powers() -> list[tuple[Fraction, ...]]:
    """z20^k reduced mod the 20th cyclotomic polynomial, k = 0 .. 19."""
    powers: list[list[Fraction]] = [[_ZERO] * 8 for _ in range(20)]
    for k in range(8):
        powers[k][k] = _ONE
    for k in range(8, 20):
        prev = powers[k - 1]
        cur = [_ZERO] + prev[:7]
        top = prev[7]
        if top:
            for i, c in enumerate(_PHI20_FOLD):
                if c:
                    cur[i] += top * c
        powers[k] = cur
    return [tuple(p) for p in powers]


def _poly_mul_reduced(a: Iterable[Fraction], b: Iterable[Fraction],
                      zpow: list[tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    out = [_ZERO] * 8
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            for m, c in enumerate(zpow[i + j]):
                if c:
                    out[m] += ai * bj * c
    return tuple(out)


class _Field:
    """Reduction tables for one choice of the sign of eps."""

    def __init__(self, positive_eps: bool):
        self.positive_eps = positive_eps
        zpow = _zeta_powers()
        self.zpow = zpow
        # eps = xi + xi^-1 (positive) or xi^3 + xi^-3 (negative), xi = z20^2
        if positive_eps:
            e = [x + y for x, y in zip(zpow[2], zpow[18])]
        else:
            e = [x + y for x, y in zip(zpow[6], zpow[14])]
        self.eps_vec = tuple(e)
        # z20^k * eps reduced, for the s*s = eps folding (k = 0 .. 14)
        self.zpow_eps = [_poly_mul_reduced(zpow[k], self.eps_vec, zpow)
                         for k in range(15)]
        self.conj_sign = 1 if positive_eps else -1
        eps_float = (1 + 5 ** 0.5) / 2 if positive_eps else (1 - 5 ** 0.5) / 2
        zeta = cmath.exp(1j * cmath.pi / 10)
        s_embed = cmath.sqrt(complex(eps_float))
        self.basis_embed = tuple(zeta ** i * s_embed ** j
                                 for j in range(2) for i in range(8))

    def __repr__(self) -> str:
        return f"_Field(positive_eps={self.positive_eps})"


_FIELDS = {True: _Field(True), False: _Field(False)}


class Scalar:
    """An element of Q(z20, s), canonical over the 16-element basis.

    ``coeffs[j*8 + i]`` is the rational coordinate of z20^i * s^j.
    """

    __slots__ = ("field", "coeffs", "_is_zero")

    def __init__(self, field: _Field, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs
        self._is_zero = not any(coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(field: _Field, q: Rational) -> Scalar:
        c = [_ZERO] * 16
        c[0] = Fraction(q)
        return Scalar(field, tuple(c))

    @staticmethod
    def zeta_power(field: _Field, k: int) -> Scalar:
        vec = field.zpow[k % 20]
        return Scalar(field, vec + (_ZERO,) * 8)

    @staticmethod
    def sqrt_eps(field: _Field) -> Scalar:
        c = [_ZERO] * 16
        c[8] = _ONE
        return Scalar(field, tuple(c))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._is_zero

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a rational scalar: {self}")
        return self.coeffs[0]

    def _check(self, other: Scalar) -> None:
        if self.field is not other.field:
            raise ValueError("cannot mix scalars from different eps-sign theories")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Scalar | Rational) -> Scalar:
        other = self._coerce(other)
        self._check(other)
        return Scalar(self.field,
                      tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Scalar | Rational) -> Scalar:
        other = self._coerce(other)
        self._check(other)
        return Scalar(self.field,
                      tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Scalar:
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Scalar | Rational) -> Scalar:
        other = self._coerce(other)
        self._check(other)
        if self._is_zero or other._is_zero:
            return Scalar(self.field, (_ZERO,) * 16)
        zpow = self.field.zpow
        zpow_eps = self.field.zpow_eps
        out = [_ZERO] * 16
        a, b = self.coeffs, other.coeffs
        for p in range(16):
            ap = a[p]
            if not ap:
                continue
            i1, j1 = p & 7, p >> 3
            for q in range(16):
                bq = b[q]
                if not bq:
                    continue
                i2, j2 = q & 7, q >> 3
                coef = ap * bq
                k = i1 + i2
                if j1 + j2 < 2:
                    base = j1 + j2
                    vec = zpow[k]
                else:
                    base = 0
                    vec = zpow_eps[k]
                off = base * 8
                for m, c in enumerate(vec):
                    if c:
                        out[off + m] += coef * c
        return Scalar(self.field, tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: Rational) -> Scalar:
        return (-self) + other

    def __truediv__(self, other: Scalar | Rational) -> Scalar:
        other = self._coerce(other)
        return self * other.invert()

    def __rtruediv__(self, other: Rational) -> Scalar:
        return self._coerce(other) * self.invert()

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return Scalar.from_rational(self.field, 1)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def _coerce(self, other: Scalar | Rational) -> Scalar:
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.field, other)
        return NotImplemented

    def invert(self) -> Scalar:
        """Exact multiplicative inverse, by solving the 16x16 rational system."""
        if self._is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return _invert_cached(self)

    def conjugate(self) -> Scalar:
        """Complex conjugation of the chosen embedding: z20 -> z20^-1."""
        field = self.field
        out = [_ZERO] * 16
        sgn = field.conj_sign
        for p, c in enumerate(self.coeffs):
            if not c:
                continue
            i, j = p & 7, p >> 3
            vec = field.zpow[(20 - i) % 20]
            coef = c if (j == 0 or sgn == 1) else -c
            off = j * 8
            for m, v in enumerate(vec):
                if v:
                    out[off + m] += coef * v
        return Scalar(field, tuple(out))

    def embed(self) -> complex:
        """Float image at z20 = exp(i*pi/10); display only, never for equality."""
        return sum((complex(c) * e for c, e in
                    zip(self.coeffs, self.field.basis_embed)), 0j)

    # -- comparisons / rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(self.field, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.positive_eps, self.coeffs))

    def __bool__(self) -> bool:
        return not self._is_zero

    def render(self) -> str:
        """Canonical text form: terms q*z20^i*s^j ordered by (j, i)."""
        terms = []
        for j in range(2):
            for i in range(8):
                q = self.coeffs[j * 8 + i]
                if not q:
                    continue
                factors = []
                if i:
                    factors.append(f"z20^{i}")
                if j:
                    factors.append("s")
                mag = abs(q)
                if not factors:
                    body = str(mag)
                elif mag == 1:
                    body = "*".join(factors)
                else:
                    body = "*".join([str(mag)] + factors)
                terms.append((q < 0, body))
        if not terms:
            return "0"
        parts = [("-" if terms[0][0] else "") + terms[0][1]]
        for neg, body in terms[1:]:
            parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def render_float(self) -> str:
        v = self.embed()
        return f"({v.real:.10g}, {v.imag:.10g})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


@lru_cache(maxsize=4096)
def _invert_cached(a: Scalar) -> Scalar:
    field = a.field
    # column k of the system matrix is a * basis_k
    cols = []
    for k in range(16):
        basis = [_ZERO] * 16
        basis[k] = _ONE
        cols.append((a * Scalar(field, tuple(basis))).coeffs)
    m = [[cols[k][r] for k in range(16)] + [_ONE if r == 0 else _ZERO]
         for r in range(16)]
    for col in range(16):
        pivot = next(r for r in range(col, 16) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(16):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return Scalar(field, tuple(m[r][16] for r in range(16)))


@dataclass(frozen=True)
class Theory:
    """Choice of eps sign, braiding constant sign, and the free parameters.

    The braiding constant beta is the root of unity fixed by the two
    signs: for positive eps, beta+ = z20^6 and beta- = z20^-6; for
    negative eps, beta+ = z20^2 and beta- = z20^-2.  The parameters
    x, y, z are arbitrary nonzero rationals; every invariant is provably
    independent of them, which the test-suite checks rather than assumes.
    """

    epsilon_sign: str = "positive"
    beta_sign: str = "plus"
    x: Fraction = _ONE
    y: Fraction = _ONE
    z: Fraction = _ONE

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

    @property
    def field(self) -> _Field:
        return _FIELDS[self.epsilon_sign == "positive"]

    # -- scalar constructors --------------------------------------------

    def rational(self, q: Rational) -> Scalar:
        return Scalar.from_rational(self.field, q)

    def zeta(self, k: int) -> Scalar:
        return Scalar.zeta_power(self.field, k)

    @cached_property
    def zero(self) -> Scalar:
        return self.rational(0)

    @cached_property
    def one(self) -> Scalar:
        return self.rational(1)

    # -- the named constants ---------------------------------------------

    @cached_property
    def epsilon(self) -> Scalar:
        return Scalar(self.field, self.field.eps_vec + (_ZERO,) * 8)

    @cached_property
    def beta(self) -> Scalar:
        if self.epsilon_sign == "positive":
            k = 6 if self.beta_sign == "plus" else 14
        else:
            k = 2 if self.beta_sign == "plus" else 18
        return self.zeta(k)

    @cached_property
    def beta_inv(self) -> Scalar:
        return self.beta.invert()

    @cached_property
    def s(self) -> Scalar:
        """The chosen square root of epsilon."""
        return Scalar.sqrt_eps(self.field)

    @cached_property
    def s_inv(self) -> Scalar:
        return self.s.invert()

    @cached_property
    def big_d(self) -> Scalar:
        """D with D^2 = 2 + eps and positive real embedding."""
        m = 1 if self.epsilon_sign == "positive" else 3
        return self.zeta(m) + self.zeta(20 - m)

    @cached_property
    def delta(self) -> Scalar:
        return self.one + self.epsilon ** 2 * self.beta ** 2

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
