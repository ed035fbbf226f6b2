from __future__ import annotations

import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from fibcat import ALL_THEORIES, Scalar, Theory


def random_scalar(rng: random.Random, theory: Theory) -> Scalar:
    coeffs = [Fraction(0)] * 16
    for _ in range(rng.randint(1, 5)):
        coeffs[rng.randrange(16)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Scalar(theory.field, tuple(coeffs))


def test_eps_defining_equation(any_theory):
    e = any_theory.epsilon
    assert e * e == e + 1


def test_beta_fifth_root(any_theory):
    b = any_theory.beta
    assert b * b ** 4 == -any_theory.one


def test_additive_identity(theory):
    rng = random.Random(0)
    for _ in range(10):
        a = random_scalar(rng, theory)
        assert a + theory.zero == a


def test_beta_power_table(any_theory):
    b, e = any_theory.beta, any_theory.epsilon
    assert b * b * e + b + e == 0
    assert b ** 2 == -1 - b / e
    assert b ** 3 == (1 - b) / e
    assert b ** 4 == b + e - 1
    assert b ** 5 == -any_theory.one


@pytest.mark.parametrize("which", ["beta", "s", "dense"])
def test_power_matches_repeated_multiplication(any_theory, which):
    if which == "dense":
        x = Scalar(any_theory.field,
                   tuple(Fraction(k % 5 - 2, k % 3 + 1) for k in range(16)))
    else:
        x = getattr(any_theory, which)
    for n in range(-4, 13):
        factor = x if n >= 0 else x.invert()
        expect = any_theory.one
        for _ in range(abs(n)):
            expect = expect * factor
        assert x ** n == expect, n


def test_invert_examples(theory):
    e, s, b = theory.epsilon, theory.s, theory.beta
    assert e.invert() == e - 1
    assert s.invert() == s / e
    assert b.invert() == -(b ** 4)


def test_invert_random(any_theory):
    rng = random.Random(1)
    for _ in range(8):
        a = random_scalar(rng, any_theory)
        if a.is_zero:
            continue
        assert a * a.invert() == any_theory.one
    for q in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-12, 5)):
        assert any_theory.rational(q).invert() == any_theory.rational(1 / q)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        Theory().zero.invert()


def assert_canonical(v: Scalar) -> None:
    """The form that equality and hashing rest on: nonzero numerators of
    strictly ascending basis elements over a positive denominator, in
    lowest terms, so zero is no terms over 1."""
    ps = [p for p, _ in v.terms]
    ns = [n for _, n in v.terms]
    assert ps == sorted(set(ps)) and all(0 <= p < 16 for p in ps), v.terms
    assert all(ns), v.terms
    assert v.den >= 1 and gcd(v.den, *ns) == 1, (v.terms, v.den)


def test_field_axioms_random(any_theory):
    rng = random.Random(2)
    for _ in range(6):
        a = random_scalar(rng, any_theory)
        b = random_scalar(rng, any_theory)
        c = random_scalar(rng, any_theory)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        # every result is canonical, also where coordinates cancel
        results = [a + b, a - b, a - a, (a + b) - b, -a, a * b, a ** 3,
                   a.conjugate(), (a + b.conjugate()).conjugate()]
        if not a.is_zero:
            results += [b / a, a.invert(), a ** -2]
        m = rng.randint(2, 6)
        results.append(Scalar(any_theory.field, [
            Fraction(rng.choice((0, rng.randint(-9, 9))) * m, rng.randint(1, 4) * m)
            for _ in range(16)]))
        for v in results:
            assert_canonical(v)


def test_canonical_form_idempotent(theory):
    # arithmetic always lands on reduced coordinates: recomputing the
    # same value along two routes gives identical tuples
    e = theory.epsilon
    assert (e * e).coeffs == (e + 1).coeffs
    assert (theory.s * theory.s).coeffs == e.coeffs


def test_conjugate_is_ring_involution(any_theory):
    rng = random.Random(3)
    for _ in range(6):
        a = random_scalar(rng, any_theory)
        b = random_scalar(rng, any_theory)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_conjugate_examples():
    pos_plus = Theory()
    pos_minus = Theory(beta_sign="minus")
    assert pos_plus.beta.conjugate() == pos_minus.beta
    for th in ALL_THEORIES:
        assert th.epsilon.conjugate() == th.epsilon
        expected = th.epsilon if th.epsilon_sign == "positive" else -th.epsilon
        assert th.s.conjugate() * th.s == expected


def test_embed_values():
    th = Theory()
    assert th.epsilon.embed() == pytest.approx((1 + 5 ** 0.5) / 2, abs=1e-12)
    assert th.zero.embed() == 0
    d = th.big_d.embed()
    assert d.real ** 2 == pytest.approx(2 + th.epsilon.embed().real, abs=1e-12)
    neg = Theory(epsilon_sign="negative")
    assert neg.epsilon.embed().real == pytest.approx((1 - 5 ** 0.5) / 2, abs=1e-12)
    assert neg.s.embed().imag > 0  # principal root of a negative real


def test_embed_respects_operations(any_theory):
    rng = random.Random(4)
    for _ in range(6):
        a = random_scalar(rng, any_theory)
        b = random_scalar(rng, any_theory)
        assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-9
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
        assert abs(a.conjugate().embed() - a.embed().conjugate()) < 1e-9


def test_constants(any_theory):
    c = any_theory.constants()
    e, b, s, d = c["epsilon"], c["beta"], c["s"], c["D"]
    assert d * d == e + 2
    assert d.embed().real > 0
    assert b * b * e + b + e == 0
    assert s * s == e
    assert c["Delta"] == 1 + e ** 2 * b ** 2
    assert c["x"] == any_theory.one


def test_theory_validation():
    with pytest.raises(ValueError):
        Theory(x=0)
    with pytest.raises(ValueError):
        Theory(epsilon_sign="sideways")
    with pytest.raises(ValueError):
        Theory(beta_sign="times")


def test_mixing_theories_rejected():
    pos, neg = Theory(), Theory(epsilon_sign="negative")
    with pytest.raises(ValueError):
        pos.epsilon + neg.epsilon
    for a, b in ((pos.one, neg.epsilon), (pos.epsilon, neg.one)):
        with pytest.raises(ValueError):     # a product by 1 is checked too
            a * b


def test_equal_theories_hash_equal():
    pairs = [(Theory(x=2), Theory(x=Fraction(4, 2))),
             (Theory(y=Fraction(-5, 7)), Theory(y=Fraction(10, -14))),
             (Theory("negative", "minus", z=3), Theory("negative", "minus", z=Fraction(3)))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
    assert Theory(x=2) != Theory(x=3)
    assert Theory(x=2) != Theory("negative", x=2)


@pytest.mark.parametrize("other", (1.5, "a", None, 1j))
@pytest.mark.parametrize("op", (operator.add, operator.sub, operator.mul,
                                operator.truediv))
def test_foreign_operand_raises_type_error(theory, op, other):
    # each operator returns NotImplemented, so Python raises TypeError in
    # either order (the reflected division is __rtruediv__)
    with pytest.raises(TypeError):
        op(theory.one, other)
    with pytest.raises(TypeError):
        op(other, theory.one)


def test_scalar_equals_only_exact_numbers(theory):
    # floats stay in the display layer: a scalar equals an int or a
    # Fraction of its value, never a float or a string
    assert theory.one == 1 and theory.rational(Fraction(1, 2)) == Fraction(1, 2)
    assert not theory.one == 1.0 and not theory.one == "1"


def test_render():
    th = Theory()
    assert th.zero.render() == "0"
    assert th.one.render() == "1"
    assert th.epsilon.render() == "1 + z20^4 - z20^6"
    assert (th.rational(Fraction(-3, 2)) * th.s).render() == "-3/2*s"
    assert th.s.render() == "s"
    # terms ordered by (s-degree, zeta-degree)
    v = th.s + th.zeta(3) + th.rational(2)
    assert v.render() == "2 + z20^3 + s"
    # eps is real, so its imaginary part prints as an exact 0, not float noise
    assert th.epsilon.render_float() == "(1.618033989, 0)"


def test_rational_predicates(theory):
    assert theory.rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)
    assert not theory.s.is_rational
    with pytest.raises(ValueError):
        theory.s.as_rational()


# The product as the field's definition states it: multiply polynomials in
# z20 and s with rational coordinates, replace s^2 by eps, and fold
# z20^8 = z20^6 - z20^4 + z20^2 - 1 from the top degree down.
_EPS_POSITIVE = {0: 1, 4: 1, 6: -1}   # 1 + z20^4 - z20^6
_EPS_NEGATIVE = {4: -1, 6: 1}         # 1 - eps+, the other root


def reference_product(theory: Theory, a: Scalar, b: Scalar) -> tuple[Fraction, ...]:
    eps = _EPS_POSITIVE if theory.epsilon_sign == "positive" else _EPS_NEGATIVE
    poly = [[Fraction(0)] * 21 for _ in range(2)]
    for p, x in enumerate(a.coeffs):
        for q, y in enumerate(b.coeffs):
            i, j = p % 8 + q % 8, p // 8 + q // 8
            if j < 2:
                poly[j][i] += x * y
            else:
                for k, e in eps.items():
                    poly[0][i + k] += x * y * e
    for coords in poly:
        for d in range(20, 7, -1):
            top, coords[d] = coords[d], Fraction(0)
            for k, c in ((2, 1), (4, -1), (6, 1), (8, -1)):
                coords[d - k] += c * top
    return tuple(poly[0][:8] + poly[1][:8])


def dense_scalar(rng: random.Random, theory: Theory) -> Scalar:
    return Scalar(theory.field, [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                                 for _ in range(16)])


def test_product_matches_polynomial_reference(any_theory):
    rng = random.Random(5)
    for _ in range(40):
        a, b = dense_scalar(rng, any_theory), dense_scalar(rng, any_theory)
        assert (a * b).coeffs == reference_product(any_theory, a, b)
        # a rational operand, and 1, on either side
        r = any_theory.rational(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        one = any_theory.one
        for x, y in ((a, r), (r, b), (r, r), (a, one), (one, b), (one, one)):
            product = x * y
            assert product.coeffs == reference_product(any_theory, x, y)
            assert product == Scalar(any_theory.field, product.coeffs)
        # a product by 1, in either order and as a Python number, is the
        # other operand
        for other in (a, r, any_theory.zero):
            assert one * other == other == other * one
            assert 1 * other == other == other * Fraction(3, 3)


def shaped_scalars(rng: random.Random, theory: Theory) -> list[Scalar]:
    """Seeded scalars of each shape a product tells apart: zero, 1,
    rationals, with large and negative parts, one basis element
    z20^k s^j times a rational, and values of several terms."""

    def part(bits: int) -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits), rng.randint(1, 2 ** bits))

    def single(p: int, q: Fraction) -> Scalar:
        coeffs = [Fraction(0)] * 16
        coeffs[p] = q
        return Scalar(theory.field, coeffs)

    values = [theory.zero, theory.one, theory.rational(-1)]
    values += [theory.rational(part(bits)) for bits in (4, 4, 100)]
    values += [theory.rational(Fraction(6, 35)), theory.rational(Fraction(-35, 6))]
    values += [single(rng.randrange(1, 16), part(bits)) for bits in (0, 4, 4, 100)]
    values += [single(8, Fraction(1)), random_scalar(rng, theory), dense_scalar(rng, theory)]
    values.append(Scalar(theory.field, [part(100) for _ in range(16)]))
    return values


def test_table_entries_are_coprime(any_theory):
    # the product of two single terms relies on it: the content of
    # a * b times an entry is a * b
    for row in any_theory.field.table:
        for entry in row:
            assert gcd(*(c for _, c in entry)) == 1, entry


def test_product_routes_match_polynomial_reference(any_theory):
    # every pair of shapes, each product by the route its shapes pick:
    # the value against the Fraction oracle, the terms in canonical form
    values = shaped_scalars(random.Random(30), any_theory)
    for x in values:
        for y in values:
            product = x * y
            assert product.coeffs == reference_product(any_theory, x, y), (x, y)
            assert_canonical(product)
    # a rational factor of the other's content, on either side, cancels
    # in full
    a = Scalar(any_theory.field, [Fraction(6, 35)] + [0] * 7 + [Fraction(-10, 7)])
    for x, y in ((a, any_theory.rational(Fraction(35, 2))),
                 (any_theory.rational(Fraction(-35, 2)), a)):
        assert_canonical(x * y)
        assert (x * y).den == 1


def test_single_term_products_read_one_entry(any_theory):
    # two single terms read one table entry: rational x rational,
    # rational x z20^i s^j and z20^i s^j x z20^k s^l; a rational times a
    # dense value takes the term loop; each against the Fraction oracle,
    # in canonical form and in either order
    rng = random.Random(33)
    th = any_theory

    def part(bits: int) -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits), rng.randint(1, 2 ** bits))

    def single(p: int, q: Fraction) -> Scalar:
        return Scalar(th.field, [q if i == p else 0 for i in range(16)])

    rationals = [th.rational(part(bits)) for bits in (2, 8, 80)]
    rationals += [th.rational(-1), th.rational(Fraction(6, 35)), th.rational(Fraction(-35, 6))]
    basis = [single(p, Fraction(1)) for p in range(1, 16)]
    scaled = [single(p, part(3 if p & 1 else 60)) for p in range(1, 16)]
    dense = [dense_scalar(rng, th), Scalar(th.field, [part(60) for _ in range(16)])]
    pairs = [(x, y) for i, x in enumerate(rationals) for y in rationals[i:]]
    pairs += [(x, y) for x in rationals for y in basis[::2] + scaled + dense]
    pairs += [(x, y) for x in basis for y in scaled]
    for x, y in pairs:
        product = x * y
        assert product.coeffs == reference_product(th, x, y), (x, y)
        assert_canonical(product)
        assert y * x == product
    # a product by exactly 1, in either order, is the other operand itself
    values = [th.zero, th.s] + rationals + basis[:3] + scaled[:3]
    values += [random_scalar(rng, th), dense_scalar(rng, th)]
    for one in (th.one, th.rational(1)):
        for x in values:
            assert x * one is x
            assert one * x is x


def test_equal_values_share_one_key(any_theory):
    rng = random.Random(6)
    a, b = dense_scalar(rng, any_theory), dense_scalar(rng, any_theory)
    half = Scalar(any_theory.field, [Fraction(1, 2)] + [0] * 15)
    routes = [
        (Scalar(any_theory.field, [Fraction(2, 4)] + [0] * 15), half),
        (any_theory.one / 2, half),
        ((a * b) / b, a),
        (a - a, any_theory.zero),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        assert len({left: 0, right: 1}) == 1
        assert left.coeffs == right.coeffs
        assert left.render() == right.render()
    # a shorter list pads with zeros, and a longer one is refused
    assert Scalar(any_theory.field, [Fraction(1, 2)]) == half
    with pytest.raises(ValueError, match="17 coordinates, but the basis has 16"):
        Scalar(any_theory.field, [0] * 16 + [1])


# -- inversion by norm, against Gaussian elimination -----------------------

def gaussian_inverse(a: Scalar) -> Scalar:
    """The inverse by solving the 16x16 rational system of multiplication
    by a; an oracle for the norm route only."""
    table = a.field.table
    m = [[Fraction(0)] * 16 + [Fraction(int(r == 0))] for r in range(16)]
    for p, x in enumerate(a.coeffs):
        if x:
            for q, entries in enumerate(table[p]):
                for r, c in entries:
                    m[r][q] += x * c
    for col in range(16):
        pivot = next(r for r in range(col, 16) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(16):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return Scalar(a.field, [m[r][16] for r in range(16)])


def seeded_scalar(rng: random.Random, theory: Theory, dense: bool, digits: int) -> Scalar:
    coeffs = [Fraction(0)] * 16
    slots = range(16) if dense else rng.sample(range(16), rng.randint(1, 3))
    for p in slots:
        coeffs[p] = Fraction(rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 9))
    return Scalar(theory.field, coeffs)


@pytest.mark.parametrize("eps", ["positive", "negative"])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("digits", [1, 30])
def test_invert_by_norm(eps, dense, digits):
    theory = Theory(eps)
    rng = random.Random(f"{eps}-{dense}-{digits}")
    for n in range(12):
        a = seeded_scalar(rng, theory, dense, digits)
        if a.is_zero:
            continue
        inverse = a.invert()
        assert a * inverse == theory.one
        assert inverse.invert() == a
        if n < 2:
            assert inverse == gaussian_inverse(a)


def test_invert_constants(any_theory):
    for name in ("epsilon", "s", "big_d", "delta", "beta"):
        x = getattr(any_theory, name)
        inverse = x.invert()
        assert x * inverse == any_theory.one, name
        assert inverse == gaussian_inverse(x), name
    for zero in (any_theory.zero, any_theory.s - any_theory.s):
        with pytest.raises(ZeroDivisionError):
            zero.invert()
        with pytest.raises(ZeroDivisionError):
            any_theory.one / zero


def test_closed_form_inverses(any_theory):
    # eps^2 = eps + 1 and D^2 = eps + 2 give each theory its inverses in
    # closed form, which must be the norm tower's in both fields
    th = Theory(any_theory.epsilon_sign, any_theory.beta_sign, x=Fraction(-2, 3))
    for name in ("epsilon", "s", "big_d"):
        assert getattr(th, f"{name}_inv") == getattr(th, name).invert(), name
    e_inv, xs = th.epsilon.invert(), th.x_scalar * th.s
    assert th.associator_block == (e_inv, xs * e_inv, xs.invert(), -e_inv)


# -- roots of unity: exponents mod 20 into the field's shared roots -----------


def test_roots_of_unity_table(any_theory):
    th = any_theory
    assert th.delta == th.phase(1) * th.big_d
    assert th.phase(20) == th.one
    assert th.beta * th.beta_inv == th.one
    for n in list(range(-25, 26)) + [10 ** 6 + 3]:
        assert th.theta(n) == th.beta ** (-2 * n), n
    for k in range(-20, 40):
        assert th.zeta(k) is th.zeta(k + 20)
    # shared by every theory of the same eps sign
    fresh = Theory(th.epsilon_sign, th.beta_sign, x=Fraction(2, 3))
    assert fresh.zeta(7) is th.zeta(7) and fresh.one is th.one


def test_z5_coordinates_round_trip(any_theory):
    # Z[z5], z = z20^2, as integer coordinates at z20^0, 2, 4, 6: seeded
    # elements come back from them, and a value with a denominator, an
    # odd power of z20 or s is refused
    th = any_theory
    rng = random.Random("z5")
    for _ in range(50):
        x = Scalar(th.field, [rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(8)])
        coords = x.z5_coordinates()
        assert all(type(c) is int for c in coords) and Scalar.from_z5(th.field, coords) == x
    assert Scalar.from_z5(th.field, th.theta(3).z5_coordinates()) == th.theta(3)
    assert Scalar.from_z5(th.field, (0, 0, 0, 0)) == th.zero
    for bad in (th.zeta(1), th.s, th.one + th.s, th.epsilon + th.zeta(3),
                th.epsilon * th.rational(Fraction(1, 3)), th.rational(Fraction(1, 2))):
        with pytest.raises(ValueError, match="outside Z\\[z5\\]"):
            bad.z5_coordinates()


def test_from_z5_over_a_denominator(any_theory):
    # integer coordinates over den, in lowest terms: the product by 1/den
    th = any_theory
    rng = random.Random("z5-den")
    for _ in range(50):
        coords = tuple(rng.randint(-30, 30) for _ in range(4))
        den = rng.choice((1, 2, 5, 6, 25, 125))
        x = Scalar.from_z5(th.field, coords, den)
        assert_canonical(x)
        assert x == Scalar.from_z5(th.field, coords) * Fraction(1, den), (coords, den)


# -- pickling: a loaded theory is the local one ---------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

DUMP = """
import pickle, sys
from fibcat import Theory
th = Theory(x=2)
th.epsilon, th.beta, th.delta    # cached before pickling
sys.stdout.buffer.write(pickle.dumps((th, th.epsilon)))
"""

LOAD = """
import pickle, sys
from fibcat import Theory
loaded, eps = pickle.loads(sys.stdin.buffer.read())
fresh = Theory(x=2)
assert loaded == fresh and hash(loaded) == hash(fresh)
assert {fresh: 1}.get(loaded) == 1
assert loaded.epsilon * fresh.epsilon == fresh.epsilon ** 2
assert eps * fresh.epsilon == fresh.epsilon ** 2
print("ok")
"""


def _python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_theory_pickled_under_another_hash_seed_is_found():
    assert _python(LOAD, 2, _python(DUMP, 1)) == b"ok\n"


def test_pickled_theory_and_scalars_mix_with_local_ones(any_theory):
    th = Theory(any_theory.epsilon_sign, any_theory.beta_sign, y=Fraction(-5, 7))
    th.epsilon, th.s    # cached: the pickle must not carry them
    loaded, beta = pickle.loads(pickle.dumps((th, th.beta)))
    assert loaded == th and loaded.field is th.field and beta.field is th.field
    assert loaded.epsilon * th.epsilon == th.epsilon + 1
    assert loaded.s * th.s == th.epsilon
    assert beta * th.beta_inv == th.one
