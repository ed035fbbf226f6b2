"""The four theories are one: each is the image of the (positive, plus)
theory under the field isomorphism z20 -> z20^k, s -> s.

The map is built here from its own reduction of z20 powers, not from
fibcat's tables, and the exponents are this file's own, so the test pins
them: z20 -> z20^7 also maps onto the (negative, plus) field, but it
sends D to -D, and surgery values pick up the sign (-1)^(sigma + k + 1).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import FIXTURES, random_morse_word
from fibcat import Scalar, Theory
from fibcat import category as cat
from fibcat import spines, tangles
from fibcat.invariants import (continued_fraction_framings, lens_tr_closed_form,
                               tr_link, tr_manifold)
from fibcat.spines import Spine, t_epsilon, tv, vertex_triples
from fibcat.tangles import LinkDiagram, parse_link

K = {("positive", "minus"): 19, ("negative", "minus"): 3, ("negative", "plus"): 17}
PARAMETERS = ((1, 1, 1), (Fraction(2, 3), Fraction(-5, 7), 3))


def _power(n: int) -> list[int]:
    """z20^n over z20^0 .. z20^7: z20^10 = -1, and the 20th cyclotomic
    polynomial gives z20^8 = z20^6 - z20^4 + z20^2 - 1."""
    sign = -1 if n % 20 >= 10 else 1
    m = n % 10
    vec = [0] * 8
    if m < 8:
        vec[m] = sign
    else:
        for i, c in ((6, 1), (4, -1), (2, 1), (0, -1)):
            vec[i + m - 8] = sign * c
    return vec


def image(v: Scalar, k: int, target: Theory) -> Scalar:
    """The image of v, a scalar of the (positive, plus) field, in the
    field of ``target``: the coordinate of z20^i * s^j goes to
    z20^(i k) * s^j."""
    out = [0] * 16
    for p, n in v.terms:
        j = p >> 3
        for i, c in enumerate(_power((p & 7) * k)):
            out[8 * j + i] += n * c
    return Scalar(target.field, [Fraction(n, v.den) for n in out])


def _spine(rng: random.Random) -> Spine:
    """n - 1 vertices on random slots among n components, and two of each
    vertex's triples as triple lines."""
    n = rng.randint(2, 8)
    vertices, edges = [], []
    for _ in range(n - 1):
        v = tuple(rng.randrange(n) for _ in range(6))
        vertices.append(v)
        edges.extend(rng.sample(vertex_triples(v), 2))
    return Spine(n, tuple(edges), tuple(vertices))


def _fixtures() -> list[LinkDiagram]:
    return [parse_link(path.read_text(encoding="utf-8"))
            for path in sorted((FIXTURES / "links").glob("*.txt"))]


def _values(theory: Theory, rng: random.Random) -> list:
    """Every value that the oracle maps, in a fixed order: the seeded
    draws depend on ``rng`` alone, never on the theory."""
    values = []
    words = [LinkDiagram(tuple(random_morse_word(rng, width=8))) for _ in range(10)]
    for diagram in words + _fixtures():
        values.append(tr_link(diagram, theory))
    for diagram in words + _fixtures():
        if diagram.n_components <= 6:
            framings = [rng.randint(-3, 3) for _ in range(diagram.n_components)]
            values.append(tr_manifold(diagram.with_framings(framings), theory))
    for p in range(2, 20):
        for q in range(1, p):
            if gcd(p, q) == 1:
                values.append(lens_tr_closed_form(continued_fraction_framings(p, q),
                                                  theory))
    for _ in range(10):
        spine = _spine(rng)
        values += [tv(spine, theory), t_epsilon(spine, theory)]
    for kind in ("cup", "cap", "xp", "xn"):
        for window, entries in sorted(tangles._table(kind, theory.epsilon_sign,
                                                     theory.beta_sign).items()):
            # each value, gauged by a power of s, which the map fixes
            values += [window] + [e for new, coords in entries
                                  for e in (new, Scalar.from_z5(theory.field, coords))]
    values += [theory.epsilon_inv, theory.s_inv, theory.big_d_inv, *theory.associator_block]
    values += [spines._sixj_unit(p, theory) for p in spines._SIXJ_UNIT]
    values += [spines._pairing_unit(n, theory) for n in (0, 2, 3)]
    return values


@pytest.mark.parametrize("signs", sorted(K), ids="-".join)
@pytest.mark.parametrize("xyz", PARAMETERS, ids=("unit", "rational"))
def test_theories_are_galois_images(signs, xyz):
    k = K[signs]
    source = Theory("positive", "plus", *xyz)
    target = Theory(*signs, *xyz)
    assert image(source.epsilon, k, target) == target.epsilon
    assert image(source.s, k, target) == target.s
    expected = _values(source, random.Random(f"galois-{xyz}"))
    got = _values(target, random.Random(f"galois-{xyz}"))
    assert len(got) == len(expected)
    for i, (mine, theirs) in enumerate(zip(got, expected)):
        if isinstance(theirs, Scalar):
            theirs = image(theirs, k, target)
        assert mine == theirs, (i, mine, theirs)


def test_image_is_a_ring_homomorphism():
    # the map of this file, on seeded dense scalars
    rng = random.Random("galois-ring")
    source = Theory()
    for signs, k in K.items():
        target = Theory(*signs)
        for _ in range(10):
            a, b = (Scalar(source.field, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                          for _ in range(16)]) for _ in range(2))
            assert image(a * b, k, target) == image(a, k, target) * image(b, k, target)
            assert image(a + b, k, target) == image(a, k, target) + image(b, k, target)
