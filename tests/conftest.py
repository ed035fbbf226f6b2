from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fibcat import ALL_THEORIES, Theory
from fibcat.category import A, ONE
from fibcat.spines import SPHERE_SPINE, Spine, vertex_triples
from fibcat.tangles import LinkDiagram, LinkEvent

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# each (eps, beta) theory at unit parameters and at x, y, z = 2/3, -5/7, 3
PARAMETER_THEORIES = ALL_THEORIES + tuple(
    Theory(t.epsilon_sign, t.beta_sign, Fraction(2, 3), Fraction(-5, 7), 3)
    for t in ALL_THEORIES)


def theory_id(t: Theory) -> str:
    return f"{t.epsilon_sign}-{t.beta_sign}-{t.x}-{t.y}-{t.z}"


def expansion_labels(x_word, y_word):
    """X (x) Y and, per letter, its origin (i, j, t): the pair (x_i, y_j),
    pairs taken lexicographically, and its summand t, where a pair of
    A's gives its 1-summand then its A-summand; built apart from the
    offset rule of ``category._starts`` as a reference."""
    word, labels = "", []
    for i, x in enumerate(x_word):
        for j, y in enumerate(y_word):
            summands = ONE + A if x == y == A else (A if A in (x, y) else ONE)
            word += summands
            labels += [(i, j, t) for t in range(len(summands))]
    return word, tuple(labels)


def read_fixture(relpath: str) -> str:
    return (FIXTURES / relpath).read_text(encoding="utf-8")


def random_morse_word(rng: random.Random, width: int = 12) -> list[LinkEvent]:
    """A valid event list of at most ``width`` strands: cups up to a random
    width of 4 to ``width``, then cups, caps, crossings and kinks at
    random, then caps until no strand is open."""
    cup, cap = "cup", "cap"
    xp, xn = "xp", "xn"
    events, n = [], 0
    target = rng.randrange(4, width + 1, 2)
    while n < target:
        events.append(LinkEvent(cup, rng.randint(0, n)))
        n += 2
    for _ in range(rng.randint(target, 3 * target)):
        kinds = [cup] if n < width else []
        if n >= 2:
            kinds += [cap, xp, xp, xn, xn, "tp", "tn"]
        kind = rng.choice(kinds)
        if kind == cup:
            pos = rng.randint(0, n)
            n += 2
        elif kind == cap:
            pos = rng.randrange(n - 1)
            n -= 2
        elif kind in (xp, xn):
            pos = rng.randrange(n - 1)
        else:
            pos = rng.randrange(n)
        events.append(LinkEvent(kind, pos))
    while n:
        events.append(LinkEvent(cap, rng.randrange(n - 1)))
        n -= 2
    return events


def surface_bundle_events(g: int) -> list[LinkEvent]:
    """The events of ``surface_bundle_link(g)``: g Borromean rings side
    by side, each the closure of the 3-braid (s1 s2^-1)^3 on its six
    strands 6j .. 6j + 5, with the first component of each copy banded to
    the next copy's by a cap and a cup at the seam."""
    events = []
    for j in range(g):
        events += [LinkEvent("cup", 6 * j + i) for i in range(3)]
    for j in range(g):
        events += [LinkEvent("xp", 6 * j), LinkEvent("xn", 6 * j + 1)] * 3
    for j in range(g - 1):
        events += [LinkEvent("cap", 6 * j + 5), LinkEvent("cup", 6 * j + 5)]
    for j in reversed(range(g)):
        events += [LinkEvent("cap", 6 * j + i) for i in (2, 1, 0)]
    return events


def copy_by_copy_events(g: int) -> list[LinkEvent]:
    """The same link drawn one copy at a time: copy 0 on strands 0 .. 5
    leaves K, component 0, open on strands 0 and 1; each further copy is
    drawn on strands 2 .. 7 and banded to K by a cap and a cup at strand
    1; K closes last.  At most 8 strands and 3 open components, whatever g."""
    events = [LinkEvent("cup", i) for i in range(3)]
    events += [LinkEvent("xp", 0), LinkEvent("xn", 1)] * 3
    events += [LinkEvent("cap", 2), LinkEvent("cap", 1)]
    for _ in range(g - 1):
        events += [LinkEvent("cup", i) for i in (2, 3, 4)]
        events += [LinkEvent("xp", 2), LinkEvent("xn", 3)] * 3
        events += [LinkEvent("cap", 1), LinkEvent("cup", 1)]
        events += [LinkEvent("cap", i) for i in (4, 3, 2)]
    return events + [LinkEvent("cap", 0)]


def surface_bundle_link(g: int, drawing=surface_bundle_events) -> LinkDiagram:
    """0-surgery on this link of 2g + 1 components is Sigma_g x S^1, whose
    tr is Verlinde's dim V(Sigma_g) = D^(2g-2) (1 + eps^(2-2g)); its
    component 0 is the banded curve K, and K framed n makes it the circle
    bundle of Euler number n over Sigma_g.  ``drawing`` is
    ``surface_bundle_events`` or ``copy_by_copy_events``."""
    diagram = LinkDiagram(tuple(drawing(g)))
    return diagram.with_framings([0] * diagram.n_components)


def random_spine(n_components: int, rng: random.Random) -> Spine:
    """n-1 vertices with random slots; two of each vertex's four triples
    become triple lines, so every triple line is one of its vertices'
    triples and tv = t at unit parameters."""
    vertices, edges = [], []
    for _ in range(n_components - 1):
        v = tuple(rng.randrange(n_components) for _ in range(6))
        vertices.append(v)
        edges.extend(rng.sample(vertex_triples(v), 2))
    return Spine(n_components, tuple(edges), tuple(vertices))


def banded_spine(n_components: int, rng: random.Random) -> Spine:
    """Like ``random_spine``, but each vertex's slots come from a window
    of four consecutive components, so the elimination width stays small."""
    vertices, edges = [], []
    for _ in range(n_components - 1):
        low = rng.randrange(n_components - 3)
        v = tuple(low + rng.randrange(4) for _ in range(6))
        vertices.append(v)
        edges.extend(rng.sample(vertex_triples(v), 2))
    return Spine(n_components, tuple(edges), tuple(vertices))


def sphere_union(copies: int) -> Spine:
    """``copies`` disjoint copies of the sphere spine."""
    n = SPHERE_SPINE.n_components
    shift = lambda slots, k: tuple(c + k * n for c in slots)
    return Spine(n * copies,
                 tuple(shift(e, k) for k in range(copies) for e in SPHERE_SPINE.edges),
                 tuple(shift(v, k) for k in range(copies) for v in SPHERE_SPINE.vertices))


@pytest.fixture
def theory() -> Theory:
    return Theory()


@pytest.fixture(params=ALL_THEORIES,
                ids=lambda t: f"{t.epsilon_sign}-{t.beta_sign}")
def any_theory(request) -> Theory:
    return request.param


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
