from __future__ import annotations

import random
from pathlib import Path

import pytest

from fibcat import ALL_THEORIES, Theory
from fibcat.spines import Spine, vertex_triples
from fibcat.tangles import EventKind, LinkEvent

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_fixture(relpath: str) -> str:
    return (FIXTURES / relpath).read_text(encoding="utf-8")


def random_morse_word(rng: random.Random, width: int = 12) -> list[LinkEvent]:
    """A valid event list of at most ``width`` strands: cups up to a random
    width of 4 to ``width``, then cups, caps, crossings and kinks at
    random, then caps until no strand is open."""
    cup, cap = EventKind.CUP, EventKind.CAP
    xp, xn = EventKind.CROSS_POS, EventKind.CROSS_NEG
    events, n = [], 0
    target = rng.randrange(4, width + 1, 2)
    while n < target:
        events.append(LinkEvent(cup, rng.randint(0, n)))
        n += 2
    for _ in range(rng.randint(target, 3 * target)):
        kinds = [cup] if n < width else []
        if n >= 2:
            kinds += [cap, xp, xp, xn, xn, EventKind.TWIST_POS, EventKind.TWIST_NEG]
        kind = rng.choice(kinds)
        if kind is cup:
            pos = rng.randint(0, n)
            n += 2
        elif kind is cap:
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
