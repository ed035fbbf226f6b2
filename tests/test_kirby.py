"""Kirby moves as an exact oracle for ``tr_manifold``.

A blow-up (a +-1 framed unknot around some strands, against a full
twist of those strands), a disjoint +-1 unknot and a mirror image change
the framed link but not the manifold, or reverse its orientation: tr is
unchanged, or conjugated by the mirror.  They are the moves that change
the signature and the component count of a diagram, so they check the
normalization phase(sigma) D^(-k-1) and ``signature`` on linking
matrices that are not chains.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_morse_word
from fibcat import ALL_THEORIES, Theory
from fibcat.invariants import tr_manifold
from fibcat.tangles import LinkDiagram, LinkEvent

CUP, CAP = "cup", "cap"
XP, XN = "xp", "xn"
_MIRROR = {XP: XN, XN: XP, "tp": "tn", "tn": "tp"}

THEORIES = ALL_THEORIES + (Theory(x=Fraction(2, 3), y=Fraction(-5, 7), z=3),)


def _name(theory: Theory) -> str:
    return f"{theory.epsilon_sign}-{theory.beta_sign}-{theory.x}-{theory.y}-{theory.z}"


def _word(rng: random.Random) -> tuple[list[LinkEvent], list[int], list[int]]:
    """A seeded Morse word, the strands open before each of its events
    (and after the last), and a framing in -2..2 per component."""
    events = random_morse_word(rng, width=6)
    widths, n = [], 0
    for ev in events:
        widths.append(n)
        n += {CUP: 2, CAP: -2}.get(ev.kind, 0)
    widths.append(n)
    framings = [rng.randint(-2, 2) for _ in range(LinkDiagram(tuple(events)).n_components)]
    return events, widths, framings


def _tr(events, framings, theory: Theory):
    return tr_manifold(LinkDiagram(tuple(events), tuple(enumerate(framings))), theory)


@pytest.mark.parametrize("sign", (1, -1), ids=("plus", "minus"))
@pytest.mark.parametrize("theory", THEORIES, ids=_name)
def test_blow_up(theory, sign):
    # a circle U framed +1 around m adjacent strands is a full twist of
    # xn crossings on them with framings f_i - lk_i^2 (U framed -1: xp
    # crossings, f_i + lk_i^2), lk_i the linking number of U with
    # component i
    rng = random.Random(f"blow-up {sign} {_name(theory)}")
    for trial in range(30):
        m = trial % 3 + 1
        events, widths, framings = _word(rng)
        i = rng.choice([i for i, n in enumerate(widths) if n >= m])
        p = rng.randint(0, widths[i] - m)
        loop = ([LinkEvent(CUP, p)] + [LinkEvent(XP, q) for q in range(p + 1, p + m + 1)]
                + [LinkEvent(XN, q) for q in range(p, p + m)] + [LinkEvent(CAP, p + m)])
        combined = events[:i] + loop + events[i:]
        diagram = LinkDiagram(tuple(combined))
        u = diagram.event_components[i][0]
        lk = [0] * diagram.n_components
        for (a, b), v in diagram.linking:
            if u in (a, b):
                lk[a + b - u] = v
        del lk[u]
        twist = [LinkEvent(XN if sign > 0 else XP, q)
                 for _ in range(m) for q in range(p, p + m - 1)]
        blown_down = [f - sign * v * v for f, v in zip(framings, lk)]
        assert _tr(combined, framings[:u] + [sign] + framings[u:], theory) \
            == _tr(events[:i] + twist + events[i:], blown_down, theory), (events, i, p, m)


@pytest.mark.parametrize("theory", THEORIES, ids=_name)
def test_disjoint_unit_unknot(theory):
    # S^3 summed on: a +-1 unknot apart from the rest changes nothing
    rng = random.Random(f"disjoint {_name(theory)}")
    for _ in range(40):
        events, widths, framings = _word(rng)
        i = rng.randrange(len(widths))
        p = rng.randint(0, widths[i])
        combined = events[:i] + [LinkEvent(CUP, p), LinkEvent(CAP, p)] + events[i:]
        u = LinkDiagram(tuple(combined)).event_components[i][0]
        sign = rng.choice((1, -1))
        assert _tr(combined, framings[:u] + [sign] + framings[u:], theory) \
            == _tr(events, framings, theory), (events, i)


@pytest.mark.parametrize("theory", THEORIES, ids=_name)
def test_mirror_conjugates(theory):
    # the mirror image presents the manifold with its orientation reversed
    rng = random.Random(f"mirror {_name(theory)}")
    for _ in range(40):
        events, _, framings = _word(rng)
        mirror = [LinkEvent(_MIRROR.get(ev.kind, ev.kind), ev.pos) for ev in events]
        assert _tr(mirror, [-f for f in framings], theory) \
            == _tr(events, framings, theory).conjugate(), events
