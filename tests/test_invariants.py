from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (PARAMETER_THEORIES, copy_by_copy_events, random_morse_word,
                      read_fixture, surface_bundle_events, surface_bundle_link,
                      theory_id)
from fibcat import ALL_THEORIES, Scalar, Theory
from fibcat import invariants
from fibcat.category import A, ONE
from fibcat.invariants import (c_function, continued_fraction_framings,
                               expand_minus_continued_fraction,
                               hopf_tr_closed_form, lens_space_framed_link,
                               lens_tr_closed_form, normalized, signature,
                               tr_link, tr_manifold)
from fibcat.tangles import (MAX_OPEN_COMPONENTS, LinkDiagram, LinkEvent,
                            build_hopf_chain, evaluate, evaluate_all_a, parse_link)


@pytest.fixture
def th():
    return Theory()


@pytest.fixture
def trefoil():
    return parse_link(read_fixture("links/trefoil.txt"))


@pytest.fixture
def unknot():
    return parse_link(read_fixture("links/unknot.txt"))


# -- tr for links -----------------------------------------------------------------

def test_tr_unknot(unknot, any_theory):
    assert tr_link(unknot, any_theory) == any_theory.one


def test_tr_trefoil(trefoil, any_theory):
    b, e = any_theory.beta, any_theory.epsilon
    assert tr_link(trefoil, any_theory) == (b / e) * (2 * b - 1)


def test_tr_hopf(th):
    assert tr_link(build_hopf_chain(2), th) == -th.one / th.epsilon


def test_tr_reidemeister_one_invariance(th, trefoil):
    kinked = parse_link(
        "link\ncup 0\ncup 2\ntp 1\nxp 1\nxp 1\nxp 1\ntn 3\ntp 0\ncap 0\ncap 0\nend\n")
    assert kinked.total_writhe() == 4
    assert tr_link(kinked, th) == tr_link(trefoil, th)


# -- randomized move invariance ---------------------------------------------------------

CUP, CAP = "cup", "cap"
XP, XN = "xp", "xn"
INVERSE = {XP: XN, XN: XP}


def _insert(events: list[LinkEvent], rng: random.Random, width: int, *moves):
    """One copy of ``events`` per move, each with the move's events for
    strands p .. p + width - 1 inserted at the same random point and p.
    A move is a list of (kind, offset from p)."""
    spots, n = [], 0
    for i, ev in enumerate(events):
        n += 2 if ev.kind == CUP else -2 if ev.kind == CAP else 0
        if n >= width:
            spots.append((i + 1, n))
    i, n = rng.choice(spots)
    p = rng.randrange(n - width + 1)
    return [events[:i] + [LinkEvent(k, p + d) for k, d in move] + events[i:]
            for move in moves]


def _random_r3(rng: random.Random):
    """The two sides of a braid relation on three strands: s1 s2 s1 =
    s2 s1 s2 with one crossing kind for s, or s1^e s2^d s1^-e =
    s2^-e s1^d s2^e with e and d each either kind."""
    e, d = rng.choice((XP, XN)), rng.choice((XP, XN))
    if rng.random() < 0.5:
        return [(e, 0), (e, 1), (e, 0)], [(e, 1), (e, 0), (e, 1)]
    return [(e, 0), (d, 1), (INVERSE[e], 0)], [(INVERSE[e], 1), (d, 0), (e, 1)]


MOVE_THEORIES = ALL_THEORIES + (Theory(x=Fraction(2, 3), y=Fraction(-5, 7), z=3),)


def _move_rng(name: str, theory: Theory) -> random.Random:
    return random.Random(f"{name}-{theory.epsilon_sign}-{theory.beta_sign}-{theory.x}")


@pytest.mark.parametrize("theory", MOVE_THEORIES,
                         ids=lambda t: f"{t.epsilon_sign}-{t.beta_sign}-{t.x}")
def test_tr_link_invariant_under_random_moves(theory):
    # R-II pairs and zigzags (the cup/cap move) inserted at random points
    # of random words up to 12 strands wide, and the two sides of an R-III
    # move inserted at the same point of a word
    rng = _move_rng("moves", theory)
    for _ in range(20):
        events = random_morse_word(rng)
        base = tr_link(LinkDiagram(tuple(events)), theory)
        moved = events
        for _ in range(3):
            x = rng.choice((XP, XN))
            (moved,) = _insert(moved, rng, 2, [(x, 0), (INVERSE[x], 0)])
            zigzag = rng.choice(([(CUP, 1), (CAP, 0)], [(CUP, 0), (CAP, 1)]))
            (moved,) = _insert(moved, rng, 1, zigzag)
        assert tr_link(LinkDiagram(tuple(moved)), theory) == base, moved
        one, other = _insert(events, rng, 3, *_random_r3(rng))
        assert tr_link(LinkDiagram(tuple(one)), theory) \
            == tr_link(LinkDiagram(tuple(other)), theory), one


@pytest.mark.parametrize("theory", MOVE_THEORIES,
                         ids=lambda t: f"{t.epsilon_sign}-{t.beta_sign}-{t.x}")
def test_curl_scales_evaluation(theory):
    # an R-I curl is one crossing of sign +-1 on one strand, and scales
    # the evaluation by beta^-+2
    rng = _move_rng("curl", theory)
    for _ in range(20):
        events = random_morse_word(rng)
        x = rng.choice((XP, XN))
        curl = rng.choice(([(CUP, 1), (x, 0), (CAP, 1)], [(CUP, 0), (x, 1), (CAP, 0)]))
        diagram = LinkDiagram(tuple(events))
        (curled,) = _insert(events, rng, 1, curl)
        curled = LinkDiagram(tuple(curled))
        sign = curled.total_writhe() - diagram.total_writhe()
        assert sign in (1, -1)
        assert evaluate_all_a(curled, theory) \
            == evaluate_all_a(diagram, theory) * theory.beta ** (-2 * sign)


@pytest.mark.parametrize("theory", MOVE_THEORIES,
                         ids=lambda t: f"{t.epsilon_sign}-{t.beta_sign}-{t.x}")
def test_tr_manifold_invariant_under_random_moves(theory):
    # the moves of test_tr_link_invariant_under_random_moves keep every
    # component's number, self-writhe and linking numbers, so the same
    # framings apply on both sides
    rng = _move_rng("surgery-moves", theory)

    def tr(word, framings):
        return tr_manifold(LinkDiagram(tuple(word)).with_framings(framings),
                           theory)

    def draw_framings(word):
        return tuple(rng.randint(-3, 3) for _ in range(LinkDiagram(tuple(word)).n_components))

    for _ in range(12):
        events = random_morse_word(rng)
        framings = draw_framings(events)
        moved = events
        for _ in range(3):
            x = rng.choice((XP, XN))
            (moved,) = _insert(moved, rng, 2, [(x, 0), (INVERSE[x], 0)])
            zigzag = rng.choice(([(CUP, 1), (CAP, 0)], [(CUP, 0), (CAP, 1)]))
            (moved,) = _insert(moved, rng, 1, zigzag)
        assert tr(moved, framings) == tr(events, framings), moved
        one, other = _insert(events, rng, 3, *_random_r3(rng))
        framings = draw_framings(one)
        assert tr(one, framings) == tr(other, framings), one


# -- framed links and linking matrices ----------------------------------------------

def test_framing_scalar_matches_drawn_kinks(unknot, any_theory):
    for framing, kinks in ((4, "tp 0\n" * 4), (-2, "tn 0\n" * 2)):
        kinked = parse_link(f"link\ncup 0\n{kinks}cap 0\nend\n")
        assert tr_manifold(unknot.with_framings((framing,)), any_theory) \
            == tr_manifold(kinked, any_theory)


def test_framed_link_from_file_framings():
    d = parse_link(read_fixture("links/trefoil_framed1.txt"))
    assert d.framings() == [1]
    assert d.with_framings(d.framings()) == d


def test_huge_framing_is_a_scalar(unknot, any_theory):
    # beta^2 has order 5, and the signature is 1 at both framings
    value = tr_manifold(unknot.with_framings((1000000,)), any_theory)
    assert value == tr_manifold(unknot.with_framings((10,)), any_theory)
    assert value == lens_tr_closed_form((1000000,), any_theory)


# the linking matrix of a diagram is its framings on the diagonal and its
# ``linking`` pairs off it

def test_linking_matrix_hopf():
    framed = build_hopf_chain(2, (0, 0))
    assert framed.framings() == [0, 0]
    [((i, j), v)] = framed.linking
    assert (i, j) == (0, 1) and abs(v) == 1


def test_linking_matrix_split_unlink():
    d = parse_link("link\ncup 0\ncup 1\ncap 1\ncap 0\nend\nframing 0=1\nframing 1=-2\n")
    assert (d.framings(), d.linking) == ([1, -2], ())


def test_linking_matrix_chain_tridiagonal():
    framed = build_hopf_chain(3, (5, -1, 2))
    assert framed.framings() == [5, -1, 2]
    linking = dict(framed.linking)
    assert linking.keys() == {(0, 1), (1, 2)}
    assert abs(linking[0, 1]) == 1 and abs(linking[1, 2]) == 1


# -- signature -----------------------------------------------------------------------

def _split(matrix):
    """The diagonal of a dense symmetric matrix, and its pairs above it."""
    n = len(matrix)
    return ([matrix[i][i] for i in range(n)],
            [((i, j), matrix[i][j]) for i in range(n) for j in range(i + 1, n)])


def _chain_pairs(k):
    """The linked pairs of a chain of k circles."""
    return [((i, i + 1), 1) for i in range(k - 1)]


def _chain(framings):
    """The dense linking matrix of a chain of circles."""
    m = [[0] * len(framings) for _ in framings]
    for i, f in enumerate(framings):
        m[i][i] = f
        if i:
            m[i][i - 1] = m[i - 1][i] = 1
    return m


def test_signature_examples():
    assert signature(*_split([[1]])) == 1
    assert signature(*_split([[0, 1], [1, 0]])) == 0
    assert signature(*_split([[1, 0, 0], [0, -2, 0], [0, 0, 3]])) == 1
    assert signature(*_split([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == -1
    assert signature(*_split([[0, 0], [0, 0]])) == 0
    assert signature((0, 0), [((1, 0), 0)]) == 0
    assert signature((), ()) == 0
    assert signature(*_split(_chain([2] * 1100))) == 1100
    # determinant -1: a float multiplier rounds the second pivot to 0
    n = 10 ** 20
    assert signature((n + 1, n - 1), [((0, 1), n)]) == 0


def test_signature_input_validation():
    # a pair must name an entry of the matrix off its diagonal
    for diagonal, pair in (((0,), (0, 1)), ((0,), (0, -1)), ((0, 0), (2, 0)),
                           ((0, 0), (-1, 1)), ((1, 2), (1, 1))):
        with pytest.raises(ValueError, match="off a .* matrix or on its diagonal"):
            signature(diagonal, [(pair, 1)])
    # and be given once, in either orientation and with any value
    for pairs in ([((0, 1), 1), ((1, 0), 1)], [((0, 1), 1), ((0, 1), 1)],
                  [((1, 0), 0), ((0, 1), 2)], [((0, 1), 0), ((1, 0), 0)]):
        (i, j), _ = pairs[1]
        with pytest.raises(ValueError, match=rf"pair \({i}, {j}\) is given twice"):
            signature((1, 1), pairs)


def _dense_signature(matrix) -> int:
    """Signature by dense symmetric elimination over the integers.

    Pivoting on a nonzero diagonal entry a turns every other entry m_ij
    into a m_ij - m_ip m_pj, which is a times the Schur complement, so
    each later pivot's sign is read against the sign of the product of
    the pivots so far.  With no nonzero diagonal entry left, adding row
    and column c to row and column r (a congruence) makes entry (r, r)
    equal to 2 m_rc."""
    m = [list(row) for row in matrix]
    live = list(range(len(m)))
    sigma, sign = 0, 1
    while live:
        p = next((i for i in live if m[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live if m[i][j]), None)
            if pair is None:
                break
            r, c = pair
            for j in live:
                m[r][j] += m[c][j]
            for i in live:
                m[i][r] += m[i][c]
            continue
        live.remove(p)
        a, mp = m[p][p], m[p]
        sigma += sign if a > 0 else -sign
        sign = sign if a > 0 else -sign
        for i in live:
            mi, x = m[i], mp[i]
            for j in live:
                mi[j] = a * mi[j] - x * mp[j]
    return sigma


def test_signature_matches_dense_elimination_on_chains():
    for k in range(1, 7):
        for framings in itertools.product(range(-3, 4), repeat=k):
            assert signature(framings, _chain_pairs(k)) \
                == _dense_signature(_chain(framings)), framings


def test_signature_matches_dense_elimination_on_random_matrices():
    rng = random.Random(5)
    for _ in range(300):
        m = _random_symmetric(rng, rng.randint(1, 7))
        assert signature(*_split(m)) == _dense_signature(m), m


def test_signature_matches_dense_elimination_on_sparse_matrices():
    # most diagonal entries vanish, so zero pivots meet at every depth of
    # the elimination, also after earlier pivots have filled rows in
    rng = random.Random(17)
    zero_pivots = 0
    for _ in range(3000):
        n = rng.randint(2, 10)
        density = rng.choice([0.2, 0.35, 0.5])
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.25:
                m[i][i] = rng.choice([-2, -1, 1, 2])
            for j in range(i + 1, n):
                if rng.random() < density:
                    m[i][j] = m[j][i] = rng.choice([-2, -1, 1, 2])
        zero_pivots += sum(1 for i in range(n) if not m[i][i])
        assert signature(*_split(m)) == _dense_signature(m), m
    assert zero_pivots > 10000


def test_signature_gcds_stay_small_on_long_chains(monkeypatch):
    # the pivots of a chain of fives are ratios of continuants thousands
    # of bits long; a gcd of two of them would make the chain quadratic
    smaller_bits = []

    def recording_gcd(a, b):
        smaller_bits.append(min(abs(a).bit_length(), abs(b).bit_length()))
        return gcd(a, b)

    monkeypatch.setattr(math, "gcd", recording_gcd)    # Fraction's gcd
    assert signature((5,) * 2000, _chain_pairs(2000)) == 2000
    assert smaller_bits and max(smaller_bits) < 64


def test_signature_of_random_links_matches_dense_elimination():
    # the link route: a diagram's framings and linking pairs, in any order
    # and either orientation, against the dense matrix built from them
    rng = random.Random(22)
    linked = 0
    for _ in range(200):
        diagram = LinkDiagram(tuple(random_morse_word(rng, width=12)))
        k = diagram.n_components
        d = diagram.with_framings(tuple(rng.randint(-3, 3) for _ in range(k)))
        dense = [[0] * k for _ in range(k)]
        for i, f in enumerate(d.framings()):
            dense[i][i] = f
        for (i, j), v in d.linking:
            dense[i][j] = dense[j][i] = v
        sigma = signature(d.framings(), d.linking)
        assert sigma == _dense_signature(dense), (diagram.events, d.framings())
        pairs = [((j, i), v) if rng.random() < 0.5 else ((i, j), v)
                 for (i, j), v in d.linking]
        rng.shuffle(pairs)
        assert signature(d.framings(), pairs) == sigma
        linked += len(d.linking)
    assert linked > 40


def test_signature_pivots_leaves_before_their_hub(monkeypatch):
    # a key ring's linking matrix is a star whose hub, the ring, is row 0:
    # pivoting the keys first fills nothing in, so the entry updates grow
    # linearly with the keys (taking the hub first made them quadratic),
    # and the signature is that of the star with its hub last
    adds = []
    add = invariants._add

    def counting(*args):
        adds.append(args[1])
        return add(*args)

    monkeypatch.setattr(invariants, "_add", counting)
    rng = random.Random(31)
    counts = []
    for n in (100, 200, 400):
        keys = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        hub = rng.randint(-3, 3)
        adds.clear()
        first = signature([hub] + keys, [((0, i + 1), 1) for i in range(n)])
        counts.append(len(adds))
        assert first == signature(keys + [hub], [((i, n), 1) for i in range(n)])
        schur = hub - sum(Fraction(1, f) for f in keys)
        assert first == sum(1 if f > 0 else -1 for f in keys) + (schur > 0) - (schur < 0)
    assert counts[2] <= 4 * counts[0], counts


def test_signature_work_bound(monkeypatch):
    # 20,000 fives are admitted, one six among them is not: an admitted
    # matrix reaches its first pivot, and a refused one is refused before
    class Pivoted(Exception):
        pass

    def refuse(*_):
        raise Pivoted

    monkeypatch.setattr(invariants, "_pivot", refuse)
    fives = (5,) * 20000
    with pytest.raises(Pivoted):
        signature(fives, _chain_pairs(20000))
    for framings, pairs in ((fives[1:] + (6,), _chain_pairs(20000)),
                            ((10007,) * 20000, _chain_pairs(20000)),
                            ((10 ** 100,) * 1553, _chain_pairs(1553)),
                            ((10 ** 100,) * 2000, _chain_pairs(2000))):
        with pytest.raises(ValueError, match=f"exceeds {invariants.MAX_SIGNATURE_WORK}"):
            signature(framings, pairs)
    with pytest.raises(Pivoted):
        signature((10 ** 100,) * 1552, _chain_pairs(1552))


def _random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    return m


def test_signature_invariance_under_reorientation_and_permutation():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _random_symmetric(rng, n)
        base = signature(*_split(m))
        i = rng.randrange(n)
        flipped = [row[:] for row in m]
        for j in range(n):
            flipped[i][j] = -flipped[i][j]
        for j in range(n):
            flipped[j][i] = -flipped[j][i]
        assert signature(*_split(flipped)) == base
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert signature(*_split(permuted)) == base


# -- tr for manifolds ----------------------------------------------------------------

def test_tr_sphere_empty_link(any_theory):
    framed = parse_link("link\nend\n")
    assert tr_manifold(framed, any_theory) == any_theory.big_d.invert()


def test_tr_poincare_sphere(trefoil, any_theory):
    framed = trefoil.with_framings((1,))
    e, b = any_theory.epsilon, any_theory.beta
    expected = (any_theory.delta * (1 + e * (b ** 4 + 2))
                * any_theory.big_d.invert() ** 3)
    assert tr_manifold(framed, any_theory) == expected


def test_tr_lens_4_1(unknot, any_theory):
    framed = unknot.with_framings((4,))
    e, b = any_theory.epsilon, any_theory.beta
    expected = (e + 1) * (1 + b) ** 2 * any_theory.big_d.invert() ** 3
    assert tr_manifold(framed, any_theory) == expected


def test_tr_squared_is_real_nonnegative(th, unknot, trefoil):
    # |tr|^2 (eps+2) equals the real state-sum invariant, so it is fixed
    # by conjugation and embeds to a nonnegative real; it is moreover
    # exactly rational on the lens-space fixtures (where it equals 1)
    fixtures = [
        parse_link("link\nend\n"),
        unknot.with_framings((1,)),
        unknot.with_framings((4,)),
        trefoil.with_framings((1,)),
        build_hopf_chain(3, (2, 0, -1)),
    ]
    for framed in fixtures:
        value = tr_manifold(framed, th)
        squared = value.conjugate() * value * (th.epsilon + 2)
        assert squared.conjugate() == squared
        embedded = squared.embed()
        assert abs(embedded.imag) < 1e-12 and embedded.real >= 0
    for framings in ((1,), (4,)):
        value = tr_manifold(unknot.with_framings(framings), th)
        squared = value.conjugate() * value * (th.epsilon + 2)
        assert squared.is_rational and squared.as_rational() == 1


# -- closed forms ----------------------------------------------------------------------

def _coloring_sum(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """tr_manifold as the sum of ``evaluate`` over all 2^k colorings, each
    weighted by eps beta^(-2 (f_i - w_i)) per A-colored component i."""
    k = diagram.n_components
    sigma = signature(diagram.framings(), diagram.linking)
    excess = [f - w for f, w in zip(diagram.framings(), diagram.self_writhes())]
    total = theory.zero
    for colors in itertools.product((ONE, A), repeat=k):
        kinks = sum(d for d, c in zip(excess, colors) if c == A)
        weight = theory.epsilon ** colors.count(A) * theory.beta ** (-2 * kinks)
        total = total + weight * evaluate(diagram, colors, theory)
    return theory.delta ** sigma * theory.big_d ** (-sigma - k - 1) * total


@pytest.mark.parametrize("theory", MOVE_THEORIES,
                         ids=lambda t: f"{t.epsilon_sign}-{t.beta_sign}-{t.x}")
def test_tr_manifold_matches_coloring_sum(theory):
    # seeded random words of width <= 8 with drawn kinks and three to
    # seven components (so that components open and close around each
    # other, and the 2^k oracle stays cheap), and Hopf chains k <= 6, with
    # random framings in -3..3
    rng = _move_rng("coloring-sum", theory)
    cases = []
    while len(cases) < 16:
        diagram = LinkDiagram(tuple(random_morse_word(rng, width=8)))
        if 3 <= diagram.n_components <= 7:
            cases.append(diagram)
    cases += [build_hopf_chain(k) for k in range(1, 7)]
    for diagram in cases:
        spans = [range(f, last + 1)
                 for f, last in zip(diagram.first_events, diagram.last_events)]
        assert diagram.peak_open() == max(sum(idx in span for span in spans)
                                          for idx in range(len(diagram.events)))
        framings = tuple(rng.randint(-3, 3) for _ in range(diagram.n_components))
        framed = diagram.with_framings(framings)
        assert tr_manifold(framed, theory) == _coloring_sum(framed, theory), \
            (diagram.events, framings)


def test_tr_manifold_long_chain_matches_closed_form(any_theory):
    # a chain keeps at most two components open, so its sweep is linear
    rng = random.Random(f"long-chain-{any_theory.epsilon_sign}-{any_theory.beta_sign}")
    for k in (40, 80):
        framings = tuple(rng.randint(-3, 3) for _ in range(k))
        framed = build_hopf_chain(k).with_framings(framings)
        assert framed.peak_open() == 2
        assert tr_manifold(framed, any_theory) == lens_tr_closed_form(framings, any_theory)


def _torus_knot(p: int, q: int, kind: str) -> LinkDiagram:
    """The closure of the braid (s_1 .. s_(p-1))^q on 2p strands, the
    torus knot T(p, q) with crossings ``xp`` and its mirror with ``xn``:
    p nested cups, q times the crossings at 0 .. p - 2, then p caps."""
    return LinkDiagram(tuple([LinkEvent(CUP, i) for i in range(p)]
                             + [LinkEvent(kind, j) for _ in range(q) for j in range(p - 1)]
                             + [LinkEvent(CAP, p - 1 - i) for i in range(p)]))


# every T(p, q) with 2 <= p < q, gcd 1 and pq <= 40, and three of up to
# 16 strands
TORUS_KNOTS = [(p, q) for q in range(3, 21) for p in range(2, q)
               if gcd(p, q) == 1 and p * q <= 40] + [(6, 7), (7, 8), (8, 9)]


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_torus_knot_surgery_is_a_lens_space(theory):
    # Moser, "Elementary surgery along a torus knot" (Pacific J. Math. 38,
    # 1971): surgery on T(p, q) with framing P = pq +- 1 is the lens
    # space L(P, q^2), and on the mirror with framing -P its mirror
    # image, whose invariant is the conjugate.  Wide knots at non-unit
    # x, y, z meet the sweep's tables of the unit theories
    assert len(TORUS_KNOTS) == 25
    for p, q in TORUS_KNOTS:
        knot, mirror = _torus_knot(p, q, XP), _torus_knot(p, q, XN)
        for big_p in (p * q - 1, p * q + 1):
            lens = lens_tr_closed_form(continued_fraction_framings(big_p, q * q % big_p),
                                       theory)
            assert tr_manifold(knot.with_framings((big_p,)), theory) == lens, (p, q, big_p)
            assert tr_manifold(mirror.with_framings((-big_p,)), theory) \
                == lens.conjugate(), (p, q, big_p)


# The parameter t of the Jones polynomial in each theory: z20^(16 k) for
# the theory's Galois exponent k (``test_galois.K``, and 1 for (positive,
# plus)), found by a float search over the 40th roots of unity
JONES_T = {("positive", "plus"): 16, ("positive", "minus"): 4,
           ("negative", "plus"): 12, ("negative", "minus"): 8}

# every T(p, q) with 2 <= p < q <= 9 and gcd 1, up to 16 strands
JONES_KNOTS = [(p, q) for q in range(3, 10) for p in range(2, q) if gcd(p, q) == 1]


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_torus_knot_tr_link_is_the_jones_polynomial(theory):
    # Jones, "Hecke algebra representations of braid groups and link
    # polynomials" (Ann. Math. 126, 1987): the torus knot T(p, q) has
    # V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
    # and its mirror V(1/t).  Compared multiplied through by 1 - t^2, which
    # is not zero at a 20th root of unity t with t^2 != 1, so no scalar is
    # divided here
    assert len(JONES_KNOTS) == 19
    k = JONES_T[theory.epsilon_sign, theory.beta_sign]
    for p, q in JONES_KNOTS:
        for kind, n in ((XP, k), (XN, -k)):
            t = lambda m: theory.zeta(n * m)
            jones_times = t((p - 1) * (q - 1) // 2) * (1 - t(p + 1) - t(q + 1) + t(p + q))
            assert tr_link(_torus_knot(p, q, kind), theory) * (1 - t(2)) == jones_times, \
                (p, q, kind)


def _jones_fraction(p: int, q: int, kind: str, theory: Theory) -> tuple[Scalar, Scalar]:
    """Jones's V(t) of T(p, q) drawn with ``kind`` as a numerator over
    1 - t^2, at the theory's t (its inverse for ``xn``)."""
    k = JONES_T[theory.epsilon_sign, theory.beta_sign]
    n = k if kind == XP else -k
    t = lambda m: theory.zeta(n * m)
    return t((p - 1) * (q - 1) // 2) * (1 - t(p + 1) - t(q + 1) + t(p + q)), 1 - t(2)


def _torus_pair(first: tuple[int, int, str], second: tuple[int, int, str],
                band: bool) -> LinkDiagram:
    """Two torus knots side by side, both open at once: the first on
    strands 0 .. 2p - 1, the second to its right.  With ``band``, a
    ``cap``, ``cup`` pair at 2p - 1 joins the first's last strand to the
    second's first, which makes the connected sum; without, the split
    union."""
    (p, q, kind), (r, s, other_kind) = first, second
    width = 2 * p
    events = [LinkEvent(CUP, i) for i in range(p)]
    events += [LinkEvent(kind, j) for _ in range(q) for j in range(p - 1)]
    events += [LinkEvent(CUP, width + i) for i in range(r)]
    events += [LinkEvent(other_kind, width + j) for _ in range(s) for j in range(r - 1)]
    if band:
        events += [LinkEvent(CAP, width - 1), LinkEvent(CUP, width - 1)]
    events += [LinkEvent(CAP, width + r - 1 - i) for i in range(r)]
    events += [LinkEvent(CAP, p - 1 - i) for i in range(p)]
    return LinkDiagram(tuple(events))


# pairs of torus knots with p + r <= 6, so at most 12 strands open
TORUS_PAIRS = [((2, 3), (2, 3)), ((2, 3), (2, 5)), ((2, 5), (2, 7)), ((2, 3), (3, 4)),
               ((3, 4), (2, 3)), ((3, 5), (2, 9)), ((3, 4), (3, 5)), ((2, 7), (4, 5))]


@pytest.mark.parametrize("band", [True, False], ids=["connected-sum", "split-union"])
def test_torus_knot_pairs_are_jones_products(any_theory, band):
    # V is multiplicative under connected sum, and tr_link of the unknot
    # is 1, so a band between two side-by-side torus knots multiplies
    # their values; without the band, a split union multiplies them by
    # the loop value eps.  Either mirror of the second knot.  Compared
    # multiplied through by both knots' 1 - t^2, as above
    loop = any_theory.one if band else any_theory.epsilon
    for (p, q), (r, s) in TORUS_PAIRS:
        for kind in (XP, XN):
            first, second = (p, q, XP), (r, s, kind)
            (v1, d1), (v2, d2) = (_jones_fraction(*knot, any_theory) for knot in (first, second))
            value = tr_link(_torus_pair(first, second, band), any_theory)
            assert value * d1 * d2 == loop * v1 * v2, (first, second)


def _side_by_side_unknots(n: int) -> LinkDiagram:
    """n unknots side by side, all open at once: n cups at 0, then n caps."""
    return LinkDiagram((LinkEvent(CUP, 0),) * n + (LinkEvent(CAP, 0),) * n)


def test_tr_manifold_open_component_bound(th):
    # 16 side-by-side 0-framed unknots: every coloring evaluates to
    # eps^(#A), so the weighted sum is (1 + eps^2)^16
    assert MAX_OPEN_COMPONENTS == 16
    framed = _side_by_side_unknots(16)
    assert tr_manifold(framed, th) \
        == (th.one + th.epsilon ** 2) ** 16 * th.big_d ** -17
    with pytest.raises(ValueError, match="17 components open at once exceeds 16"):
        tr_manifold(_side_by_side_unknots(17), th)
    # a fixed coloring keeps one key, so evaluate is not bounded
    assert evaluate_all_a(_side_by_side_unknots(17), th) == th.epsilon ** 17


# -- Sigma_g x S^1 and circle bundles over Sigma_g: the Verlinde formula ------------

VERLINDE = ((1, 2), (2, 5), (3, 15))   # (g, dim V(Sigma_g))

# each drawing of the surface bundle link, with the largest g of its
# Verlinde test and of its circle-bundle test; the mutants take g <= 4 of
# the first.  The side-by-side one holds 6g strands and 2g + 1 components
# open, the copy-by-copy one 8 and 3
DRAWINGS = ((surface_bundle_events, 3, 2), (copy_by_copy_events, 12, 4))


def _circle_bundle_tr(g, n, theory):
    """tr of the circle bundle of Euler number n over Sigma_g:
    phase(sign n) D^(2g-2) (1 + eps^(2-2g) theta^n)."""
    return theory.phase((n > 0) - (n < 0)) * (theory.epsilon + 2) ** (g - 1) \
        * (theory.one + theory.epsilon_inv ** (2 * g - 2) * theory.theta(n))


def _peaks(diagram: LinkDiagram) -> tuple[int, int]:
    """The most strands, and the most components, open at once."""
    strands = peak = 0
    for event in diagram.events:
        strands += {"cup": 2, "cap": -2}.get(event.kind, 0)
        peak = max(peak, strands)
    return peak, diagram.peak_open()


def test_surface_bundle_drawings_stay_narrow():
    for g in range(1, 13):
        assert _peaks(surface_bundle_link(g)) == (6 * g, 2 * g + 1)
        copy_by_copy = surface_bundle_link(g, copy_by_copy_events)
        assert _peaks(copy_by_copy) == (6 if g == 1 else 8, 3), g
        assert copy_by_copy.n_components == 2 * g + 1
        assert len(copy_by_copy.events) == 14 * g - 2


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_surface_bundle_tr_is_the_verlinde_dimension(theory):
    for g, dim in VERLINDE:
        assert _circle_bundle_tr(g, 0, theory) == dim
    for drawing, most, _ in DRAWINGS:
        for g in range(1, most + 1):
            value = tr_manifold(surface_bundle_link(g, drawing), theory)
            assert value == _circle_bundle_tr(g, 0, theory), (drawing.__name__, g)
    assert tr_manifold(surface_bundle_link(12, copy_by_copy_events), theory) == 1390625


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_circle_bundle_tr(theory):
    # the banded curve K, component 0, framed n
    for drawing, _, most in DRAWINGS:
        for g in range(1, most + 1):
            link = surface_bundle_link(g, drawing)
            for n in range(-6, 7):
                framed = link.with_framings([n] + [0] * (2 * g))
                assert tr_manifold(framed, theory) == _circle_bundle_tr(g, n, theory), \
                    (drawing.__name__, g, n)


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_surface_bundle_mutants_miss_the_verlinde_dimension(theory):
    # xp in place of copy 0's first xn, and, for g > 1, the last band
    # dropped (its cap and cup at the last seam)
    for drawing, most, _ in DRAWINGS:
        for g in range(1, min(most, 4) + 1):
            events = drawing(g)
            i = events.index(LinkEvent("xn", 1))
            mutants = [events[:i] + [LinkEvent("xp", 1)] + events[i + 1:]]
            if g > 1:
                band = LinkEvent("cap", 6 * g - 7 if drawing is surface_bundle_events else 1)
                i = len(events) - 1 - events[::-1].index(band)
                assert events[i + 1] == LinkEvent("cup", band.pos)
                mutants.append(events[:i] + events[i + 2:])
            for mutant in mutants:
                diagram = LinkDiagram(tuple(mutant))
                framed = diagram.with_framings([0] * diagram.n_components)
                assert tr_manifold(framed, theory) != _circle_bundle_tr(g, 0, theory), \
                    (drawing.__name__, g, mutant)


def test_c_function_examples(th):
    e = th.epsilon
    assert c_function((1, 3), th) == e ** 2
    assert c_function((1, 2, 3, 4), th) == -th.one / e ** 2
    assert c_function((2, 3, 4, 6, 7, 9, 10, 11), th) == -th.one / e ** 2
    assert c_function((), th) == th.one


def test_c_function_rejects_unsorted(th):
    with pytest.raises(ValueError):
        c_function((3, 1), th)
    with pytest.raises(ValueError):
        c_function((1, 1), th)


def test_hopf_closed_form_matches_evaluation(any_theory):
    for k in range(1, 6):
        expected = ((-any_theory.one) ** (k - 1)) * any_theory.epsilon ** (1 - k)
        assert hopf_tr_closed_form(k, any_theory) == expected
        assert hopf_tr_closed_form(k, any_theory) \
            == tr_link(build_hopf_chain(k), any_theory)


def test_lens_closed_form_examples(th, unknot):
    assert lens_tr_closed_form((1,), th) == th.big_d.invert()
    assert lens_tr_closed_form((4,), th) \
        == tr_manifold(unknot.with_framings((4,)), th)


def test_lens_closed_form_empty_chain(any_theory):
    # surgery on the empty link is S^3: the general formula at k = 0
    assert lens_tr_closed_form((), any_theory) == any_theory.big_d.invert()


def test_lens_closed_form_matches_surgery_sum(th):
    for k in (1, 2):
        for framings in itertools.product(range(-2, 5), repeat=k):
            framed = build_hopf_chain(k, framings)
            assert lens_tr_closed_form(framings, th) == tr_manifold(framed, th), \
                framings
    rng = random.Random(14)
    for _ in range(10):
        framings = tuple(rng.randint(-2, 4) for _ in range(3))
        framed = build_hopf_chain(3, framings)
        assert lens_tr_closed_form(framings, th) == tr_manifold(framed, th)


def _subset_sum_closed_form(framings, theory):
    """The closed form as the sum over all 2^k subsets S of the chain of
    eps^|S| c(S) beta^(-2 sum_S f)."""
    k = len(framings)
    total = theory.one
    for mask in range(1, 1 << k):
        subset = tuple(i + 1 for i in range(k) if mask >> i & 1)
        twist = sum(framings[i - 1] for i in subset)
        total = total + _subset_weight(subset, theory) * _twist_factor(twist, theory)
    sigma = signature(*_split(_chain(framings)))
    return theory.delta ** sigma * theory.big_d ** (-sigma - k - 1) * total


@functools.lru_cache(maxsize=None)
def _subset_weight(subset, theory):
    return theory.epsilon ** len(subset) * c_function(subset, theory)


@functools.lru_cache(maxsize=None)
def _twist_factor(twist, theory):
    return theory.beta ** (-2 * twist)


def test_lens_closed_form_matches_subset_sum(any_theory):
    for k in range(1, 5):
        for framings in itertools.product(range(-2, 4), repeat=k):
            assert lens_tr_closed_form(framings, any_theory) \
                == _subset_sum_closed_form(framings, any_theory), framings


def test_lens_closed_form_long_chain(any_theory):
    # L(p, p - 1) = L(p, -1): a chain of p - 1 framings against one circle
    for p in (30, 1101):
        framings = continued_fraction_framings(p, p - 1)
        assert len(framings) == p - 1
        assert lens_tr_closed_form(framings, any_theory) \
            == lens_tr_closed_form(continued_fraction_framings(p, -1), any_theory)


def _chain_transfer(framings, sigma, theory):
    """The chain's colored sum by its Scalar transfer, two partial sums
    over the subsets that leave out or contain the latest component,
    times phase(sigma) D^-(k+1)."""
    e2 = theory.epsilon ** 2
    outside, inside = theory.one, theory.zero
    for f in framings:
        outside, inside = outside + inside, theory.theta(f) * (e2 * outside - inside)
    return theory.phase(sigma) * theory.big_d_inv ** (len(framings) + 1) * (outside + inside)


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_chain_walk_matches_scalar_transfer(theory):
    # every chain of up to 4 framings in -3..3, then long seeded ones,
    # which pass many divisions by D^2 and leave a factor 5 or not
    rng = random.Random(f"chain-walk-{theory_id(theory)}")
    seeded = []
    for _ in range(100):
        seeded.append([rng.randint(-40, 40) for _ in range(rng.randint(5, 80))])
        rng.randint(-80, 80)    # unused, so that the seeded chains stay the same
    for framings in itertools.chain(*(itertools.product(range(-3, 4), repeat=k)
                                      for k in range(5)), seeded):
        sigma = signature(framings, _chain_pairs(len(framings)))
        assert lens_tr_closed_form(framings, theory) \
            == _chain_transfer(framings, sigma, theory), framings


def test_chain_signature_count_matches_elimination(monkeypatch):
    # the sigma the lens walk counts on the continuants, as it reaches
    # the normalization, against the elimination: seeded short chains,
    # then long ones whose minors vanish every second or third step
    counted = []

    def spy(sigma, *args):
        counted.append(sigma)
        return normalized(sigma, *args)

    monkeypatch.setattr(invariants, "normalized", spy)
    theory = Theory()
    rng = random.Random("continuants")
    chains = [[rng.randint(-3, 3) for _ in range(rng.randint(0, 14))] for _ in range(5000)]
    chains += [[0] * 2001, [1] * 2000, [-1] * 1999, [1, -1] * 700, [0, 1] * 500,
               [3, -3, 0] * 400]
    for framings in chains:
        counted.clear()
        lens_tr_closed_form(framings, theory)
        assert counted == [signature(framings, _chain_pairs(len(framings)))], framings


def test_lens_work_bound(th, monkeypatch):
    # the lens walk refuses what the elimination refuses, with its
    # message, and takes no elimination step either way: 20,000 fives and
    # 1,552 framings of 10^100 are admitted, one six among the fives and
    # 1,553 framings of 10^100 are not
    def refuse(*_):
        raise AssertionError("the lens walk reached the elimination")

    monkeypatch.setattr(invariants, "_pivot", refuse)
    for framings in ((5,) * 20000, (10 ** 100,) * 1552):
        lens_tr_closed_form(framings, th)
    for framings in ((5,) * 19999 + (6,), (10 ** 100,) * 1553):
        with pytest.raises(ValueError, match=f"^signature of this {len(framings)}x"
                                             f"{len(framings)} matrix: predicted work "
                                             f"\\d+ exceeds {invariants.MAX_SIGNATURE_WORK}$"):
            lens_tr_closed_form(framings, th)


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_normalized_matches_scalar_formula(theory):
    rng = random.Random(f"normalized-{theory_id(theory)}")
    for k in range(42):
        total = tuple(rng.randint(-50, 50) for _ in range(4))
        sigma = rng.randint(-k, k)
        assert normalized(sigma, k, total, theory) == theory.phase(sigma) \
            * theory.big_d_inv ** (k + 1) * Scalar.from_z5(theory.field, total), k
    assert normalized(1, 3, (5, 0, -10, 5), theory, fives=2) == theory.phase(1) \
        * theory.big_d_inv ** 4 * Scalar.from_z5(theory.field, (1, 0, -2, 1)) * Fraction(1, 5)


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_drawn_long_chain_matches_closed_form(theory):
    # the chain drawn with its kinks, which the sweep folds into weights
    rng = random.Random(f"drawn-chain-{theory_id(theory)}")
    for k in (40, 80):
        framings = tuple(rng.randint(-3, 3) for _ in range(k))
        assert lens_tr_closed_form(framings, theory) \
            == tr_manifold(build_hopf_chain(k, framings), theory), framings


def test_chain_walk_makes_no_scalar_per_framing(monkeypatch):
    # the walk and the surgery sweep run on integers: a lens value, and
    # tr_manifold of a chain drawn with its framings as kinks, make the
    # same few scalar operations, for their one value, on a chain of any
    # length
    theory = Theory(x=Fraction(2, 3), y=Fraction(-5, 7), z=3)
    rng = random.Random(2000)
    lens_tr_closed_form((2, 2), theory)     # the theory's cached constants
    tr_manifold(build_hopf_chain(2, (1, -1)), theory)     # and the sweep's tables
    count = [0]

    def counted(method):
        def wrapper(*args):
            count[0] += 1
            return method(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "_sum", "__neg__", "invert"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    for short, long in ((2, 2000), (3, 2001)):
        ops = []
        for k in (short, long):
            count[0] = 0
            assert not lens_tr_closed_form([rng.randint(-9, 9) for _ in range(k)],
                                           theory).is_zero
            ops.append(count[0])
        assert ops[0] == ops[1] <= 2, (short, long, ops)
    ops = []
    for k in (20, 2000):
        chain = build_hopf_chain(k, [rng.randint(-9, 9) for _ in range(k)])
        count[0] = 0
        assert not tr_manifold(chain, theory).is_zero
        ops.append(count[0])
    assert ops[0] == ops[1] <= 2, ops


def test_equal_lenses(any_theory):
    for p, q in ((1, 1), (4, 1), (5, 2)):
        f1 = continued_fraction_framings(p, q)
        f2 = continued_fraction_framings(p + 5 * q, q)
        assert lens_tr_closed_form(f1, any_theory) \
            == lens_tr_closed_form(f2, any_theory)


# -- continued fractions -----------------------------------------------------------------

def test_continued_fraction_examples():
    assert continued_fraction_framings(4, 1) == (4,)
    assert continued_fraction_framings(5, 2) == (3, 2)
    assert continued_fraction_framings(7, 3) == (3, 2, 2)


def test_continued_fraction_round_trip():
    # every coprime p/q with |p| <= 50 and 1 <= |q| <= 50, and the longest
    # expansion the bound allows: (n + 1)/n is n twos
    n = invariants.MAX_LENS_FRAMINGS
    pairs = [(p, q) for p in range(-50, 51) for q in range(-50, 51)
             if q and gcd(p, q) == 1] + [(n + 1, n)]
    for p, q in pairs:
        framings = continued_fraction_framings(p, q)
        assert expand_minus_continued_fraction(framings) == Fraction(p, q), (p, q)
    assert framings == (2,) * n


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        continued_fraction_framings(4, 0)
    with pytest.raises(ValueError):
        continued_fraction_framings(4, 2)


def test_lens_framing_limit(th, monkeypatch):
    # (n + 1)/n expands to n twos: the bound is inclusive, and a longer
    # expansion stops as soon as it passes the bound
    monkeypatch.setattr(invariants, "MAX_LENS_FRAMINGS", 5)
    assert continued_fraction_framings(6, 5) == (2,) * 5
    assert lens_tr_closed_form((2,) * 5, th) == lens_tr_closed_form((-6,), th)
    for p, q in ((7, 6), (10 ** 30 + 1, 10 ** 30)):
        with pytest.raises(ValueError, match="more than 5 framings"):
            continued_fraction_framings(p, q)
    with pytest.raises(ValueError, match="6 framings exceed 5"):
        lens_tr_closed_form((2,) * 6, th)


def test_lens_space_framed_link(th):
    framed = lens_space_framed_link(7, 3)
    assert framed.framings() == [3, 2, 2]
    assert lens_tr_closed_form((3, 2, 2), th) == tr_manifold(framed, th)
