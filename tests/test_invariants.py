from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import read_fixture
from fibcat import Theory
from fibcat.invariants import (FramedLink, c_function,
                               continued_fraction_framings,
                               expand_minus_continued_fraction,
                               hopf_tr_closed_form, lens_space_framed_link,
                               lens_tr_closed_form, linking_matrix, signature,
                               tr_link, tr_manifold)
from fibcat.tangles import build_hopf_chain, parse_link


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


# -- framed links and linking matrices ----------------------------------------------

def test_framing_scalar_matches_drawn_kinks(unknot, any_theory):
    for framing, kinks in ((4, "tp 0\n" * 4), (-2, "tn 0\n" * 2)):
        kinked = parse_link(f"link\ncup 0\n{kinks}cap 0\nend\n")
        assert tr_manifold(FramedLink.from_diagram(unknot, (framing,)), any_theory) \
            == tr_manifold(FramedLink.from_diagram(kinked), any_theory)


def test_framed_link_from_file_framings():
    d = parse_link(read_fixture("links/trefoil_framed1.txt"))
    framed = FramedLink.from_diagram(d)
    assert framed.framings == (1,)
    assert framed.diagram is d


def test_huge_framing_is_a_scalar(unknot, any_theory):
    # beta^2 has order 5, and the signature is 1 at both framings
    value = tr_manifold(FramedLink.from_diagram(unknot, (1000000,)), any_theory)
    assert value == tr_manifold(FramedLink.from_diagram(unknot, (10,)), any_theory)
    assert value == lens_tr_closed_form((1000000,), any_theory)


def test_linking_matrix_hopf():
    framed = FramedLink.from_diagram(build_hopf_chain(2, (0, 0)))
    m = linking_matrix(framed)
    assert m[0][0] == 0 and m[1][1] == 0
    assert abs(m[0][1]) == 1 and m[0][1] == m[1][0]


def test_linking_matrix_split_unlink():
    d = parse_link("link\ncup 0\ncup 1\ncap 1\ncap 0\nend\nframing 0=1\nframing 1=-2\n")
    framed = FramedLink.from_diagram(d)
    assert linking_matrix(framed) == [[1, 0], [0, -2]]


def test_linking_matrix_chain_tridiagonal():
    framed = FramedLink.from_diagram(build_hopf_chain(3, (5, -1, 2)))
    m = linking_matrix(framed)
    assert [m[i][i] for i in range(3)] == [5, -1, 2]
    assert abs(m[0][1]) == 1 and abs(m[1][2]) == 1
    assert m[0][2] == 0 and m[2][0] == 0


# -- signature -----------------------------------------------------------------------

def test_signature_examples():
    assert signature([[1]]) == 1
    assert signature([[0, 1], [1, 0]]) == 0
    assert signature([[1, 0, 0], [0, -2, 0], [0, 0, 3]]) == 1
    assert signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == -1
    assert signature([[0, 0], [0, 0]]) == 0
    assert signature([]) == 0
    chain = [[2 if i == j else int(abs(i - j) == 1) for j in range(1100)]
             for i in range(1100)]
    assert signature(chain) == 1100


def test_signature_input_validation():
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        signature([[0, 1]])


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
        base = signature(m)
        i = rng.randrange(n)
        flipped = [row[:] for row in m]
        for j in range(n):
            flipped[i][j] = -flipped[i][j]
        for j in range(n):
            flipped[j][i] = -flipped[j][i]
        assert signature(flipped) == base
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert signature(permuted) == base


# -- tr for manifolds ----------------------------------------------------------------

def test_tr_sphere_empty_link(any_theory):
    framed = FramedLink.from_diagram(parse_link("link\nend\n"))
    assert tr_manifold(framed, any_theory) == any_theory.big_d.invert()


def test_tr_poincare_sphere(trefoil, any_theory):
    framed = FramedLink.from_diagram(trefoil, (1,))
    e, b = any_theory.epsilon, any_theory.beta
    expected = (any_theory.delta * (1 + e * (b ** 4 + 2))
                * any_theory.big_d.invert() ** 3)
    assert tr_manifold(framed, any_theory) == expected


def test_tr_lens_4_1(unknot, any_theory):
    framed = FramedLink.from_diagram(unknot, (4,))
    e, b = any_theory.epsilon, any_theory.beta
    expected = (e + 1) * (1 + b) ** 2 * any_theory.big_d.invert() ** 3
    assert tr_manifold(framed, any_theory) == expected


def test_tr_squared_is_real_nonnegative(th, unknot, trefoil):
    # |tr|^2 (eps+2) equals the real state-sum invariant, so it is fixed
    # by conjugation and embeds to a nonnegative real; it is moreover
    # exactly rational on the lens-space fixtures (where it equals 1)
    fixtures = [
        FramedLink.from_diagram(parse_link("link\nend\n")),
        FramedLink.from_diagram(unknot, (1,)),
        FramedLink.from_diagram(unknot, (4,)),
        FramedLink.from_diagram(trefoil, (1,)),
        FramedLink.from_diagram(build_hopf_chain(3, (2, 0, -1))),
    ]
    for framed in fixtures:
        value = tr_manifold(framed, th)
        squared = value.conjugate() * value * (th.epsilon + 2)
        assert squared.conjugate() == squared
        embedded = squared.embed()
        assert abs(embedded.imag) < 1e-12 and embedded.real >= 0
    for framings in ((1,), (4,)):
        value = tr_manifold(FramedLink.from_diagram(unknot, framings), th)
        squared = value.conjugate() * value * (th.epsilon + 2)
        assert squared.is_rational and squared.as_rational() == 1


# -- closed forms ----------------------------------------------------------------------

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
        == tr_manifold(FramedLink.from_diagram(unknot, (4,)), th)


def test_lens_closed_form_matches_surgery_sum(th):
    for k in (1, 2):
        for framings in itertools.product(range(-2, 5), repeat=k):
            framed = FramedLink.from_diagram(build_hopf_chain(k, framings))
            assert lens_tr_closed_form(framings, th) == tr_manifold(framed, th), \
                framings
    rng = random.Random(14)
    for _ in range(10):
        framings = tuple(rng.randint(-2, 4) for _ in range(3))
        framed = FramedLink.from_diagram(build_hopf_chain(3, framings))
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
    sigma = signature([[f if i == j else int(abs(i - j) == 1)
                        for j in range(k)] for i, f in enumerate(framings)])
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
    rng = random.Random(15)
    for _ in range(40):
        q = rng.randint(1, 12)
        p = rng.randint(-20, 20)
        if q == 0 or gcd(p, q) != 1:
            continue
        framings = continued_fraction_framings(p, q)
        assert expand_minus_continued_fraction(framings) == Fraction(p, q)


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        continued_fraction_framings(4, 0)
    with pytest.raises(ValueError):
        continued_fraction_framings(4, 2)


def test_lens_space_framed_link(th):
    framed = lens_space_framed_link(7, 3)
    assert framed.framings == (3, 2, 2)
    assert lens_tr_closed_form((3, 2, 2), th) == tr_manifold(framed, th)
