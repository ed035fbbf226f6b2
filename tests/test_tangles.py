from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from conftest import read_fixture
from fibcat import Theory
from fibcat.category import A, ONE
from fibcat.tangles import (EventKind, LinkDiagram, LinkEvent, LinkParseError,
                            LinkValidationError, build_hopf_chain, evaluate,
                            evaluate_all_a, parse_link)


@pytest.fixture
def th():
    return Theory()


@pytest.fixture
def trefoil():
    return parse_link(read_fixture("links/trefoil.txt"))


@pytest.fixture
def unknot():
    return parse_link(read_fixture("links/unknot.txt"))


def plat3(braid_word) -> LinkDiagram:
    """Plat closure of a braid word on strands 1..3 of a 6-strand plat;
    positive generators are written +i, negative -i."""
    events = [LinkEvent(EventKind.CUP, 0), LinkEvent(EventKind.CUP, 2),
              LinkEvent(EventKind.CUP, 4)]
    for s in braid_word:
        kind = EventKind.CROSS_POS if s > 0 else EventKind.CROSS_NEG
        events.append(LinkEvent(kind, abs(s)))
    events += [LinkEvent(EventKind.CAP, 1), LinkEvent(EventKind.CAP, 1),
               LinkEvent(EventKind.CAP, 0)]
    return LinkDiagram(tuple(events))


# -- parsing -------------------------------------------------------------------

def test_parse_unknot(unknot):
    assert unknot.n_components == 1
    assert unknot.crossings == ()


def test_parse_trefoil(trefoil):
    assert trefoil.n_components == 1
    assert len(trefoil.crossings) == 3
    assert all(c.sign == 1 for c in trefoil.crossings)


def test_parse_two_component_unlink():
    d = parse_link("link\ncup 0\ncup 1\ncap 1\ncap 0\nend\n")
    assert d.n_components == 2
    assert d.crossings == ()


def test_parse_comments_and_framings():
    d = parse_link("# heading\nlink\ncup 0  # inline\ncap 0\nend\nframing 0=-3\n")
    assert d.declared_framings == ((0, -3),)
    assert d.framings() == [-3]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LinkParseError, match="line 1"):
        parse_link("knot\nend\n")
    with pytest.raises(LinkParseError, match="line 2"):
        parse_link("link\nzap 0\nend\n")
    with pytest.raises(LinkParseError, match="line 2"):
        parse_link("link\ncup x\nend\n")
    with pytest.raises(LinkParseError, match="missing 'end'"):
        parse_link("link\ncup 0\ncap 0\n")
    with pytest.raises(LinkParseError):
        parse_link("")


def test_validation_errors():
    with pytest.raises(LinkValidationError):
        parse_link("link\ncap 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 1\ncap 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 0\nxp 1\ncap 0\nend\n")
    with pytest.raises(LinkValidationError, match="open"):
        parse_link("link\ncup 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 0\ntp 2\ncap 0\nend\n")


# -- writhe and linking data ------------------------------------------------------

def test_trefoil_writhe(trefoil):
    assert trefoil.self_writhes() == [3]
    assert trefoil.total_writhe() == 3


def test_mirror_trefoil_writhe(trefoil):
    mirror = trefoil.with_events(
        LinkEvent(EventKind.CROSS_NEG, e.pos)
        if e.kind is EventKind.CROSS_POS else e
        for e in trefoil.events)
    assert mirror.self_writhes() == [-3]
    assert mirror.total_writhe() == -3


def test_hopf_pair_counts():
    h2 = build_hopf_chain(2)
    assert h2.self_writhes() == [0, 0]
    counts = h2.pair_counts()
    assert set(counts) == {(0, 1)}
    assert abs(counts[(0, 1)]) == 2


def test_kinks_count_in_writhe():
    d = parse_link("link\ncup 0\ntp 0\ntp 1\ntn 0\ncap 0\nend\n")
    assert d.self_writhes() == [1]
    assert d.kinks == ((0, 1), (0, 1), (0, -1))


def test_self_writhe_orientation_independent(trefoil):
    # flipping the traversal orientation of any subset of components
    # flips both strand directions at a self-crossing, so its sign and
    # hence w(l_i) cannot change
    for diagram in (trefoil, build_hopf_chain(3, (1, -2, 0))):
        base = diagram.self_writhes()
        k = diagram.n_components
        for flips in itertools.product((1, -1), repeat=k):
            w = [0] * k
            for c in diagram.crossings:
                if c.comp_a == c.comp_b:
                    w[c.comp_a] += (c.nominal * c.dir_a * flips[c.comp_a]
                                    * c.dir_b * flips[c.comp_b])
            for comp, sign in diagram.kinks:
                w[comp] += sign
            assert w == base


# -- evaluation --------------------------------------------------------------------

def test_unknot_evaluates_to_eps(unknot, any_theory):
    assert evaluate_all_a(unknot, any_theory) == any_theory.epsilon


def test_trefoil_evaluation(trefoil, any_theory):
    assert evaluate_all_a(trefoil, any_theory) == 1 - 2 * any_theory.beta


def test_all_one_coloring_gives_one(trefoil, th):
    assert evaluate(trefoil, (ONE,), th) == th.one


def test_hopf_chain_evaluations(th):
    for k in range(1, 6):
        value = evaluate_all_a(build_hopf_chain(k), th)
        expected = ((-th.one) ** (k - 1)) * th.epsilon ** (2 - k)
        assert value == expected


def test_partial_coloring_drops_components(th):
    h2 = build_hopf_chain(2)
    assert evaluate(h2, (A, ONE), th) == th.epsilon
    assert evaluate(h2, (ONE, A), th) == th.epsilon
    assert evaluate(h2, (ONE, ONE), th) == th.one
    # deleting the middle circle of a 3-chain splits the ends apart
    h3 = build_hopf_chain(3)
    assert evaluate(h3, (A, ONE, A), th) == th.epsilon ** 2
    assert evaluate(h3, (ONE, A, ONE), th) == th.epsilon


def test_coloring_length_checked(th):
    with pytest.raises(ValueError):
        evaluate(build_hopf_chain(2), (A,), th)


def test_positive_kink_scales_by_inverse_beta_squared(th, unknot, trefoil):
    for diagram in (unknot, trefoil):
        events = list(diagram.events)
        kinked = diagram.with_events(events[:1] + [LinkEvent(EventKind.TWIST_POS, 0)]
                                     + events[1:])
        assert evaluate_all_a(kinked, th) \
            == evaluate_all_a(diagram, th) * th.beta_inv ** 2
        unkinked = diagram.with_events(events[:1] + [LinkEvent(EventKind.TWIST_NEG, 0)]
                                       + events[1:])
        assert evaluate_all_a(unkinked, th) \
            == evaluate_all_a(diagram, th) * th.beta ** 2


def test_reidemeister_two_three_invariance(any_theory):
    pairs = [
        (plat3([2, -2]), plat3([])),
        (plat3([-1, 1]), plat3([])),
        (plat3([1, 2, 1]), plat3([2, 1, 2])),
        (plat3([1, 2, 1, 2, -2]), plat3([2, 1, 2])),
    ]
    for left, right in pairs:
        assert evaluate_all_a(left, any_theory) == evaluate_all_a(right, any_theory)


def test_evaluation_parameter_independence(trefoil):
    values = {
        evaluate_all_a(trefoil, Theory(x=x, y=y))
        for x in (1, 2, Fraction(3, 2))
        for y in (1, 2, Fraction(5, 3))
    }
    assert len(values) == 1


# -- builders -----------------------------------------------------------------------

def test_framed_chain_evaluation_closed_form(th):
    e, b = th.epsilon, th.beta
    for k in (1, 2, 3):
        for framings in itertools.product((-2, 0, 1, 3), repeat=k):
            value = evaluate_all_a(build_hopf_chain(k, framings), th)
            expected = (((-th.one) ** (k - 1)) * e ** (2 - k)
                        / b ** (2 * sum(framings)))
            assert value == expected, (k, framings)


def test_build_hopf_chain_unknot():
    h1 = build_hopf_chain(1)
    assert h1.n_components == 1
    assert h1.crossings == ()


def test_build_hopf_chain_framings():
    d = build_hopf_chain(3, (0, 0, 0))
    assert d.self_writhes() == [0, 0, 0]
    d2 = build_hopf_chain(3, (2, -1, 3))
    assert d2.self_writhes() == [2, -1, 3]
    assert d2.framings() == [2, -1, 3]


def test_build_hopf_chain_validation():
    with pytest.raises(ValueError):
        build_hopf_chain(0)
    with pytest.raises(ValueError):
        build_hopf_chain(2, (1,))


def test_render_round_trip(trefoil):
    assert parse_link(trefoil.render()) == trefoil
