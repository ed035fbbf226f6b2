"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import product

import pytest

from conftest import read_fixture
from fibcat import ALL_THEORIES, Theory
from fibcat.category import (A, ONE, axiom_suite, s_matrix)
from fibcat.invariants import (c_function, continued_fraction_framings,
                               hopf_tr_closed_form, lens_tr_closed_form,
                               tr_link, tr_manifold)
from fibcat.spines import (SPHERE_SPINE, admissible, module_iso_check,
                           pairing_categorical, pairing_table,
                           sixj_categorical, sixj_table, t_epsilon, tv)
from fibcat.tangles import (LinkDiagram, LinkEvent, build_hopf_chain,
                            evaluate_all_a, parse_link)

PARAM_SETS = (
    Theory(),
    Theory(x=2, y=Fraction(3, 2), z=5),
    Theory(x=Fraction(1, 3), y=7, z=Fraction(2, 5)),
)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def trefoil() -> LinkDiagram:
    return parse_link(read_fixture("links/trefoil.txt"))


def plat3(braid_word) -> LinkDiagram:
    events = [LinkEvent("cup", 0), LinkEvent("cup", 2),
              LinkEvent("cup", 4)]
    for s in braid_word:
        kind = "xp" if s > 0 else "xn"
        events.append(LinkEvent(kind, abs(s)))
    events += [LinkEvent("cap", 1), LinkEvent("cap", 1),
               LinkEvent("cap", 0)]
    return LinkDiagram(tuple(events))


def test_criterion_1_axiom_suite():
    rep = axiom_suite(Theory(), seed=2026)
    assert rep.all_passed, rep.summary()
    names = {c.name: c.cases for c in rep.checks}
    assert names["pentagon"] >= 16
    assert names["hexagon-1"] >= 8 and names["hexagon-2"] >= 8
    assert names["braiding-naturality"] == 100
    assert names["triangle"] >= 4
    assert names["twist-braiding"] >= 4
    assert names["duality-zigzag"] >= 3
    report(1, f"axiom suite, {rep.total_cases} cases across "
              f"{len(rep.checks)} identities")


def test_criterion_2_s_matrix():
    for theory in ALL_THEORIES:
        s = s_matrix(theory)
        e = theory.epsilon
        assert s == ((theory.one, e), (e, -theory.one))
        det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        assert det == -2 - e
    report(2, "categorical S-matrix ((1, eps), (eps, -1)), det = -2 - eps")


def test_criterion_3_trefoil_all_theories():
    for theory in ALL_THEORIES:
        b, e = theory.beta, theory.epsilon
        assert evaluate_all_a(trefoil(), theory) == 1 - 2 * b
        assert tr_link(trefoil(), theory) == (b / e) * (2 * b - 1)
    report(3, "trefoil evaluation and tr in all four (eps, beta) theories")


def test_criterion_4_hopf_chains():
    theory = Theory()
    for k in range(1, 6):
        value = tr_link(build_hopf_chain(k), theory)
        assert value == ((-theory.one) ** (k - 1)) * theory.epsilon ** (1 - k)
        assert value == hopf_tr_closed_form(k, theory)
    report(4, "tr of the k-circle chains, k = 1..5")


def test_criterion_5_poincare_sphere():
    theory = Theory()
    framed = trefoil().with_framings((1,))
    e, b = theory.epsilon, theory.beta
    expected = ((1 + e ** 2 * b ** 2) * (1 + e * (b ** 4 + 2))
                * theory.big_d.invert() ** 3)
    assert tr_manifold(framed, theory) == expected
    report(5, "+1-framed trefoil reproduces the Poincare-sphere value")


def test_criterion_6_c_function_and_lens_spaces():
    theory = Theory()
    e = theory.epsilon
    assert c_function((1, 3), theory) == e ** 2
    assert c_function((1, 2, 3, 4), theory) == -theory.one / e ** 2
    assert c_function((2, 3, 4, 6, 7, 9, 10, 11), theory) == -theory.one / e ** 2
    checked = 0
    for k in (1, 2, 3):
        for framings in itertools.product(range(-2, 5), repeat=k):
            framed = build_hopf_chain(k, framings)
            assert lens_tr_closed_form(framings, theory) \
                == tr_manifold(framed, theory), framings
            checked += 1
    for p, q in ((1, 1), (4, 1), (5, 2)):
        f1 = continued_fraction_framings(p, q)
        f2 = continued_fraction_framings(p + 5 * q, q)
        assert lens_tr_closed_form(f1, theory) == lens_tr_closed_form(f2, theory)
    report(6, f"c-function examples, closed form vs surgery sum on "
              f"{checked} framing vectors, equal-lens pairs")


def test_criterion_7_lens_values_and_reality():
    theory = Theory()
    e, b = theory.epsilon, theory.beta
    unknot = parse_link(read_fixture("links/unknot.txt"))
    l11 = tr_manifold(unknot.with_framings((1,)), theory)
    l41 = tr_manifold(unknot.with_framings((4,)), theory)
    assert l11 == theory.big_d.invert()
    assert l41 == (e + 1) * (1 + b) ** 2 * theory.big_d.invert() ** 3
    for value in (l11, l41):
        assert value.conjugate() * value * (e + 2) == theory.one
    assert l11 != l41
    report(7, "tr(L_{1,1}) = 1/sqrt(eps+2), tr(L_{4,1}) value, "
              "|tr|^2 (eps+2) = 1 for both")


def test_criterion_8_sixj_and_pairing_oracles():
    for params in PARAM_SETS:
        one = params.one
        for cfg in product((ONE, A), repeat=6):
            assert sixj_categorical(cfg, one, one, one, one, params) \
                == sixj_table(cfg, one, one, one, one, params), cfg
        for x, y, z in product((ONE, A), repeat=3):
            if admissible(x, y, z):
                assert pairing_categorical(x, y, z, one, one, params) \
                    == pairing_table(x, y, z, one, one, params)
    report(8, "categorical 6j and pairing equal their tables on all "
              "configurations at three (x, y, z) settings")


def test_criterion_9_module_isomorphisms():
    for params in PARAM_SETS:
        rep = module_iso_check(params)
        assert rep.all_identities and rep.checked == 5, rep.failures
    report(9, "swap isomorphisms are identities on all admissible triples")


def test_criterion_10_sphere_spine():
    for params in PARAM_SETS:
        assert tv(SPHERE_SPINE, params) == params.one
        assert t_epsilon(SPHERE_SPINE, params) == params.one
    report(10, "tv = t = 1 on the one-vertex sphere spine, "
               "independent of (x, y, z)")


def test_criterion_11_evaluation_properties():
    theory = Theory()
    # RII / RIII pairs leave the evaluation unchanged
    pairs = [
        (plat3([2, -2]), plat3([])),
        (plat3([1, 2, 1]), plat3([2, 1, 2])),
    ]
    for left, right in pairs:
        assert evaluate_all_a(left, theory) == evaluate_all_a(right, theory)
    # an RI kink scales the evaluation by beta^(-2) but leaves tr fixed
    base = trefoil()
    events = list(base.events)
    kinked = base.with_events(events[:1] + [LinkEvent("tp", 0)]
                              + events[1:])
    assert evaluate_all_a(kinked, theory) \
        == evaluate_all_a(base, theory) * theory.beta_inv ** 2
    assert tr_link(kinked, theory) == tr_link(base, theory)
    # the evaluation does not depend on x or y
    values = {evaluate_all_a(base, Theory(x=x, y=y))
              for x in (1, 2, Fraction(3, 2)) for y in (1, 2, Fraction(5, 3))}
    assert len(values) == 1
    report(11, "RII/RIII invariance, RI scaling with tr fixed, "
               "x/y independence of the evaluation")
