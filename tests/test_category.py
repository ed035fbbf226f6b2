from __future__ import annotations

import dataclasses
import gc
import importlib
import itertools
import pickle
import pkgutil
import random
import tracemalloc
import typing
from fractions import Fraction

import pytest

import fibcat
from conftest import expansion_labels, read_fixture
from fibcat import ALL_THEORIES, Scalar, Theory, axiom_suite, category, s_matrix, tangles
from fibcat.category import (A, ONE, UNIT, Morphism, _random_morphism,
                             _random_word, associator, birth, braiding,
                             compose, death,
                             identity, parse_word, scale_identity,
                             tensor_morphisms, tensor_words, twist)
from fibcat.invariants import tr_link, tr_manifold
from fibcat.spines import SPHERE_SPINE, _hom_unit_basis, admissible, t_epsilon, tv
from fibcat.tangles import parse_link


@pytest.fixture
def th():
    return Theory()


# -- objects ----------------------------------------------------------------

def test_tensor_objects_example():
    lhs = tensor_words("A1", tensor_words(A, "1A"))
    assert lhs == parse_word("1AA1AA1A")


def test_unit_object_is_strict():
    for w in (parse_word("A1A"), parse_word("AAAA"), ""):
        assert tensor_words(UNIT, w) == w
        assert tensor_words(w, UNIT) == w


def test_tensor_power_fibonacci_counts():
    # counts of (1, A) in A^(x)n follow the Fibonacci recurrence
    fib = [1, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    w = UNIT
    for n in range(1, 9):
        w = tensor_words(A, w)
        assert (w.count(ONE), w.count(A)) == (fib[n - 2] if n >= 2 else 0, fib[n - 1])
        if n == 4:
            assert (w.count(ONE), w.count(A)) == (2, 3)


def test_expansion_labels_are_positional():
    word, labels = expansion_labels("AA", "1A")
    assert word == parse_word("A1AA1A")
    assert labels == ((0, 0, 0), (0, 1, 0), (0, 1, 1),
                      (1, 0, 0), (1, 1, 0), (1, 1, 1))
    words = ["".join(w) for n in (1, 2, 3) for w in itertools.product((ONE, A), repeat=n)]
    rng = random.Random(20)
    pairs = list(itertools.product(words, repeat=2))
    pairs += [(_random_word(rng, 6), _random_word(rng, 6)) for _ in range(100)]
    for x, y in pairs:
        ref_word, labels = expansion_labels(x, y)
        assert tensor_words(x, y) == ref_word
        at: dict = {}
        for p, (i, j, t) in enumerate(labels):
            at.setdefault((i, j), []).append(p)
        # the summands of x_i (x) y_j, as many as the fusion rule gives,
        # sit one after another from the start the offset rule gives
        rows, cols = category._starts(x, y)
        for i, j in itertools.product(range(len(x)), range(len(y))):
            start = rows[i] + cols[x[i] == A][j]
            count = len(tensor_words(x[i], y[j]))
            assert at[i, j] == list(range(start, start + count)), (x, y, i, j)


# -- composition ------------------------------------------------------------

def test_two_layer_composition_figure(th):
    rng = random.Random(5)
    f1, f2, f3, g1, g2, g3 = (th.rational(rng.randint(1, 9)) for _ in range(6))
    f = Morphism(parse_word("1A1A"), parse_word("A1A1"),
                 {(1, 0): f1, (1, 2): f2, (2, 3): f3}, th)
    g = Morphism(parse_word("A1A1"), parse_word("A1"),
                 {(0, 0): g1, (2, 0): g2, (3, 1): g3}, th)
    fg = f.then(g)
    assert fg.entry(1, 0) == f1 * g1 + f2 * g2
    assert fg.entry(2, 1) == f3 * g3
    assert fg.entry(3, 0) == th.zero


def test_then_matches_dense_product(th):
    # Reference for the sparse composition: the dense matrix product over
    # entry(), summed over every middle letter of the matching type.
    rng = random.Random(13)
    for _ in range(30):
        x, y, z = ("".join(rng.choice((ONE, A)) for _ in range(rng.randint(0, 5)))
                   for _ in range(3))
        f = _random_morphism(rng, x, y, th)
        g = _random_morphism(rng, y, z, th)
        fg = f.then(g)
        for p, a in enumerate(x):
            for q, c in enumerate(z):
                if a != c:
                    assert fg.entry(p, q) is None
                    continue
                expect = th.zero
                for m, b in enumerate(y):
                    if b == a:
                        expect = expect + f.entry(p, m) * g.entry(m, q)
                assert fg.entry(p, q) == expect
        assert not any(v.is_zero for v in fg.arrows.values())


def test_identity_laws(th):
    rng = random.Random(6)
    for _ in range(5):
        dom = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(0, 4)))
        cod = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(0, 4)))
        f = _random_morphism(rng, dom, cod, th)
        assert identity(dom, th).then(f) == f
        assert f.then(identity(cod, th)) == f


def test_identity_of_empty_word(th):
    empty = identity("", th)
    assert empty.arrows == {}
    assert empty.then(empty) == empty


def test_composition_requires_matching_words(th):
    f = identity(A, th)
    g = identity(ONE, th)
    with pytest.raises(ValueError):
        f.then(g)


def test_shape_validation(th):
    with pytest.raises(ValueError):         # a 1-letter joined to an A-letter
        Morphism("1A", A, {(0, 0): th.one}, th)
    with pytest.raises(ValueError):         # an arrow outside the words
        Morphism(A, A, {(0, 1): th.one}, th)
    with pytest.raises(ValueError):         # a stored zero
        Morphism(A, A, {(0, 0): th.zero}, th)
    f = Morphism(A, "AA", {(0, 0): th.one, (0, 1): th.one}, th)
    g = Morphism("AA", A, {(0, 0): th.one, (1, 0): -th.one}, th)
    assert f.then(g) == Morphism(A, A, {}, th)


def test_morphism_is_slotted_and_frozen(th):
    # no per-instance dict, for the checked and the unchecked constructor
    # alike, and no field can be reassigned
    other = Theory(x=Fraction(-2, 3))
    checked = Morphism("1A", "A1", {(0, 1): th.rational(3), (1, 0): th.s}, th)
    for m in (checked, braiding("1A", A, th), checked.then(identity("A1", th))):
        assert not hasattr(m, "__dict__")
        for name in ("dom", "cod", "arrows", "theory"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)
        loaded = pickle.loads(pickle.dumps(m))
        assert loaded == m and loaded.theory == m.theory
        assert (loaded.dom, loaded.cod, loaded.arrows) == (m.dom, m.cod, m.arrows)
        # equality ignores the theory: equal arrows are equal morphisms
        assert Morphism(m.dom, m.cod, m.arrows, other) == m
    assert braiding("1A", A, th) != braiding("1A", A, th, inverse=True)


# -- tensor product of morphisms ---------------------------------------------

def test_tensor_morphisms_example(th):
    f1, f2 = th.rational(Fraction(2, 3)), th.rational(5)
    g1, g2 = th.rational(7), th.rational(-2)
    f = Morphism("A1A", "1A", {(0, 1): f1, (1, 0): f2}, th)
    g = Morphism("1A", "1A", {(0, 0): g1, (1, 1): g2}, th)
    fg = tensor_morphisms(f, g)
    assert fg.dom == parse_word("A1A1AA1A")
    assert fg.cod == parse_word("1AA1A")
    assert fg.arrows == {(3, 0): f2 * g1, (1, 3): f1 * g2,
                         (4, 1): f2 * g2, (0, 2): f1 * g1, (2, 4): f1 * g2}


def test_tensor_of_identities_is_identity(th):
    rng = random.Random(7)
    for _ in range(5):
        x = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(1, 3)))
        y = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(1, 3)))
        assert tensor_morphisms(identity(x, th), identity(y, th)) \
            == identity(tensor_words(x, y), th)


def test_interchange_law(th):
    rng = random.Random(8)
    simple = (ONE, A)
    for _ in range(10):
        xs = [rng.choice(simple) for _ in range(3)]
        ys = [rng.choice(simple) for _ in range(3)]
        f = _random_morphism(rng, xs[0], xs[1], th)
        g = _random_morphism(rng, xs[1], xs[2], th)
        f2 = _random_morphism(rng, ys[0], ys[1], th)
        g2 = _random_morphism(rng, ys[1], ys[2], th)
        assert tensor_morphisms(f, f2).then(tensor_morphisms(g, g2)) \
            == tensor_morphisms(f.then(g), f2.then(g2))


# -- associators --------------------------------------------------------------

def test_associator_simple_triple(th):
    al = associator(A, A, A, th)
    e_inv = th.epsilon.invert()
    xs, s_inv = th.x_scalar, th.s_inv
    assert al.dom == al.cod == parse_word("A1A")
    assert al.arrows == {(1, 1): th.one,
                         (0, 0): e_inv, (2, 0): xs * s_inv,
                         (0, 2): xs.invert() * s_inv, (2, 2): -e_inv}


def test_associator_extension_examples(th):
    o = th.one
    e_inv = th.epsilon.invert()
    xs, s_inv = th.x_scalar, th.s_inv
    a_z = associator(A, A, "1A", th)
    assert a_z.dom == a_z.cod == parse_word("1AA1A")
    assert a_z.arrows == {(0, 0): o, (3, 3): o,
                          (2, 1): o,
                          (1, 2): e_inv, (4, 2): xs * s_inv,
                          (1, 4): xs.invert() * s_inv, (4, 4): -e_inv}
    a_x = associator("1A", A, A, th)
    assert a_x.dom == a_x.cod == parse_word("1AA1A")
    assert {k: v for k, v in a_x.arrows.items() if a_x.dom[k[0]] == A} == {
        (1, 1): o,
        (2, 2): e_inv, (4, 2): xs * s_inv,
        (2, 4): xs.invert() * s_inv, (4, 4): -e_inv}
    a_y = associator(A, "1A", A, th)
    assert a_y.arrows == a_x.arrows


def test_associator_unit_argument_is_identity(th):
    rng = random.Random(9)
    for _ in range(5):
        y = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(1, 3)))
        z = "".join(rng.choice((ONE, A)) for _ in range(rng.randint(1, 3)))
        target = identity(tensor_words(tensor_words(UNIT, y), z), th)
        assert associator(UNIT, y, z, th) == target


def test_associator_self_composition_is_identity(th):
    al = associator(A, A, A, th)
    assert al.then(al) == identity("A1A", th)


# The tensor product, associator and braiding routed by the letter labels
# on every call, with the blocks built per call: a reference for the
# offset rule and the associator plans.

def routed_tensor(f, g):
    dom, dlab = expansion_labels(f.dom, g.dom)
    cod, clab = expansion_labels(f.cod, g.cod)
    cpos = {lab: q for q, lab in enumerate(clab)}
    arrows = {}
    for p, (i, j, t) in enumerate(dlab):
        for (fi, ci), fv in f.arrows.items():
            for (gj, cj), gv in g.arrows.items():
                if (fi, gj) == (i, j):
                    arrows[p, cpos[ci, cj, t]] = fv * gv
    return Morphism(dom, cod, arrows, f.theory)


def _routed_block(x, y, z, th):
    if x == y == z == A:
        e_inv, xs, s_inv = th.epsilon.invert(), th.x_scalar, th.s_inv
        return ((e_inv, th.zero, xs * s_inv),
                (th.zero, th.one, th.zero),
                (xs.invert() * s_inv, th.zero, -e_inv))
    xy = tensor_words(x, y)
    n = len("".join(tensor_words(letter, z) for letter in xy))
    return tuple(tuple(th.one if i == j else th.zero for j in range(n)) for i in range(n))


def _routed_ranks(triples):
    seen, out = {}, []
    for key in triples:
        seen[key] = seen.get(key, -1) + 1
        out.append((*key, seen[key]))
    return out


def routed_associator(x_word, y_word, z_word, th, inverse=False):
    xy, lab_xy = expansion_labels(x_word, y_word)
    left, lab = expansion_labels(xy, z_word)
    llab = _routed_ranks(lab_xy[pxy][:2] + (k,) for pxy, k, _ in lab)
    yz, lab_yz = expansion_labels(y_word, z_word)
    right, lab = expansion_labels(x_word, yz)
    rlab = _routed_ranks((i,) + lab_yz[pyz][:2] for i, pyz, _ in lab)
    rindex = {key: q for q, key in enumerate(rlab)}
    arrows = {}
    for p, (i, j, k, tl) in enumerate(llab):
        block = _routed_block(x_word[i], y_word[j], z_word[k], th)
        for tr in range(len(block)):
            v = block[tl][tr] if inverse else block[tr][tl]
            if not v.is_zero:
                q = rindex[(i, j, k, tr)]
                arrows[(q, p) if inverse else (p, q)] = v
    if inverse:
        return Morphism(right, left, arrows, th)
    return Morphism(left, right, arrows, th)


def routed_braiding(x_word, y_word, th, inverse=False):
    dom, dlab = expansion_labels(x_word, y_word)
    cod, clab = expansion_labels(y_word, x_word)
    cpos = {lab: q for q, lab in enumerate(clab)}
    beta = th.beta_inv if inverse else th.beta
    arrows = {}
    for p, (i, j, t) in enumerate(dlab):
        q = cpos[(j, i, t)]
        if x_word[i] == A and y_word[j] == A:
            v = beta * beta if t == 0 else beta
        else:
            v = th.one
        arrows[(q, p) if inverse else (p, q)] = v
    if inverse:
        return Morphism(cod, dom, arrows, th)
    return Morphism(dom, cod, arrows, th)


def test_plans_match_label_routing(any_theory):
    rng = random.Random(f"plans-{any_theory.epsilon_sign}-{any_theory.beta_sign}")
    words = ("", ONE, A, ONE + ONE, ONE + A, A + ONE, A + A)
    triples = list(itertools.product(words, repeat=3))
    triples += [tuple(_random_word(rng, 3) for _ in range(3)) for _ in range(200)]
    for params in ({}, {"x": Fraction(-2, 3), "y": Fraction(5, 7), "z": Fraction(3)}):
        th = dataclasses.replace(any_theory, **params)
        for x, y, z in triples:
            for inverse in (False, True):
                assert associator(x, y, z, th, inverse) \
                    == routed_associator(x, y, z, th, inverse), (x, y, z, inverse)
                for u, v in ((x, y), (tensor_words(x, y), z)):
                    assert braiding(u, v, th, inverse) \
                        == routed_braiding(u, v, th, inverse), (u, v, inverse)
            f = _random_morphism(rng, x, y, th)
            g = _random_morphism(rng, y, z, th)
            for m, n in ((f, g), (g, f)):
                assert tensor_morphisms(m, n) == routed_tensor(m, n), (m, n)


# -- braiding, twist, duality ---------------------------------------------------

def test_braiding_matrices(th):
    b = th.beta
    c = braiding(A, A, th)
    assert c.dom == c.cod == parse_word("1A")
    assert c.arrows == {(0, 0): b * b, (1, 1): b}
    c1a = braiding("1A", A, th)
    assert c1a.dom == c1a.cod == parse_word("A1A")
    assert c1a.arrows == {(1, 1): b * b, (0, 0): th.one, (2, 2): b}
    ca1 = braiding(A, "1A", th)
    assert ca1.arrows == c1a.arrows


def test_braiding_with_unit_is_identity(th):
    for y in (parse_word("A"), parse_word("1AA"), parse_word("AAA")):
        assert braiding(UNIT, y, th) == identity(tensor_words(UNIT, y), th)


def test_braiding_inverse(th):
    for x, y in ((A, A), (parse_word("1A"), parse_word("AA"))):
        fwd = braiding(x, y, th)
        inv = braiding(x, y, th, inverse=True)
        assert fwd.then(inv) == identity(tensor_words(x, y), th)
        assert inv.then(fwd) == identity(tensor_words(y, x), th)


def test_twist_values(th):
    tw = twist(A, th)
    assert tw.arrows == {(0, 0): th.beta_inv ** 2}
    tw_neg = twist(A, th, sign=-1)
    assert tw_neg.arrows == {(0, 0): th.beta ** 2}
    for w in (parse_word("A"), parse_word("1A1"), parse_word("AAA")):
        assert twist(w, th).then(twist(w, th, sign=-1)) == identity(w, th)


def test_birth_death_values(th):
    y, s = th.y_scalar, th.s
    b_a, d_a = birth(A, th), death(A, th)
    assert b_a.arrows == {(0, 0): y * s}
    assert d_a.arrows == {(0, 0): s / y}
    assert b_a.then(d_a).scalar() == th.epsilon
    with pytest.raises(ValueError, match="^not a unit-to-unit morphism$"):
        braiding(A, A, th).scalar()
    b_mixed = birth("1A", th)
    assert b_mixed.cod == parse_word("1AA1A")
    assert b_mixed.arrows == {(0, 0): y, (0, 3): y * s}
    d_mixed = death("1A", th)
    assert d_mixed.arrows == {(0, 0): y.invert(), (3, 0): s / y}


def test_scale_identity(th):
    w = parse_word("A1A")
    assert scale_identity(w, th.one, th) == identity(w, th)
    a, b = th.beta, th.epsilon
    lhs = scale_identity(w, a, th).then(scale_identity(w, b, th))
    assert lhs == scale_identity(w, a * b, th)
    two = scale_identity(parse_word("A1"), th.beta, th)
    assert two.arrows == {(0, 0): th.beta, (1, 1): th.beta}


# -- S-matrix -------------------------------------------------------------------

def test_s_matrix(any_theory):
    s = s_matrix(any_theory)
    e = any_theory.epsilon
    assert s[0][0] == any_theory.one
    assert s[0][1] == e and s[1][0] == e
    assert s[1][1] == -any_theory.one
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    assert det == -(e + 2)


# -- zigzags and the axiom suite -------------------------------------------------

def test_zigzag_mixed_word(th):
    x = parse_word("1A")
    idx = identity(x, th)
    lhs = compose(tensor_morphisms(birth(x, th), idx),
                  associator(x, x, x, th),
                  tensor_morphisms(idx, death(x, th)))
    assert lhs == idx


def test_axiom_suite_passes(any_theory):
    report = axiom_suite(any_theory, seed=11)
    assert report.all_passed, report.summary()
    assert "passed" in report.summary()


def test_axiom_suite_reproducible(th):
    first = axiom_suite(th, seed=12)
    second = axiom_suite(th, seed=12)
    assert first.summary() == second.summary()


# Every report of axiom_suite: (name, cases, passed) per check.
AXIOM_REPORT = [("pentagon", 24, True), ("hexagon-1", 14, True),
                ("hexagon-2", 14, True), ("triangle", 10, True),
                ("twist-braiding", 10, True), ("duality-zigzag", 7, True),
                ("duality-twist", 7, True), ("braiding-naturality", 100, True),
                ("associator-naturality", 20, True),
                ("associator-involution", 14, True),
                ("twist-unit-matrix", 10, True)]


def _seeded_parameters(rng: random.Random) -> dict[str, Fraction]:
    return {name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for name in ("x", "y", "z")}


def test_axiom_suite_report_is_pinned(any_theory):
    rng = random.Random(f"{any_theory.epsilon_sign}-{any_theory.beta_sign}")
    for seed in range(8):
        theory = dataclasses.replace(any_theory, **_seeded_parameters(rng))
        report = axiom_suite(theory, seed=seed)
        assert [(c.name, c.cases, c.passed) for c in report.checks] == AXIOM_REPORT


def _choice_word(rng: random.Random, max_len: int, min_len: int) -> str:
    return "".join([rng.choice((ONE, A)) for _ in range(rng.randint(min_len, max_len))])


def _randint_arrows(rng: random.Random, dom: str, cod: str) -> dict:
    arrows = {}
    for dp, x in enumerate(dom):
        for cp, y in enumerate(cod):
            if x == y:
                n, d = rng.randint(-3, 3), rng.randint(1, 3)
                if n:
                    q = Fraction(n, d)
                    arrows[dp, cp] = (((0, q.numerator),), q.denominator)
    return arrows


def test_random_draws_match_choice_and_randint(any_theory):
    # _random_word and _random_morphism draw through getrandbits loops;
    # they must draw what rng.choice((ONE, A)) and rng.randint do, and
    # leave the generator in the same state, on every Python the package
    # supports: axiom_suite's cases are these draws
    for seed in range(200):
        fast, reference = random.Random(seed), random.Random(seed)
        for min_len in (0, 1):
            for max_len in range(max(min_len, 1), 7):
                word = _random_word(fast, max_len, min_len)
                assert word == _choice_word(reference, max_len, min_len), (seed, max_len)
        for _ in range(4):
            dom, cod = _random_word(fast, 4, 0), _random_word(fast, 4, 0)
            assert (dom, cod) == (_choice_word(reference, 4, 0), _choice_word(reference, 4, 0))
            m = _random_morphism(fast, dom, cod, any_theory)
            assert {k: (v.terms, v.den) for k, v in m.arrows.items()} \
                == _randint_arrows(reference, dom, cod), seed
            assert all(v.field is any_theory.field for v in m.arrows.values())
        assert fast.getstate() == reference.getstate(), seed
    with pytest.raises(ValueError):
        _random_word(random.Random(0), 0, 1)


# Broken categories and the checks of axiom_suite that each must fail.
AXIOM_MUTANTS = {
    "associator top doubled": {"pentagon", "hexagon-1", "hexagon-2", "associator-involution"},
    "beta is beta_inv": {"hexagon-1", "hexagon-2", "twist-braiding"},
    "twist sign flipped": {"twist-braiding", "duality-twist", "twist-unit-matrix"},
}


@pytest.mark.parametrize("mutant", AXIOM_MUTANTS)
def test_axiom_suite_catches_broken_categories(any_theory, mutant, monkeypatch):
    # the suite builds each structural morphism once per call: it must
    # still see a broken block, constant or builder in every check that
    # reaches it
    th = dataclasses.replace(any_theory, x=Fraction(-4, 3), y=Fraction(5, 2))
    if mutant == "associator top doubled":
        block = Theory.associator_block

        def doubled(self):
            e_inv, top, bottom, neg_e_inv = block.func(self)
            return e_inv, top * 2, bottom, neg_e_inv

        monkeypatch.setattr(Theory, "associator_block", property(doubled))
    elif mutant == "beta is beta_inv":
        monkeypatch.setattr(Theory, "beta", property(lambda self: self.beta_inv))
    else:
        original = category.twist
        monkeypatch.setattr(category, "twist",
                            lambda word, theory, sign=1: original(word, theory, -sign))
    report = axiom_suite(th, seed=5)
    assert {c.name for c in report.checks if not c.passed} == AXIOM_MUTANTS[mutant]


def test_axiom_suite_passes_under_the_associator_gauge(any_theory, monkeypatch):
    # swapping the block's top and bottom entries is the gauge x -> 1/x,
    # a valid associator, so it is no mutant
    original = Theory.associator_block

    def swapped(self):
        e_inv, top, bottom, neg_e_inv = original.func(self)
        return e_inv, bottom, top, neg_e_inv

    monkeypatch.setattr(Theory, "associator_block", property(swapped))
    th = dataclasses.replace(any_theory, x=Fraction(-4, 3))
    assert axiom_suite(th, seed=5).all_passed


def _morphisms() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Morphism)


def test_axiom_suite_keeps_no_morphism(any_theory):
    # the suite's memo of built morphisms lives as long as the call, and
    # is freed by reference counting alone when it returns
    th = dataclasses.replace(any_theory, z=Fraction(7, 2))
    gc.collect()
    gc.disable()
    try:
        before = _morphisms()
        report = axiom_suite(th, seed=9)
        after = _morphisms()
    finally:
        gc.enable()
    assert report.all_passed
    assert after == before


def test_builders_pass_the_public_checks(any_theory):
    # then, tensor_morphisms, scale_identity, associator, braiding, twist,
    # birth, death and spines._hom_unit_basis skip Morphism's checks;
    # everything they build must pass them
    rng = random.Random(8)
    th = dataclasses.replace(any_theory, **_seeded_parameters(rng))
    built = []
    for _ in range(12):
        x, y, z = (_random_word(rng, 3) for _ in range(3))
        f = _random_morphism(rng, x, y, th)
        g = _random_morphism(rng, y, z, th)
        h = _random_morphism(rng, z, x, th)
        value = rng.choice((th.zero, th.one, th.s, -th.epsilon, th.x_scalar))
        built += [f.then(g), f.then(g).then(h), tensor_morphisms(f, h),
                  tensor_morphisms(f, g).then(braiding(y, z, th)),
                  scale_identity(x, value, th),
                  associator(x, y, z, th), associator(x, y, z, th, inverse=True),
                  # sums that cancel to zero arrows, which then must drop
                  associator(x, y, z, th).then(associator(x, y, z, th, inverse=True)),
                  braiding(x, y, th), braiding(x, y, th, inverse=True),
                  braiding(x, y, th).then(braiding(x, y, th, inverse=True)),
                  twist(x, th, 1), twist(x, th, -1), birth(x, th), death(x, th)]
    simple = (ONE, A)
    for x, y, z in itertools.product(simple, repeat=3):
        if admissible(x, y, z):
            built += [_hom_unit_basis(x, y, z, coeff, th)
                      for coeff in (th.one, -th.epsilon, th.z_scalar)]
    for m in built:
        assert Morphism(m.dom, m.cod, dict(m.arrows), m.theory) == m


def test_every_cache_is_bounded():
    # a long-lived process that varies x, y, z builds new theories: every
    # cache must stop growing, and none may take a theory or a field value,
    # whose entries would outlive the theory; what belongs to one theory
    # is kept on it
    caches = 0
    for info in pkgutil.iter_modules(fibcat.__path__):
        module = importlib.import_module(f"fibcat.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info"):
                caches += 1
                assert obj.cache_parameters()["maxsize"] is not None, \
                    f"{info.name}.{name}"
                hints = typing.get_type_hints(obj.__wrapped__)
                hints.pop("return", None)
                assert not {Theory, Scalar} & set(hints.values()), f"{info.name}.{name}"
    assert caches >= 5


# The caches keyed on words alone.
WORD_CACHES = [tensor_words, category._starts, category._associator_plan]


def test_word_caches_stop_growing_across_theories():
    # a long-lived process that varies x, y, z: the caches keyed on words
    # alone fill under the first theory, and later theories add nothing
    for cache in WORD_CACHES:
        cache.cache_clear()
    rng = random.Random(16)
    sizes = []
    for _ in range(16):
        th = dataclasses.replace(Theory(), **_seeded_parameters(rng))
        assert axiom_suite(th, seed=3).all_passed
        sizes.append(sum(cache.cache_info().currsize for cache in WORD_CACHES))
    assert sizes[0] > 0
    assert sizes == [sizes[0]] * 16


def test_word_caches_stay_small():
    # a long-lived process that checks many words: the word caches keep
    # O(letters) integers per entry, a word pair's summand offsets and an
    # associator plan's position columns, never a tuple per pair of
    # letters.  Over these 50 seeds the memory still traced at the end
    # was 8.8 MiB with a position tuple per letter pair and a braiding
    # plan per word pair, and 2.3 MiB with the integer caches (Python
    # 3.11, x86_64)
    for cache in WORD_CACHES:
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(50):
            axiom_suite(Theory(), seed=seed)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced < 4 * 2**20, traced


# The bound's unit: a tangles._table entry of the theories below took about
# 2.8 KB traced when the bound was set.  Its integer tables now keep about
# 1.4 KB (tracemalloc around _table.__wrapped__ for the four kinds of 40
# seeded theories, category caches warm; Python 3.11, x86_64).
_TABLE_ENTRY_BYTES = 2800


def test_memory_stays_bounded_across_theories():
    # a long-lived process that varies x, y, z: tangles._table is keyed
    # by the two signs, so its 12 tables here (three kinds in four sign
    # pairs) are built in the warm-up, and no later theory builds one.
    # The per-theory caches are full after the warm-up of 120 theories,
    # and from then on a new theory only replaces entries of other sizes:
    # the traced memory over the next 100 theories changed by -212 bytes
    # alone and -140 after the rest of the suite (Python 3.11, x86_64),
    # where a _table keyed by theory, 256 entries of which three per
    # theory, grew by 3,668 and 9,796
    trefoil = parse_link(read_fixture("links/trefoil_framed1.txt"))
    rng = random.Random("memory")
    tracemalloc.start()
    try:
        for i in range(220):
            if i == 120:
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
                misses = tangles._table.cache_info().misses
            th = dataclasses.replace(rng.choice(ALL_THEORIES), **_seeded_parameters(rng))
            tr_link(trefoil, th)
            tr_manifold(trefoil, th)
            tv(SPHERE_SPINE, th)
            t_epsilon(SPHERE_SPINE, th)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert tangles._table.cache_info().misses == misses
    assert growth < 8 * _TABLE_ENTRY_BYTES, growth
