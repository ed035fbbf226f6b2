from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, mul

import pytest

from conftest import (PARAMETER_THEORIES, banded_spine, random_spine, read_fixture,
                      sphere_union, theory_id)
from fibcat import ALL_THEORIES, Scalar, Theory
from fibcat import spines as sp
from fibcat.category import A, ONE
from fibcat.spines import (MAX_COMPONENTS, MAX_ELIMINATION_WIDTH, SPHERE_SPINE,
                           Spine, SpineParseError, SpineValidationError, admissible,
                           module_iso_check, pairing_categorical,
                           pairing_table, parse_spine, sixj_categorical,
                           sixj_table, t_epsilon, tv, vertex_triples)

PARAM_SETS = (
    Theory(),
    Theory(x=2, y=Fraction(3, 2), z=5),
    Theory(x=Fraction(1, 3), y=7, z=Fraction(2, 5)),
)


@pytest.fixture
def th():
    return Theory()


# -- admissibility ------------------------------------------------------------------

def test_admissible():
    assert admissible(ONE, ONE, ONE)
    assert not admissible(ONE, ONE, A)
    assert not admissible(A, ONE, ONE)
    assert admissible(ONE, A, A)
    assert admissible(A, ONE, A)
    assert admissible(A, A, A)


# -- pairings -----------------------------------------------------------------------

def test_pairing_table_values(th):
    one = th.one
    yz = th.y_scalar * th.z_scalar
    assert pairing_table(ONE, ONE, ONE, one, one, th) == one
    assert pairing_table(ONE, A, A, one, one, th) == yz ** 2
    assert pairing_table(A, A, A, one, one, th) == th.x_scalar * yz ** 3


def test_pairing_table_rejects_non_admissible(th):
    with pytest.raises(ValueError):
        pairing_table(ONE, ONE, A, th.one, th.one, th)


@pytest.mark.parametrize("params", PARAM_SETS, ids=("unit", "rational", "fraction"))
def test_pairing_categorical_matches_table(params):
    one = params.one
    for x, y, z in product((ONE, A), repeat=3):
        value = pairing_categorical(x, y, z, one, one, params)
        if admissible(x, y, z):
            assert value == pairing_table(x, y, z, one, one, params)
        else:
            assert value.is_zero


def test_pairing_categorical_bilinear(th):
    a = th.rational(3)
    b = th.rational(Fraction(-2, 7))
    base = pairing_categorical(A, A, A, th.one, th.one, th)
    assert pairing_categorical(A, A, A, a, b, th) == a * b * base
    assert pairing_categorical(A, A, A, a + a, th.one, th) \
        == 2 * pairing_categorical(A, A, A, a, th.one, th)


# -- 6j-symbols -----------------------------------------------------------------------

def test_sixj_table_values(th):
    one = th.one
    e = th.epsilon
    yz = th.y_scalar * th.z_scalar
    assert sixj_table(ONE * 6, one, one, one, one, th) == one
    assert sixj_table((ONE, ONE, ONE, A, A, A), one, one, one, one, th) \
        == yz ** 3 * th.s_inv
    assert sixj_table((ONE, A, A, ONE, A, A), one, one, one, one, th) \
        == yz ** 4 / e
    assert sixj_table((ONE, A, A, A, A, A), one, one, one, one, th) \
        == th.x_scalar * yz ** 5 / e
    assert sixj_table(A * 6, one, one, one, one, th) \
        == -(th.x_scalar ** 2) * yz ** 6 / e ** 2
    assert sixj_table((ONE, ONE, A, A, A, A), one, one, one, one, th).is_zero


def test_sixj_multilinear(th):
    rng = random.Random(16)
    cfg = (ONE, A, A, A, A, A)
    coeffs = [th.rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
              for _ in range(4)]
    base = sixj_categorical(cfg, th.one, th.one, th.one, th.one, th)
    assert sixj_categorical(cfg, *coeffs, th) \
        == coeffs[0] * coeffs[1] * coeffs[2] * coeffs[3] * base


@pytest.mark.parametrize("params", PARAM_SETS, ids=("unit", "rational", "fraction"))
def test_sixj_categorical_matches_table(params):
    one = params.one
    for cfg in product((ONE, A), repeat=6):
        assert sixj_categorical(cfg, one, one, one, one, params) \
            == sixj_table(cfg, one, one, one, one, params), cfg


def test_sixj_symmetries(th):
    # the stated cyclic symmetry: rotating to (Z1 Y2 X2 | Z2 Y1 X1)
    # with arguments (a4, a1, a2, a3) preserves the value
    rng = random.Random(17)
    for cfg in product((ONE, A), repeat=6):
        x1, y1, z1, x2, y2, z2 = cfg
        a = [th.rational(rng.randint(1, 4)) for _ in range(4)]
        rotated = (z1, y2, x2, z2, y1, x1)
        assert sixj_table(cfg, *a, th) \
            == sixj_table(rotated, a[3], a[0], a[1], a[2], th)
        # swapping the two triples through X1 permutes to
        # (X1 Z2 Y2 | X2 Z1 Y1) with (a2, a1, a3, a4)
        swapped = (x1, z2, y2, x2, z1, y1)
        assert sixj_table(cfg, *a, th) \
            == sixj_table(swapped, a[1], a[0], a[2], a[3], th)


def test_sixj_symmetries_categorical_spot_checks(th):
    one = th.one
    for cfg in ((ONE, A, A, A, A, A), (A, A, A, A, A, A),
                (ONE, ONE, ONE, A, A, A), (A, ONE, A, A, ONE, A)):
        x1, y1, z1, x2, y2, z2 = cfg
        rotated = (z1, y2, x2, z2, y1, x1)
        assert sixj_categorical(cfg, one, one, one, one, th) \
            == sixj_categorical(rotated, one, one, one, one, th)


def test_vertex_triples():
    cfg = (ONE, A, A, A, A, A)
    assert vertex_triples(cfg) == ((ONE, A, A), (ONE, A, A),
                                   (A, A, A), (A, A, A))


# -- module isomorphisms -----------------------------------------------------------------

def test_module_isomorphisms_are_identities(any_theory):
    report = module_iso_check(any_theory)
    assert report.checked == 5
    assert report.all_identities, report.failures


# -- spine parsing -------------------------------------------------------------------------

def test_parse_sphere_spine():
    spine = parse_spine(read_fixture("spines/sphere.txt"))
    assert spine == SPHERE_SPINE
    assert spine.n_components == 2
    assert len(spine.edges) == 2
    assert len(spine.vertices) == 1


def test_render_round_trip():
    rng = random.Random("spine-render")
    spines = [SPHERE_SPINE, parse_spine(read_fixture("spines/sphere.txt"))]
    spines += [random_spine(rng.randint(1, 12), rng) for _ in range(40)]
    spines += [banded_spine(rng.randint(4, 30), rng) for _ in range(20)]
    for spine in spines:
        text = spine.render()
        assert parse_spine(text) == spine, text
        assert parse_spine(text).render() == text
    assert SPHERE_SPINE.render() == ("spine\ncomponents 2\nedge 0 1 1\nedge 1 1 1\n"
                                     "vertex 0 1 1 1 1 1\nend\n")
    # a spine that fails validation renders too, and parses back unchecked
    loose = Spine(2, ((0, 1, 1),), ((0, 1, 1, 1, 1, 1),))
    assert parse_spine(loose.render(), euler_check=False) == loose


def test_euler_validation():
    text = "spine\ncomponents 2\nedge 0 1 1\nvertex 0 1 1 1 1 1\nend\n"
    with pytest.raises(SpineValidationError, match="E = 2V"):
        parse_spine(text)
    spine = parse_spine(text, euler_check=False)
    assert len(spine.edges) == 1
    bad_euler = ("spine\ncomponents 3\nedge 0 1 1\nedge 1 1 2\n"
                 "vertex 0 1 1 1 1 1\nend\n")
    with pytest.raises(SpineValidationError, match="C - E \\+ V"):
        parse_spine(bad_euler)


def test_parse_errors():
    with pytest.raises(SpineParseError, match="line 1"):
        parse_spine("polyhedron\nend\n")
    with pytest.raises(SpineParseError):
        parse_spine("spine\ncomponents 1\nedge 0 5 0\nend\n")
    with pytest.raises(SpineParseError):
        parse_spine("spine\ncomponents 1\nedge 0 0\nend\n")
    for text in ("", "spine\n", "spine\ncomponents 1\n"):
        with pytest.raises(SpineParseError, match="incomplete spine file"):
            parse_spine(text)


# -- state sums -------------------------------------------------------------------------------

def test_tv_sphere(any_theory):
    assert tv(SPHERE_SPINE, any_theory) == any_theory.one


@pytest.mark.parametrize("params", PARAM_SETS, ids=("unit", "rational", "fraction"))
def test_tv_parameter_independence(params):
    assert tv(SPHERE_SPINE, params) == params.one


def test_t_epsilon_sphere(any_theory):
    assert t_epsilon(SPHERE_SPINE, any_theory) == any_theory.one


def test_tv_equals_t_on_fixtures(any_theory):
    for spine in (SPHERE_SPINE,):
        assert tv(spine, any_theory) == t_epsilon(spine, any_theory)


def test_tv_real(th):
    value = tv(SPHERE_SPINE, th)
    assert value.conjugate() == value
    assert abs(value.embed().imag) < 1e-12


def test_non_admissible_coloring_contributes_zero(th):
    # two components, a single triple line winged (0, 1, 1); the coloring
    # (A, 1) makes that edge non-admissible, so only the other three
    # colorings contribute
    spine = Spine(n_components=2, edges=((0, 1, 1),), vertices=())
    e = th.epsilon
    yz = th.y_scalar * th.z_scalar
    expected = (th.one                                    # (1, 1)
                + e / yz ** 2                             # (1, A)
                + e ** 2 / (th.x_scalar * yz ** 3))       # (A, A)
    assert tv(spine, th) == expected


# -- the elimination engine against the coloring sum --------------------------------------

def _coloring_sum(spine, theory, with_edges):
    """The state sum as the plain loop over all 2^C colorings."""
    one = theory.one
    sixj = {cfg: sixj_table(cfg, one, one, one, one, theory)
            for cfg in product((ONE, A), repeat=6)}
    pairing = {t: pairing_table(*t, one, one, theory)
               for t in product((ONE, A), repeat=3) if admissible(*t)}
    total = theory.zero
    for colors in product((ONE, A), repeat=spine.n_components):
        term = theory.epsilon ** colors.count(A)
        for v in spine.vertices:
            term = term * sixj[tuple(colors[c] for c in v)]
        for e in spine.edges if with_edges else ():
            triple = tuple(colors[c] for c in e)
            if triple not in pairing:
                break
            term = term / pairing[triple]
        else:
            total = total + term
    return total


def test_state_sums_match_coloring_sum():
    rng = random.Random(6)
    spines = [random_spine(rng.randint(0, 9), rng) for _ in range(20)]
    repeated = [s for s in spines
                if any(len(set(slots)) < len(slots) for slots in s.edges + s.vertices)]
    assert len(repeated) >= 15
    xyz = dict(x=Fraction(rng.randint(1, 9), rng.randint(1, 9)),
               y=Fraction(-rng.randint(1, 9), rng.randint(1, 9)),
               z=Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    for base in ALL_THEORIES:
        theory = Theory(base.epsilon_sign, base.beta_sign, **xyz)
        unit = Theory(base.epsilon_sign, base.beta_sign)
        for spine in spines:
            t = t_epsilon(spine, theory)
            assert tv(spine, theory) == _coloring_sum(spine, theory, True), spine
            assert t == _coloring_sum(spine, unit, False), spine
            assert tv(spine, unit) == t, spine


def test_state_sums_without_vertices(any_theory):
    # 2^n colorings, each weighted eps^#A: the binomial sum; at the
    # component bound, in one theory, the masks reach bit 4,999
    for n in (40, MAX_COMPONENTS) if any_theory == Theory() else (40,):
        spine = Spine(n, (), ())
        expected = (any_theory.one + any_theory.epsilon) ** n
        assert tv(spine, any_theory) == expected
        assert t_epsilon(spine, any_theory) == expected


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_engine_weights_match_the_category(theory):
    # each weight of the integer engine, made a scalar as the engine makes
    # its sum one, is the categorical 6j-symbol or reciprocal pairing
    one = theory.one
    vertex, line = sp._weights(theory.x, theory.y * theory.z)
    as_scalar = lambda weight: sp._ring_scalar(weight[0], theory) * weight[1]
    for cfg in product((ONE, A), repeat=6):
        profile = sp._profile(cfg)
        if profile is not None:
            assert as_scalar(vertex[profile]) \
                == sixj_categorical(cfg, one, one, one, one, theory), cfg
    for triple in product((ONE, A), repeat=3):
        if admissible(*triple):
            assert as_scalar(line[triple.count(A)]) \
                == 1 / pairing_categorical(*triple, one, one, theory), triple


def test_state_sums_make_no_scalar_per_entry(monkeypatch):
    # the elimination runs on integers: a state sum makes the same few
    # scalar operations, for its one value, on a spine of any size
    theory = Theory(x=Fraction(2, 3), y=Fraction(-5, 7), z=3)
    spines = [banded_spine(n, random.Random(n)) for n in (48, 200)]
    tv(spines[0], theory)     # the theory's cached constants
    count = [0]

    def counted(method):
        def wrapper(*args):
            count[0] += 1
            return method(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "_sum", "__neg__", "invert"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    for state_sum in (tv, t_epsilon):
        ops = []
        for spine in spines:
            count[0] = 0
            assert not state_sum(spine, theory).is_zero
            ops.append(count[0])
        assert ops[0] == ops[1] <= 8, (state_sum.__name__, ops)


@pytest.mark.parametrize("signs", ("positive", "negative"))
def test_sphere_union_gauge_cancels(signs):
    # the 2,500-copy union at rational x, y, z: the engine's common
    # denominator reaches its 2,500th power, and cancels to 1
    spine = sphere_union(MAX_COMPONENTS // 2)
    for xyz in ((Fraction(2, 3), Fraction(-5, 7), 3),
                (Fraction(-13, 11), Fraction(7, 5), Fraction(-9, 2))):
        theory = Theory(signs, "plus", *xyz)
        assert tv(spine, theory) == theory.one


def test_pairwise_product_equals_the_sequential_one():
    # the products of the state sum's scales and closed constants; joined
    # text checks that each value enters once, in its order
    rng = random.Random("pairwise")
    join = lambda a, b: sp._join(0, a, 0, b)[1]
    for n in (0, 1, 2, 3, 7, 8, 33):
        ints = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        tables = [{0: tuple(rng.randint(-99, 99) for _ in range(4))} for _ in range(n)]
        texts = [str(i) for i in range(n)]
        for values, times, one in ((ints, mul, 1), (tables, join, {0: sp._ONE}),
                                   (texts, add, "")):
            assert sp._pairwise_product(values, times, one) == reduce(times, values, one)


def test_banded_spine_tv_equals_t():
    theory = Theory(epsilon_sign="negative")
    spine = banded_spine(48, random.Random(48))
    assert tv(spine, theory) == t_epsilon(spine, theory)


def test_elimination_width_limit():
    # dense random incidence whose planned width is 17; the plan alone
    # refuses it, so no table of 2^17 entries is ever built
    spine = random_spine(23, random.Random(0))
    message = f"elimination width 17 exceeds {MAX_ELIMINATION_WIDTH}"
    with pytest.raises(SpineValidationError, match=message):
        tv(spine, Theory())
    with pytest.raises(SpineValidationError, match=message):
        t_epsilon(spine, Theory())


def test_component_count_limit(monkeypatch):
    # refused before the elimination is planned, so no count costs work
    def planned(*args):
        raise AssertionError("an elimination was planned")

    monkeypatch.setattr(sp, "_elimination_order", planned)
    for n in (MAX_COMPONENTS + 1, 10 ** 30):
        message = f"component count {n} exceeds {MAX_COMPONENTS}"
        for state_sum in (tv, t_epsilon):
            with pytest.raises(SpineValidationError, match=message):
                state_sum(Spine(n, (), ()), Theory())
