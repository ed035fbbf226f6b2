"""State-sum invariants on special spines, with their categorical oracles.

A special spine is stored combinatorially: 2-components are ids, each
triple line knows the three 2-components winging it, and each true vertex
carries six component slots (X1 Y1 Z1 | X2 Y2 Z2): first the three
components meeting the adjacent triple lines, then the opposite ones.

The state sum ``tv`` colors the 2-components by simple objects, weights
every vertex by a 6j-symbol and every triple line by the reciprocal of a
pairing, and sums with a factor eps per A-colored component.  Both the
6j-symbols and the pairings exist twice here: as the closed tables, and
as explicit compositions of category morphisms that the tests play off
against the tables.  ``t_epsilon`` is the classical golden-ratio state
sum: the ``tv`` sum with x = y = z = 1 and no edge factors, run by the
same loop, so it equals ``tv`` at unit parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import category as cat
from .category import A, ONE, Morphism, SimpleObject
from .scalars import Scalar, Theory

Triple = tuple[SimpleObject, SimpleObject, SimpleObject]


def admissible(x: SimpleObject, y: SimpleObject, z: SimpleObject) -> bool:
    """A triple is admissible when the number of A's is not one."""
    return (x, y, z).count(A) != 1


def _a_count(colors) -> int:
    return sum(1 for c in colors if c is A)


# ---------------------------------------------------------------------------
# multiplicity-module basis elements


def _hom_unit_basis(x: SimpleObject, y: SimpleObject, z: SimpleObject,
                    coeff: Scalar, theory: Theory) -> Morphism:
    """coeff times the canonical basis of Hom(1, (x (x) y) (x) z); the
    zero morphism for the trivial (non-admissible) modules.

    The basis morphism carries the normalization y^(#A in the triple):
    together with identity caps on the unit object this is the unique
    identification of the modules with scalars under which the closed
    pairing and 6j tables hold at every parameter choice.
    """
    cod = cat.tensor_words(cat.tensor_words((x,), (y,)), (z,))
    ones = [p for p, letter in enumerate(cod) if letter is ONE]
    if len(ones) > 1:
        raise AssertionError(f"unexpected multiplicity for {(x, y, z)}")
    value = coeff * theory.y_scalar ** _a_count((x, y, z))
    entries = {(0, p): value for p in ones}
    return cat.morphism_from_entries(cat.UNIT, cod, entries, theory)


def _w_scale(x: SimpleObject, theory: Theory) -> Morphism:
    """w_1 = id_1, w_A = z * id_A."""
    value = theory.one if x is ONE else theory.z_scalar
    return cat.scale_identity((x,), value, theory)


def _simple_cap(x: SimpleObject, theory: Theory) -> Morphism:
    """The closing cap on one simple object: d_A on A, the identity on
    the unit object (whose birth and death are both identities)."""
    if x is A:
        return cat.death((A,), theory)
    return cat.identity((ONE,), theory)


# ---------------------------------------------------------------------------
# pairings


def pairing_table(x: SimpleObject, y: SimpleObject, z: SimpleObject,
                  a: Scalar, b: Scalar, theory: Theory) -> Scalar:
    """(a, b)^{xyz} for an admissible triple: ab, ab y^2 z^2, or ab x y^3 z^3."""
    n = _a_count((x, y, z))
    if n == 1:
        raise ValueError(f"triple {(x, y, z)} is not admissible")
    return a * b * _pairing_unit(n, theory)


@lru_cache(maxsize=None)
def _pairing_unit(n_a: int, theory: Theory) -> Scalar:
    y2z2 = (theory.y_scalar * theory.z_scalar) ** 2
    if n_a == 0:
        return theory.one
    if n_a == 2:
        return y2z2
    return theory.x_scalar * y2z2 * theory.y_scalar * theory.z_scalar


def pairing_categorical(x: SimpleObject, y: SimpleObject, z: SimpleObject,
                        a: Scalar, b: Scalar, theory: Theory) -> Scalar:
    """The pairing as the nine-step composite of category morphisms."""
    t = cat.tensor_morphisms
    ident = lambda w: cat.identity(w, theory)
    assoc = lambda u, v, w: cat.associator(u, v, w, theory)
    assoc_inv = lambda u, v, w: cat.associator(u, v, w, theory, inverse=True)
    wx, wy, wz = (x,), (y,), (z,)
    xy = cat.tensor_words(wx, wy)
    xyz = cat.tensor_words(xy, wz)
    zy = cat.tensor_words(wz, wy)

    mu = [
        t(_hom_unit_basis(x, y, z, a, theory), _hom_unit_basis(z, y, x, b, theory)),
        t(t(t(_w_scale(x, theory), _w_scale(y, theory)), _w_scale(z, theory)),
          t(t(ident(wz), ident(wy)), ident(wx))),
        assoc_inv(xyz, zy, wx),
        t(assoc_inv(xyz, wz, wy), ident(wx)),
        t(t(assoc(xy, wz, wz), ident(wy)), ident(wx)),
        t(t(t(ident(xy), _simple_cap(z, theory)), ident(wy)), ident(wx)),
        t(assoc(wx, wy, wy), ident(wx)),
        t(t(ident(wx), _simple_cap(y, theory)), ident(wx)),
        _simple_cap(x, theory),
    ]
    return cat.compose(*mu).scalar()


# ---------------------------------------------------------------------------
# 6j-symbols

SixColors = tuple[SimpleObject, SimpleObject, SimpleObject,
                  SimpleObject, SimpleObject, SimpleObject]


def vertex_triples(colors: SixColors) -> tuple[Triple, Triple, Triple, Triple]:
    """The four admissibility triples of a vertex configuration."""
    x1, y1, z1, x2, y2, z2 = colors
    return ((x1, y1, z1), (x1, y2, z2), (y1, z2, x2), (z1, x2, y2))


_PROFILES = ((0, 0, 0, 0), (0, 2, 2, 2), (2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 3, 3))


def _profile(colors: SixColors) -> tuple[int, ...] | None:
    """The sorted per-triple A-counts of a vertex configuration, or None
    when one of its four triples is not admissible."""
    counts = sorted(_a_count(t) for t in vertex_triples(colors))
    return None if 1 in counts else tuple(counts)


@lru_cache(maxsize=None)
def _sixj_unit(profile: tuple[int, ...], theory: Theory) -> Scalar:
    """Value on unit arguments, by the multiset of per-triple A-counts."""
    e = theory.epsilon
    yz = theory.y_scalar * theory.z_scalar
    x = theory.x_scalar
    if profile == (0, 0, 0, 0):
        return theory.one
    if profile == (0, 2, 2, 2):
        return yz ** 3 * theory.s_inv
    if profile == (2, 2, 2, 2):
        return yz ** 4 / e
    if profile == (2, 2, 3, 3):
        return x * yz ** 5 / e
    if profile == (3, 3, 3, 3):
        return -(x ** 2) * yz ** 6 / (e * e)
    raise AssertionError(f"impossible admissible profile {profile}")


def sixj_table(colors: SixColors, a1: Scalar, a2: Scalar, a3: Scalar,
               a4: Scalar, theory: Theory) -> Scalar:
    """Closed-form 6j-symbol; zero when any of the four triples fails
    admissibility, symmetric in the tetrahedral symmetries otherwise."""
    profile = _profile(colors)
    if profile is None:
        return theory.zero
    return a1 * a2 * a3 * a4 * _sixj_unit(profile, theory)


def sixj_categorical(colors: SixColors, a1: Scalar, a2: Scalar, a3: Scalar,
                     a4: Scalar, theory: Theory) -> Scalar:
    """The 6j-symbol as the twenty-one-step composite of category morphisms."""
    x1, y1, z1, x2, y2, z2 = colors
    t = cat.tensor_morphisms
    ident = lambda w: cat.identity(w, theory)
    assoc = lambda u, v, w: cat.associator(u, v, w, theory)
    assoc_inv = lambda u, v, w: cat.associator(u, v, w, theory, inverse=True)
    cap = lambda s: _simple_cap(s, theory)
    ws = lambda s: _w_scale(s, theory)
    wx1, wy1, wz1 = (x1,), (y1,), (z1,)
    wx2, wy2, wz2 = (x2,), (y2,), (z2,)
    x1y1 = cat.tensor_words(wx1, wy1)
    x1y1z1 = cat.tensor_words(x1y1, wz1)
    z1x2 = cat.tensor_words(wz1, wx2)
    y1z2 = cat.tensor_words(wy1, wz2)
    x1y2 = cat.tensor_words(wx1, wy2)
    x1y2z2 = cat.tensor_words(x1y2, wz2)
    x1z2 = cat.tensor_words(wx1, wz2)

    mu = [
        t(_hom_unit_basis(x1, y1, z1, a1, theory),
          _hom_unit_basis(z1, x2, y2, a4, theory)),
        t(t(t(ws(x1), ws(y1)), ws(z1)), t(t(ident(wz1), ws(x2)), ident(wy2))),
        assoc_inv(x1y1z1, z1x2, wy2),
        t(assoc_inv(x1y1z1, wz1, wx2), ident(wy2)),
        t(t(assoc(x1y1, wz1, wz1), ident(wx2)), ident(wy2)),
        t(t(t(ident(x1y1), cap(z1)), ident(wx2)), ident(wy2)),
        t(t(t(ident(x1y1), _hom_unit_basis(y1, z2, x2, a3, theory)),
            ident(wx2)), ident(wy2)),
        t(t(assoc_inv(x1y1, y1z2, wx2), ident(wx2)), ident(wy2)),
        t(t(t(assoc_inv(x1y1, wy1, wz2), ident(wx2)), ident(wx2)), ident(wy2)),
        t(t(t(t(assoc(wx1, wy1, wy1), ident(wz2)), ident(wx2)), ident(wx2)),
          ident(wy2)),
        t(t(t(t(t(ident(wx1), cap(y1)), ident(wz2)), ident(wx2)),
            ident(wx2)), ident(wy2)),
        t(assoc(x1z2, wx2, wx2), ident(wy2)),
        t(t(ident(x1z2), cap(x2)), ident(wy2)),
        t(t(t(ident(wx1), _hom_unit_basis(x1, y2, z2, a2, theory)),
            ident(wz2)), ident(wy2)),
        t(t(t(ident(wx1), t(t(ident(wx1), ws(y2)), ws(z2))), ident(wz2)),
          ident(wy2)),
        t(assoc(wx1, x1y2z2, wz2), ident(wy2)),
        t(t(ident(wx1), assoc(x1y2, wz2, wz2)), ident(wy2)),
        t(t(ident(wx1), t(ident(x1y2), cap(z2))), ident(wy2)),
        t(assoc_inv(wx1, wx1, wy2), ident(wy2)),
        t(t(cap(x1), ident(wy2)), ident(wy2)),
        cap(y2),
    ]
    return cat.compose(*mu).scalar()


# ---------------------------------------------------------------------------
# the identification isomorphisms of the six permuted modules


@dataclass
class ModuleIsoReport:
    failures: list[tuple[Triple, str]]
    checked: int

    @property
    def all_identities(self) -> bool:
        return not self.failures


def module_iso_check(theory: Theory) -> ModuleIsoReport:
    """Check that the swap isomorphisms on Hom(1, (X (x) Y) (x) Z) are the
    identity for every admissible triple."""
    v_prime = {ONE: theory.one, A: theory.beta_inv}
    failures = []
    checked = 0
    for x, y, z in product((ONE, A), repeat=3):
        if not admissible(x, y, z):
            continue
        checked += 1
        wx, wy, wz = (x,), (y,), (z,)
        basis = _hom_unit_basis(x, y, z, theory.one, theory)

        swap12 = cat.compose(
            basis,
            cat.tensor_morphisms(cat.braiding(wx, wy, theory),
                                 cat.identity(wz, theory)),
            cat.scale_identity(
                cat.tensor_words(cat.tensor_words(wy, wx), wz),
                v_prime[x] * v_prime[y] * v_prime[z].invert(), theory))
        if swap12 != _hom_unit_basis(y, x, z, theory.one, theory):
            failures.append(((x, y, z), "swap-12"))

        swap23 = cat.compose(
            basis,
            cat.associator(wx, wy, wz, theory),
            cat.tensor_morphisms(cat.identity(wx, theory),
                                 cat.braiding(wy, wz, theory)),
            cat.associator(wx, wz, wy, theory, inverse=True),
            cat.scale_identity(
                cat.tensor_words(cat.tensor_words(wx, wz), wy),
                v_prime[x].invert() * v_prime[y] * v_prime[z], theory))
        if swap23 != _hom_unit_basis(x, z, y, theory.one, theory):
            failures.append(((x, y, z), "swap-23"))
    return ModuleIsoReport(failures, checked)


# ---------------------------------------------------------------------------
# spines


class SpineParseError(ValueError):
    """Malformed spine file."""


class SpineValidationError(ValueError):
    """Incidence data that cannot come from a special spine of a closed
    manifold (Euler characteristic or edge/vertex count identities fail)."""


@dataclass(frozen=True)
class Spine:
    """Combinatorial special spine: 2-component count, triple lines with
    their three wing components, vertices with six component slots."""

    n_components: int
    edges: tuple[tuple[int, int, int], ...]
    vertices: tuple[tuple[int, int, int, int, int, int], ...]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 3 or any(not 0 <= c < self.n_components for c in e):
                raise SpineParseError(f"edge {e} references unknown components")
        for v in self.vertices:
            if len(v) != 6 or any(not 0 <= c < self.n_components for c in v):
                raise SpineParseError(f"vertex {v} references unknown components")

    def validate(self) -> None:
        ne, nv, nc = len(self.edges), len(self.vertices), self.n_components
        if ne != 2 * nv:
            raise SpineValidationError(
                f"special spine needs E = 2V, got E={ne}, V={nv}")
        if nc - ne + nv != 1:
            raise SpineValidationError(
                f"closed-manifold spine needs C - E + V = 1, got "
                f"{nc} - {ne} + {nv} = {nc - ne + nv}")


def parse_spine(text: str, euler_check: bool = True) -> Spine:
    """Parse the line-oriented spine format (see the file-format docs)."""
    n_components = None
    edges: list[tuple[int, int, int]] = []
    vertices: list[tuple[int, ...]] = []
    state = "expect_header"
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if state == "expect_header":
            if tokens != ["spine"]:
                raise SpineParseError(f"line {lineno}: expected 'spine' header")
            state = "expect_components"
        elif state == "expect_components":
            if len(tokens) != 2 or tokens[0] != "components":
                raise SpineParseError(f"line {lineno}: expected 'components N'")
            try:
                n_components = int(tokens[1])
            except ValueError:
                raise SpineParseError(f"line {lineno}: bad component count") from None
            state = "body"
        elif state == "body":
            if tokens == ["end"]:
                ended = True
                state = "done"
            elif tokens[0] == "edge" and len(tokens) == 4:
                edges.append(tuple(_spine_int(tok, lineno) for tok in tokens[1:]))
            elif tokens[0] == "vertex" and len(tokens) == 7:
                vertices.append(tuple(_spine_int(tok, lineno) for tok in tokens[1:]))
            else:
                raise SpineParseError(
                    f"line {lineno}: expected 'edge c1 c2 c3', "
                    f"'vertex x1 y1 z1 x2 y2 z2', or 'end'")
        else:
            raise SpineParseError(f"line {lineno}: content after 'end'")
    if n_components is None or not ended:
        raise SpineParseError("incomplete spine file")
    spine = Spine(n_components, tuple(edges), tuple(vertices))
    if euler_check:
        spine.validate()
    return spine


def _spine_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpineParseError(f"line {lineno}: bad integer {token!r}") from None


# ---------------------------------------------------------------------------
# the state sums


def tv(spine: Spine, theory: Theory) -> Scalar:
    """Sum over all colorings of eps^(#A) times the product of vertex
    6j-symbols and reciprocal triple-line pairings."""
    edge_weights = {n: _pairing_unit(n, theory).invert() for n in (0, 2, 3)}
    return _state_sum(spine, theory, edge_weights)


def t_epsilon(spine: Spine, theory: Theory) -> Scalar:
    """The golden-ratio state sum: the ``tv`` sum with x = y = z = 1 and
    no edge factors."""
    return _state_sum(spine, Theory(epsilon_sign=theory.epsilon_sign), None)


def _state_sum(spine: Spine, theory: Theory,
               edge_weights: dict[int, Scalar] | None) -> Scalar:
    """Sum over all colorings of eps^(#A) times the unit 6j-symbols at the
    vertices and, unless ``edge_weights`` is None, the weight of each
    triple line by its A-count.  A coloring with an inadmissible vertex,
    or a triple line with one A, contributes zero."""
    vertex_weights = {p: _sixj_unit(p, theory) for p in _PROFILES}
    total = theory.zero
    for colors in product((ONE, A), repeat=spine.n_components):
        term = theory.epsilon ** _a_count(colors)
        if edge_weights is not None:
            counts = [_a_count(colors[c] for c in e) for e in spine.edges]
            if 1 in counts:
                continue
            for n in counts:
                term = term * edge_weights[n]
        for v in spine.vertices:
            profile = _profile(tuple(colors[c] for c in v))
            if profile is None:
                break
            term = term * vertex_weights[profile]
        else:
            total = total + term
    return total


# The one-vertex spine of the 3-sphere: a small disk and a large
# 2-component, two triple lines, Euler count 2 - 2 + 1 = 1.  Shipped as
# a fixture because tv = 1 = t on it, which the RT side independently
# forces via |tr(S^3)|^2 (eps + 2) = 1.
SPHERE_SPINE = Spine(
    n_components=2,
    edges=((0, 1, 1), (1, 1, 1)),
    vertices=((0, 1, 1, 1, 1, 1),),
)
