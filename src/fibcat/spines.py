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
same engine, so it equals ``tv`` at unit parameters.

The engine does not enumerate the 2^C colorings.  It treats the sum as a
factor graph with one variable per component and sums the components out
one at a time (bucket elimination), so its cost is exponential in the
elimination width of the spine, not in its number of components.  The
i-th component of the planned order is bit i of every factor's scope and
table keys, and a factor waits in the bucket of its lowest bit, the first
of its components to be summed out.  A spine whose planned width
exceeds ``MAX_ELIMINATION_WIDTH``, or with more than ``MAX_COMPONENTS``
components, is refused.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import category as cat
from .category import A, ONE, Morphism
from .scalars import Scalar, Theory

Triple = tuple[str, str, str]


def admissible(x: str, y: str, z: str) -> bool:
    """A triple is admissible when the number of A's is not one."""
    return (x, y, z).count(A) != 1


# ---------------------------------------------------------------------------
# multiplicity-module basis elements


def _hom_unit_basis(x: str, y: str, z: str, coeff: Scalar, theory: Theory) -> Morphism:
    """coeff times the canonical basis of Hom(1, (x (x) y) (x) z); the
    zero morphism for the trivial (non-admissible) modules.

    The basis morphism carries the normalization y^(#A in the triple):
    together with identity caps on the unit object this is the unique
    identification of the modules with scalars under which the closed
    pairing and 6j tables hold at every parameter choice.
    """
    cod = cat.tensor_words(cat.tensor_words(x, y), z)
    ones = [p for p, letter in enumerate(cod) if letter == ONE]
    if len(ones) > 1:
        raise AssertionError(f"unexpected multiplicity for {x}{y}{z}")
    value = coeff * theory.y_scalar ** (x, y, z).count(A)
    arrows = {} if value.is_zero else {(0, p): value for p in ones}
    return Morphism._unchecked(cat.UNIT, cod, arrows, theory)


def _w_scale(x: str, theory: Theory) -> Morphism:
    """w_1 = id_1, w_A = z * id_A."""
    value = theory.one if x == ONE else theory.z_scalar
    return cat.scale_identity(x, value, theory)


def _simple_cap(x: str, theory: Theory) -> Morphism:
    """The closing cap on one simple object: d_A on A, the identity on
    the unit object (whose birth and death are both identities)."""
    if x == A:
        return cat.death(A, theory)
    return cat.identity(ONE, theory)


# ---------------------------------------------------------------------------
# pairings


def pairing_table(x: str, y: str, z: str, a: Scalar, b: Scalar, theory: Theory) -> Scalar:
    """(a, b)^{xyz} for an admissible triple: ab, ab y^2 z^2, or ab x y^3 z^3."""
    n = (x, y, z).count(A)
    if n == 1:
        raise ValueError(f"triple {x}{y}{z} is not admissible")
    return a * b * _pairing_unit(n, theory)


def _pairing_unit(n_a: int, theory: Theory) -> Scalar:
    y2z2 = (theory.y_scalar * theory.z_scalar) ** 2
    if n_a == 0:
        return theory.one
    if n_a == 2:
        return y2z2
    return theory.x_scalar * y2z2 * theory.y_scalar * theory.z_scalar


def pairing_categorical(x: str, y: str, z: str, a: Scalar, b: Scalar, theory: Theory) -> Scalar:
    """The pairing as the nine-step composite of category morphisms."""
    t = cat.tensor_morphisms
    ident = lambda w: cat.identity(w, theory)
    assoc = lambda u, v, w: cat.associator(u, v, w, theory)
    assoc_inv = lambda u, v, w: cat.associator(u, v, w, theory, inverse=True)
    xy = cat.tensor_words(x, y)
    xyz = cat.tensor_words(xy, z)
    zy = cat.tensor_words(z, y)

    mu = [
        t(_hom_unit_basis(x, y, z, a, theory), _hom_unit_basis(z, y, x, b, theory)),
        t(t(t(_w_scale(x, theory), _w_scale(y, theory)), _w_scale(z, theory)),
          t(t(ident(z), ident(y)), ident(x))),
        assoc_inv(xyz, zy, x),
        t(assoc_inv(xyz, z, y), ident(x)),
        t(t(assoc(xy, z, z), ident(y)), ident(x)),
        t(t(t(ident(xy), _simple_cap(z, theory)), ident(y)), ident(x)),
        t(assoc(x, y, y), ident(x)),
        t(t(ident(x), _simple_cap(y, theory)), ident(x)),
        _simple_cap(x, theory),
    ]
    return cat.compose(*mu).scalar()


# ---------------------------------------------------------------------------
# 6j-symbols

SixColors = tuple[str, str, str, str, str, str]


def vertex_triples(colors: SixColors) -> tuple[Triple, Triple, Triple, Triple]:
    """The four admissibility triples of a vertex configuration."""
    x1, y1, z1, x2, y2, z2 = colors
    return ((x1, y1, z1), (x1, y2, z2), (y1, z2, x2), (z1, x2, y2))


_PROFILES = ((0, 0, 0, 0), (0, 2, 2, 2), (2, 2, 2, 2), (2, 2, 3, 3), (3, 3, 3, 3))


def _profile(colors: SixColors) -> tuple[int, ...] | None:
    """The sorted per-triple A-counts of a vertex configuration, or None
    when one of its four triples is not admissible."""
    counts = sorted(t.count(A) for t in vertex_triples(colors))
    return None if 1 in counts else tuple(counts)


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
    x1y1 = cat.tensor_words(x1, y1)
    x1y1z1 = cat.tensor_words(x1y1, z1)
    z1x2 = cat.tensor_words(z1, x2)
    y1z2 = cat.tensor_words(y1, z2)
    x1y2 = cat.tensor_words(x1, y2)
    x1y2z2 = cat.tensor_words(x1y2, z2)
    x1z2 = cat.tensor_words(x1, z2)

    mu = [
        t(_hom_unit_basis(x1, y1, z1, a1, theory),
          _hom_unit_basis(z1, x2, y2, a4, theory)),
        t(t(t(ws(x1), ws(y1)), ws(z1)), t(t(ident(z1), ws(x2)), ident(y2))),
        assoc_inv(x1y1z1, z1x2, y2),
        t(assoc_inv(x1y1z1, z1, x2), ident(y2)),
        t(t(assoc(x1y1, z1, z1), ident(x2)), ident(y2)),
        t(t(t(ident(x1y1), cap(z1)), ident(x2)), ident(y2)),
        t(t(t(ident(x1y1), _hom_unit_basis(y1, z2, x2, a3, theory)),
            ident(x2)), ident(y2)),
        t(t(assoc_inv(x1y1, y1z2, x2), ident(x2)), ident(y2)),
        t(t(t(assoc_inv(x1y1, y1, z2), ident(x2)), ident(x2)), ident(y2)),
        t(t(t(t(assoc(x1, y1, y1), ident(z2)), ident(x2)), ident(x2)),
          ident(y2)),
        t(t(t(t(t(ident(x1), cap(y1)), ident(z2)), ident(x2)),
            ident(x2)), ident(y2)),
        t(assoc(x1z2, x2, x2), ident(y2)),
        t(t(ident(x1z2), cap(x2)), ident(y2)),
        t(t(t(ident(x1), _hom_unit_basis(x1, y2, z2, a2, theory)),
            ident(z2)), ident(y2)),
        t(t(t(ident(x1), t(t(ident(x1), ws(y2)), ws(z2))), ident(z2)),
          ident(y2)),
        t(assoc(x1, x1y2z2, z2), ident(y2)),
        t(t(ident(x1), assoc(x1y2, z2, z2)), ident(y2)),
        t(t(ident(x1), t(ident(x1y2), cap(z2))), ident(y2)),
        t(assoc_inv(x1, x1, y2), ident(y2)),
        t(t(cap(x1), ident(y2)), ident(y2)),
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
    v_prime_inv = {ONE: theory.one, A: theory.beta}
    failures = []
    checked = 0
    for x, y, z in product((ONE, A), repeat=3):
        if not admissible(x, y, z):
            continue
        checked += 1
        basis = _hom_unit_basis(x, y, z, theory.one, theory)

        swap12 = cat.compose(
            basis,
            cat.tensor_morphisms(cat.braiding(x, y, theory),
                                 cat.identity(z, theory)),
            cat.scale_identity(
                cat.tensor_words(cat.tensor_words(y, x), z),
                v_prime[x] * v_prime[y] * v_prime_inv[z], theory))
        if swap12 != _hom_unit_basis(y, x, z, theory.one, theory):
            failures.append(((x, y, z), "swap-12"))

        swap23 = cat.compose(
            basis,
            cat.associator(x, y, z, theory),
            cat.tensor_morphisms(cat.identity(x, theory),
                                 cat.braiding(y, z, theory)),
            cat.associator(x, z, y, theory, inverse=True),
            cat.scale_identity(
                cat.tensor_words(cat.tensor_words(x, z), y),
                v_prime_inv[x] * v_prime[y] * v_prime[z], theory))
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
        if self.n_components < 0:
            raise SpineParseError(
                f"component count must be non-negative, got {self.n_components}")
        for e in self.edges:
            if len(e) != 3 or any(not 0 <= c < self.n_components for c in e):
                raise SpineParseError(f"edge {e} references unknown components")
        for v in self.vertices:
            if len(v) != 6 or any(not 0 <= c < self.n_components for c in v):
                raise SpineParseError(f"vertex {v} references unknown components")

    def render(self) -> str:
        """The spine in the file format that ``parse_spine`` reads."""
        lines = ["spine", f"components {self.n_components}"]
        lines.extend("edge " + " ".join(map(str, e)) for e in self.edges)
        lines.extend("vertex " + " ".join(map(str, v)) for v in self.vertices)
        lines.append("end")
        return "\n".join(lines) + "\n"

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
    6j-symbols and reciprocal triple-line pairings, by variable
    elimination: the cost is exponential in the elimination width, not in
    the number of components."""
    edge_weights = {n: _pairing_unit(n, theory).invert() for n in (0, 2, 3)}
    return _state_sum(spine, theory, edge_weights)


def t_epsilon(spine: Spine, theory: Theory) -> Scalar:
    """The golden-ratio state sum: the ``tv`` sum with x = y = z = 1 and
    no edge factors, by the same elimination."""
    return _state_sum(spine, Theory(epsilon_sign=theory.epsilon_sign), None)


# The state sums refuse a spine whose planned elimination order joins more
# than this many components into one table, which would have 2^width entries.
MAX_ELIMINATION_WIDTH = 16
# They also refuse a spine of more components than this.  A component can
# multiply the sum by a factor such as 1 + eps, so the exact coordinates
# grow by about 0.42 digits per component: 2,090 digits at this bound, well
# under the 4,300 that Python converts to text by default.
MAX_COMPONENTS = 5000

# A factor is (scope, table): scope is the OR of its components' bits, a
# component's bit being 1 << (its place in the elimination order), and
# table is a dict of the factor's nonzero values, keyed by the subset of
# scope's bits colored A.


def _state_sum(spine: Spine, theory: Theory,
               edge_weights: dict[int, Scalar] | None) -> Scalar:
    """Sum over all colorings of eps^(#A) times the unit 6j-symbols at the
    vertices and, unless ``edge_weights`` is None, the weight of each
    triple line by its A-count.  A coloring with an inadmissible vertex,
    or a triple line with one A, contributes zero.

    The sum is a product of factors, one per component, triple line and
    vertex, summed over the colors of their components.  It is evaluated
    by bucket elimination: the components are summed out one at a time in
    a greedy order planned from the scopes alone, and component i of that
    order is bit i of every mask.  A factor waits in the bucket of its
    lowest bit, the first of its components to be summed out, and step i
    joins the factors of bucket i and sums out bit i.  The cost is
    exponential in the elimination width (the largest joined scope), which
    is at most ``MAX_ELIMINATION_WIDTH``, over at most ``MAX_COMPONENTS``
    components."""
    if spine.n_components > MAX_COMPONENTS:
        raise SpineValidationError(
            f"component count {spine.n_components} exceeds {MAX_COMPONENTS}")
    lines = spine.edges if edge_weights is not None else ()
    order, width = _elimination_order(spine.n_components,
                                      [*lines, *spine.vertices])
    if width > MAX_ELIMINATION_WIDTH:
        raise SpineValidationError(
            f"elimination width {width} exceeds {MAX_ELIMINATION_WIDTH}")
    vertex_weights = {p: _sixj_unit(p, theory) for p in _PROFILES}
    bit = [0] * spine.n_components
    for i, c in enumerate(order):
        bit[c] = 1 << i
    factors = [(b, {0: theory.one, b: theory.epsilon}) for b in bit]
    factors += [_local_factor(e, edge_weights, bit) for e in lines]
    factors += [_local_factor(v, vertex_weights, bit) for v in spine.vertices]
    buckets: list[list] = [[] for _ in order]
    total = theory.one
    for scope, table in factors:
        buckets[(scope & -scope).bit_length() - 1].append((scope, table))
    for i in range(len(order)):
        bucket, buckets[i] = buckets[i], []
        scope, table = bucket[0]
        for other in bucket[1:]:
            scope, table = _join(scope, table, *other)
        scope, table = _sum_out(scope, table, 1 << i)
        if not table:
            return theory.zero
        if scope:
            buckets[(scope & -scope).bit_length() - 1].append((scope, table))
        else:
            total = total * table[0]
    return total


def _local_factor(slots: tuple[int, ...], weights: dict, bit: list[int]) -> tuple:
    """The factor of one triple line or vertex: its weights looked up by
    the keys of ``_pattern_keys``, each local mask spread onto the slots'
    component bits.  A component repeated among the slots is one bit read
    at each of its slots."""
    local: dict[int, int] = {}
    pattern = tuple(local.setdefault(c, len(local)) for c in slots)
    bits = [bit[c] for c in local]
    table = {}
    for mask, key in _pattern_keys(pattern):
        table[sum(b for j, b in enumerate(bits) if mask >> j & 1)] = weights[key]
    return sum(bits), table


@lru_cache(maxsize=4096)
def _pattern_keys(pattern: tuple[int, ...]) -> tuple[tuple[int, object], ...]:
    """(mask, key) for each coloring of a slot pattern's scope whose
    weight is not zero: the A-count of a triple line's three slots (not
    1), or the profile of a vertex's six.  Bit ``pattern[i]`` of the mask
    is the color of slot i; the map does not depend on the theory."""
    keys = []
    for mask in range(1 << (max(pattern) + 1)):
        colors = tuple(A if mask >> i & 1 else ONE for i in pattern)
        if len(pattern) == 3:
            n = colors.count(A)
            key = None if n == 1 else n
        else:
            key = _profile(colors)
        if key is not None:
            keys.append((mask, key))
    return tuple(keys)


def _elimination_order(n_components: int,
                       scopes: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """Plan the elimination from the factor scopes (component ids, repeats
    allowed) alone.  Each step takes the component whose bucket has the
    smallest union scope (one plus its degree in the graph of components
    that share a factor), ties to the lowest id.  Returns the order and
    its width, the largest union scope."""
    neighbors = [set() for _ in range(n_components)]
    for scope in scopes:
        for c in scope:
            neighbors[c].update(scope)
    for c, nb in enumerate(neighbors):
        nb.discard(c)
    heap = [(len(nb), c) for c, nb in enumerate(neighbors)]
    heapq.heapify(heap)
    done = [False] * n_components
    order, width = [], 0
    while heap:
        degree, c = heapq.heappop(heap)
        if done[c] or degree != len(neighbors[c]):
            continue
        done[c] = True
        order.append(c)
        width = max(width, degree + 1)
        nb = neighbors[c]
        for d in nb:
            neighbors[d] |= nb
            neighbors[d] -= {c, d}
            heapq.heappush(heap, (len(neighbors[d]), d))
    return order, width


def _join(scope_a: int, table_a: dict[int, Scalar],
          scope_b: int, table_b: dict[int, Scalar]) -> tuple:
    """The product of two factors, matching entries on their shared bits."""
    shared = scope_a & scope_b
    index: dict[int, list] = {}
    for m, value in table_b.items():
        index.setdefault(m & shared, []).append((m, value))
    table = {}
    for m, value in table_a.items():
        for w, other in index.get(m & shared, ()):
            table[m | w] = value * other
    return scope_a | scope_b, table


def _sum_out(scope: int, table: dict[int, Scalar], b: int) -> tuple:
    """Sum over both colors of bit ``b``, dropping entries that cancel."""
    sums: dict[int, Scalar] = {}
    for m, value in table.items():
        key = m & ~b
        prev = sums.get(key)
        sums[key] = value if prev is None else prev + value
    return (scope & ~b,
            {key: value for key, value in sums.items() if not value.is_zero})


# The one-vertex spine of the 3-sphere: a small disk and a large
# 2-component, two triple lines, Euler count 2 - 2 + 1 = 1.  Shipped as
# a fixture because tv = 1 = t on it, which the RT side independently
# forces via |tr(S^3)|^2 (eps + 2) = 1.
SPHERE_SPINE = Spine(
    n_components=2,
    edges=((0, 1, 1), (1, 1, 1)),
    vertices=((0, 1, 1, 1, 1, 1),),
)
