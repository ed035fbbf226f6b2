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

The engine runs on integers.  Every weight lies in Q(s), s^2 = eps: a unit
6j-symbol is an element of Z[eps][s] times a rational x^i (yz)^j, and a
reciprocal pairing is a rational.  A table entry is the four integer
coordinates (a, b, c, d) of a + b eps + (c + d eps) s, whose product needs
only eps^2 = eps + 1, true for either sign of eps.  One integer scale per
kind of weight clears every denominator: a vertex weight is a unit
6j-symbol times x^i (yz)^j with i <= 2 and j <= 6, and a triple-line
weight is x^-i (yz)^-j with i <= 1 and j <= 3, so every vertex weight is
scaled by V = den(x)^2 den(yz)^6 and every triple-line weight by
L = num(x) num(yz)^3.  A coloring takes one entry from every factor, so
the sum is divided once, at the end, by V to the number of vertices times
L to the number of triple lines, where the one ``Scalar`` of the result
is made.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import category as cat
from .category import A, ONE, Morphism
from .scalars import Scalar, Theory

Triple = tuple[str, str, str]
# An element a + b eps + (c + d eps) s of Z[eps][s], s^2 = eps, as (a, b, c, d).
_Coords = tuple[int, int, int, int]


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


# The pairing on unit arguments by the A-count of its triple: the exponents
# (i, j) of its value x^i (yz)^j.
_PAIRING_UNIT = {0: (0, 0), 2: (0, 2), 3: (1, 3)}


def _pairing_unit(n_a: int, theory: Theory) -> Scalar:
    i, j = _PAIRING_UNIT[n_a]
    return theory.rational(theory.x ** i * (theory.y * theory.z) ** j)


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


# The 6j-symbol on unit arguments by profile, the sorted per-triple A-counts
# of its configuration: its integer coordinates (a, b, c, d), meaning
# a + b eps + (c + d eps) s, and the exponents (i, j) of the monomial
# x^i (yz)^j it is multiplied by.  Its eps^-1 is eps - 1, its s^-1 is
# s (eps - 1) and its -eps^-2 is eps - 2, as eps^2 = eps + 1 and s^2 = eps.
_SIXJ_UNIT = {
    (0, 0, 0, 0): ((1, 0, 0, 0), 0, 0),
    (0, 2, 2, 2): ((0, 0, -1, 1), 0, 3),
    (2, 2, 2, 2): ((-1, 1, 0, 0), 0, 4),
    (2, 2, 3, 3): ((-1, 1, 0, 0), 1, 5),
    (3, 3, 3, 3): ((-2, 1, 0, 0), 2, 6),
}


def _profile(colors: SixColors) -> tuple[int, ...] | None:
    """The sorted per-triple A-counts of a vertex configuration, or None
    when one of its four triples is not admissible."""
    counts = sorted(t.count(A) for t in vertex_triples(colors))
    return None if 1 in counts else tuple(counts)


def _sixj_unit(profile: tuple[int, ...], theory: Theory) -> Scalar:
    """Value on unit arguments, by the multiset of per-triple A-counts."""
    coords, i, j = _SIXJ_UNIT[profile]
    return _ring_scalar(coords, theory) * (theory.x ** i * (theory.y * theory.z) ** j)


def _ring_scalar(coords: _Coords, theory: Theory) -> Scalar:
    """a + b eps + (c + d eps) s, for coords (a, b, c, d)."""
    a, b, c, d = coords
    eps = theory.epsilon
    return eps * b + a + (eps * d + c) * theory.s


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
        for kind, items, n in (("edge", self.edges, 3), ("vertex", self.vertices, 6)):
            for slots in items:
                if len(slots) != n:
                    raise SpineParseError(f"{kind} {slots} has {len(slots)} slots, not {n}")
                if any(not 0 <= c < self.n_components for c in slots):
                    raise SpineParseError(f"{kind} {slots} references unknown components")

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
                n_components = cat.parse_int(tokens[1])
            except ValueError:
                raise SpineParseError(f"line {lineno}: bad component count") from None
            state = "body"
        elif state == "body":
            if tokens == ["end"]:
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
    if state != "done":
        raise SpineParseError("incomplete spine file")
    spine = Spine(n_components, tuple(edges), tuple(vertices))
    if euler_check:
        spine.validate()
    return spine


def _spine_int(token: str, lineno: int) -> int:
    try:
        return cat.parse_int(token)
    except ValueError:
        raise SpineParseError(f"line {lineno}: bad integer {token!r}") from None


# ---------------------------------------------------------------------------
# the state sums


def tv(spine: Spine, theory: Theory) -> Scalar:
    """Sum over all colorings of eps^(#A) times the product of vertex
    6j-symbols and reciprocal triple-line pairings, by variable
    elimination: the cost is exponential in the elimination width, not in
    the number of components.  It runs on the integer coordinates of
    Z[eps][s], each weight scaled to integers by the one scale of its kind,
    vertex or triple line, and makes one ``Scalar`` at the end
    (``_state_sum``)."""
    return _state_sum(spine, theory, theory.x, theory.y * theory.z, spine.edges)


def t_epsilon(spine: Spine, theory: Theory) -> Scalar:
    """The golden-ratio state sum: the ``tv`` sum with x = y = z = 1 and
    no edge factors, by the same elimination, whose scales are then 1."""
    return _state_sum(spine, theory, Fraction(1), Fraction(1), ())


# The state sums refuse a spine whose planned elimination order joins more
# than this many components into one table, which would have 2^width entries.
MAX_ELIMINATION_WIDTH = 16
# They also refuse a spine of more components than this.  A component can
# multiply the sum by a factor such as 1 + eps, so at unit x, y, z the
# exact coordinates grow by about 0.42 digits per component: 2,090 digits
# at this bound, under the 4,300 that Python converts to text by default.
# At other x, y, z each vertex and triple line can add the digits of its
# weights too, so a value within this bound may still be too long to
# render exactly; the command line then refuses it before printing.
MAX_COMPONENTS = 5000

# A factor is (scope, table): scope is the OR of its components' bits, a
# component's bit being 1 << (its place in the elimination order), and
# table is a dict of the factor's nonzero values, keyed by the subset of
# scope's bits colored A, of values in Z[eps][s].
_ONE: _Coords = (1, 0, 0, 0)


def _state_sum(spine: Spine, theory: Theory, x: Fraction, yz: Fraction,
               lines: tuple[tuple[int, int, int], ...]) -> Scalar:
    """Sum over all colorings of eps^(#A) times the unit 6j-symbols at the
    vertices, at the parameters x and yz = y z, and the reciprocal unit
    pairing of each triple line of ``lines`` by its A-count.  A coloring
    with an inadmissible vertex, or a triple line with one A, contributes
    zero.

    The sum is a product of factors, one per component, triple line and
    vertex, summed over the colors of their components.  A factor's table
    holds the integer coordinates in Z[eps][s] of its weights times the
    scale of its kind (``_weights``), V for a vertex and L for a triple
    line, so the integer sum is the state sum times ``den``, V to the
    number of vertices times L to the number of triple lines; L, and so
    den, may be negative.  The elimination needs no theory: the one
    ``Scalar`` made at the end is that sum over den, with the theory's eps
    and s.

    It is evaluated by bucket elimination: the components are summed out
    one at a time in a greedy order planned from the scopes alone, and
    component i of that order is bit i of every mask.  A factor waits in
    the bucket of its lowest bit, the first of its components to be summed
    out, and step i joins the factors of bucket i and sums out bit i.  A
    step that sums out its last bit leaves a closed constant, and the
    constants are multiplied pairwise at the end.  The cost is exponential
    in the elimination width (the largest joined scope), which is at most
    ``MAX_ELIMINATION_WIDTH``, over at most ``MAX_COMPONENTS`` components."""
    if spine.n_components > MAX_COMPONENTS:
        raise SpineValidationError(
            f"component count {spine.n_components} exceeds {MAX_COMPONENTS}")
    order, width = _elimination_order(spine.n_components,
                                      [*lines, *spine.vertices])
    if width > MAX_ELIMINATION_WIDTH:
        raise SpineValidationError(
            f"elimination width {width} exceeds {MAX_ELIMINATION_WIDTH}")
    (vertex_weights, v_scale), (line_weights, l_scale) = _weights(x, yz)
    den = v_scale ** len(spine.vertices) * l_scale ** len(lines)
    bit = [0] * spine.n_components
    for i, c in enumerate(order):
        bit[c] = 1 << i
    factors = [(b, {0: _ONE, b: (0, 1, 0, 0)}) for b in bit]
    factors += [_local_factor(e, line_weights, bit) for e in lines]
    factors += [_local_factor(v, vertex_weights, bit) for v in spine.vertices]
    buckets: list[list] = [[] for _ in order]
    closed = []
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
            closed.append(table)
    total = _pairwise_product(closed, lambda a, b: _join(0, a, 0, b)[1], {0: _ONE})
    return _ring_scalar(total[0], theory) * Fraction(1, den)


def _pairwise_product(values: list, times, one):
    """The product of ``values`` under ``times``, multiplied in neighboring
    pairs, round by round: the closed constants of the state sum, whose
    operands in each product are about the same size, so constants whose
    product grows cost about as much as its last multiplication, not once
    per constant."""
    while len(values) > 1:
        pairs = [times(a, b) for a, b in zip(values[::2], values[1::2])]
        values = pairs + values[len(values) // 2 * 2:]
    return values[0] if values else one


def _weights(x: Fraction, yz: Fraction) -> tuple[tuple[dict, int], tuple[dict, int]]:
    """The weights of the state sum at the parameters x and yz = y z as
    integer coordinates, each kind with its scale: a vertex's by profile,
    the unit 6j-symbol times V = den(x)^2 den(yz)^6, and a triple line's
    by A-count, the reciprocal unit pairing times L = num(x) num(yz)^3."""
    xn, xd, yn, yd = x.numerator, x.denominator, yz.numerator, yz.denominator
    vertex = {p: tuple(c * xn ** i * xd ** (2 - i) * yn ** j * yd ** (6 - j)
                       for c in coords)
              for p, (coords, i, j) in _SIXJ_UNIT.items()}
    line = {n: (xn ** (1 - i) * xd ** i * yn ** (3 - j) * yd ** j, 0, 0, 0)
            for n, (i, j) in _PAIRING_UNIT.items()}
    return (vertex, xd ** 2 * yd ** 6), (line, xn * yn ** 3)


def _local_factor(slots: tuple[int, ...], weights: dict,
                  bit: list[int]) -> tuple[int, dict]:
    """The factor of one triple line or vertex: its scaled weights looked
    up by the keys of ``_pattern_keys``, each local mask spread onto the
    slots' component bits.  A component repeated among the slots is one
    bit read at each of its slots."""
    local: dict[int, int] = {}
    pattern = tuple(local.setdefault(c, len(local)) for c in slots)
    # spread[mask]: the sum of the component bits of the local mask's bits
    spread = [0]
    for c in local:
        spread += [m + bit[c] for m in spread]
    return spread[-1], {spread[mask]: weights[key] for mask, key in _pattern_keys(pattern)}


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


def _join(scope_a: int, table_a: dict[int, _Coords],
          scope_b: int, table_b: dict[int, _Coords]) -> tuple:
    """The product of two factors, matching entries on their shared bits:
    in Z[eps][s], (u + v s)(u' + v' s) = u u' + v v' eps + (u v' + v u') s
    for u, v, u', v' in Z[eps], where (a + b eps)(c + d eps) is
    ac + bd + (ad + bc + bd) eps."""
    shared = scope_a & scope_b
    index: dict[int, list] = {}
    for m, value in table_b.items():
        index.setdefault(m & shared, []).append((m, value))
    table = {}
    for m, (a0, a1, a2, a3) in table_a.items():
        for w, (b0, b1, b2, b3) in index.get(m & shared, ()):
            # v v' = p + q eps, so v v' eps = q + (p + q) eps
            p = a2 * b2 + a3 * b3
            q = a2 * b3 + a3 * b2 + a3 * b3
            table[m | w] = (a0 * b0 + a1 * b1 + q,
                            a0 * b1 + a1 * b0 + a1 * b1 + p + q,
                            a0 * b2 + a1 * b3 + a2 * b0 + a3 * b1,
                            a0 * b3 + a1 * b2 + a1 * b3 + a2 * b1 + a3 * b0 + a3 * b1)
    return scope_a | scope_b, table


def _sum_out(scope: int, table: dict[int, _Coords], b: int) -> tuple:
    """Sum over both colors of bit ``b``, dropping entries that cancel."""
    sums: dict[int, _Coords] = {}
    for m, value in table.items():
        key = m & ~b
        prev = sums.get(key)
        sums[key] = value if prev is None else (prev[0] + value[0], prev[1] + value[1],
                                                prev[2] + value[2], prev[3] + value[3])
    return scope & ~b, {key: value for key, value in sums.items() if any(value)}


# The one-vertex spine of the 3-sphere: a small disk and a large
# 2-component, two triple lines, Euler count 2 - 2 + 1 = 1.  Shipped as
# a fixture because tv = 1 = t on it, which the RT side independently
# forces via |tr(S^3)|^2 (eps + 2) = 1.
SPHERE_SPINE = Spine(
    n_components=2,
    edges=((0, 1, 1), (1, 1, 1)),
    vertices=((0, 1, 1, 1, 1, 1),),
)
