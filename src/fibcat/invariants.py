"""Link and 3-manifold invariants extracted from the rank-2 category.

``tr_link`` is the unoriented-link invariant: the all-A evaluation of a
diagram, normalized by the writhe so that kinks cancel.  ``tr_manifold``
is the surgery invariant of the closed 3-manifold presented by a framed
link: a sum of the colored evaluations over all colorings, weighted by
eps per A-colored component and normalized by the signature of the
linking matrix.  ``FramedLink`` keeps its diagram unchanged; where a
framing differs from the drawn self-writhe, the missing kinks enter
``tr_manifold`` as one power of beta per coloring, never as events.
Closed forms for chains of linked circles (hence for lens spaces) are
provided as independent oracles; the lens closed form takes time linear
in the number of framings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .category import A, ONE
from .scalars import Scalar, Theory
from .tangles import (LinkDiagram, build_hopf_chain, count_a_colors, evaluate,
                      evaluate_all_a)


def tr_link(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """beta^(2 w(L)) / eps times the all-A evaluation; a link invariant."""
    w = diagram.total_writhe()
    return (theory.beta ** (2 * w)) * evaluate_all_a(diagram, theory) / theory.epsilon


@dataclass(frozen=True)
class FramedLink:
    """A diagram together with one integer framing per component.

    The diagram is stored as given; where a framing differs from the
    component's self-writhe, ``tr_manifold`` applies the difference as a
    scalar kink factor instead of drawing the kinks.
    """

    diagram: LinkDiagram
    framings: tuple[int, ...]

    @staticmethod
    def from_diagram(diagram: LinkDiagram,
                     framings: tuple[int, ...] | None = None) -> FramedLink:
        if framings is None:
            framings = tuple(diagram.framings())
        if len(framings) != diagram.n_components:
            raise ValueError(f"expected {diagram.n_components} framings, "
                             f"got {len(framings)}")
        return FramedLink(diagram, tuple(framings))


def linking_matrix(framed: FramedLink) -> list[list[int]]:
    """Symmetric integer matrix: framings on the diagonal, linking numbers
    (half the signed inter-component crossing count) off it."""
    k = framed.diagram.n_components
    m = [[0] * k for _ in range(k)]
    for i, f in enumerate(framed.framings):
        m[i][i] = f
    for (i, j), signed in framed.diagram.pair_counts().items():
        if signed % 2:
            raise ValueError("odd signed crossing count between components")
        m[i][j] = m[j][i] = signed // 2
    return m


def signature(matrix: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix by exact rational
    congruence diagonalization (hyperbolic 2x2 split when every diagonal
    entry vanishes; such a block contributes +1 and -1)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    m = [[Fraction(v) for v in row] for row in matrix]
    return _congruence_signature(m)


def _congruence_signature(m: list[list[Fraction]]) -> int:
    n = len(m)
    if n == 0:
        return 0
    p = next((i for i in range(n) if m[i][i] != 0), None)
    if p is not None:
        a = m[p][p]
        rest = [i for i in range(n) if i != p]
        sub = [[m[v][w] - m[v][p] * m[p][w] / a for w in rest] for v in rest]
        return (1 if a > 0 else -1) + _congruence_signature(sub)
    off = next(((i, j) for i in range(n) for j in range(i + 1, n)
                if m[i][j] != 0), None)
    if off is None:
        return 0
    r0, c0 = off
    a = m[r0][c0]
    rest = [i for i in range(n) if i not in (r0, c0)]
    sub = [[m[v][w] - (m[v][r0] * m[w][c0] + m[v][c0] * m[w][r0]) / a
            for w in rest] for v in rest]
    return _congruence_signature(sub)


def tr_manifold(framed: FramedLink, theory: Theory) -> Scalar:
    """Surgery invariant of the closed manifold presented by the framed link.

    Component i carries f_i - w_i kinks beyond those drawn, and each kink
    scales an A-colored strand by beta^(-2 sign), so a coloring's
    evaluation is multiplied by beta^(-2 sum over A-colored i of (f_i - w_i)).
    """
    diagram = framed.diagram
    k = diagram.n_components
    sigma = signature(linking_matrix(framed))
    excess = [f - w for f, w in zip(framed.framings, diagram.self_writhes())]
    total = theory.zero
    for colors in product((ONE, A), repeat=k):
        kinks = sum(d for d, c in zip(excess, colors) if c is A)
        weight = (theory.epsilon ** count_a_colors(colors)
                  * theory.beta ** (-2 * kinks))
        total = total + weight * evaluate(diagram, colors, theory)
    return theory.delta ** sigma * theory.big_d ** (-sigma - k - 1) * total


def c_function(indices: tuple[int, ...], theory: Theory) -> Scalar:
    """Product over maximal runs of consecutive integers of
    (-1)^(len-1) / eps^(len-2); the empty sequence gives 1."""
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly ascending")
    value = theory.one
    run = 0
    prev = None
    for i in list(indices) + [None]:
        if prev is not None and (i is None or i != prev + 1):
            value = value * ((-theory.one) ** (run - 1)) * theory.epsilon ** (2 - run)
            run = 0
        run += 1
        prev = i
    return value


def hopf_tr_closed_form(k: int, theory: Theory) -> Scalar:
    """tr of the k-component chain of circles: (-1)^(k-1) eps^(1-k)."""
    if k < 1:
        raise ValueError("chain needs at least one component")
    return ((-theory.one) ** (k - 1)) * theory.epsilon ** (1 - k)


def _chain_matrix(framings: tuple[int, ...]) -> list[list[int]]:
    k = len(framings)
    m = [[0] * k for _ in range(k)]
    for i, f in enumerate(framings):
        m[i][i] = f
        if i + 1 < k:
            m[i][i + 1] = m[i + 1][i] = 1
    return m


def lens_tr_closed_form(framings: tuple[int, ...], theory: Theory) -> Scalar:
    """Closed form of tr for surgery on a chain of circles with the given
    framings (i.e. for the lens space the chain presents).

    The sum over subsets S of the chain of eps^|S| c(S) beta^(-2 sum_S f)
    is taken in one pass.  c is a product over the runs of S, where
    opening a run contributes eps and extending one -1/eps, so with
    w = eps beta^(-2f) two partial sums suffice, over the subsets that
    leave out (``outside``) or contain (``inside``) the latest component:
    outside, inside <- outside + inside, w (eps outside - inside / eps),
    that is beta^(-2f) (eps^2 outside - inside).
    """
    k = len(framings)
    if k == 0:
        return theory.big_d.invert()
    sigma = signature(_chain_matrix(framings))
    e2 = theory.epsilon ** 2
    twist = {f: theory.beta_inv ** (2 * f) for f in set(framings)}
    outside, inside = theory.one, theory.zero
    for f in framings:
        outside, inside = outside + inside, twist[f] * (e2 * outside - inside)
    return (theory.delta ** sigma
            * theory.big_d ** (-sigma - k - 1)
            * (outside + inside))


def continued_fraction_framings(p: int, q: int) -> tuple[int, ...]:
    """Framings (f1, ..., fk) with p/q = f1 - 1/(f2 - 1/(... - 1/fk)),
    by the greedy ceiling expansion; the result is re-expanded and checked."""
    if q == 0:
        raise ValueError("q must be nonzero")
    from math import gcd
    if gcd(p, q) != 1:
        raise ValueError("p/q must be in lowest terms")
    if q < 0:
        p, q = -p, -q
    out: list[int] = []
    num, den = p, q
    while True:
        f = -((-num) // den)  # ceil(num/den)
        out.append(f)
        num, den = den, f * den - num
        if den == 0:
            break
    value = expand_minus_continued_fraction(out)
    if value != Fraction(p, q):
        raise AssertionError(f"expansion check failed: {out} -> {value} != {p}/{q}")
    return tuple(out)


def expand_minus_continued_fraction(framings) -> Fraction:
    """f1 - 1/(f2 - 1/(...)): the oracle inverse of the expansion."""
    acc: Fraction | None = None
    for f in reversed(list(framings)):
        acc = Fraction(f) if acc is None else f - 1 / acc
    if acc is None:
        raise ValueError("empty framing list")
    return acc


def lens_space_framed_link(p: int, q: int) -> FramedLink:
    framings = continued_fraction_framings(p, q)
    return FramedLink.from_diagram(build_hopf_chain(len(framings)), framings)
