"""Link and 3-manifold invariants extracted from the rank-2 category.

``tr_link`` is the unoriented-link invariant: the all-A evaluation of a
diagram, normalized by the writhe so that kinks cancel.  ``tr_manifold``
is the surgery invariant of the closed 3-manifold presented by a framed
link: the colored evaluations summed over all colorings, weighted by
eps per A-colored component and normalized by the signature of the
linking matrix.  The sum is one sweep over the events
(``tangles.colored_sum``) that branches on a component's color when it
opens and merges when it closes, so a chain of any length costs time
linear in its length.  The framings are the diagram's own (declared, or
else the self-writhes); where a framing differs from the drawn
self-writhe, the missing kinks enter ``tr_manifold`` as one power of
beta in the component's A weight, never as events.
Closed forms for chains of linked circles (hence for lens spaces) are
provided as independent oracles; the lens closed form takes time linear
in the number of framings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .scalars import Scalar, Theory
from .tangles import LinkDiagram, build_hopf_chain, colored_sum, evaluate_all_a


def tr_link(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """beta^(2 w(L)) / eps times the all-A evaluation; a link invariant."""
    w = diagram.total_writhe()
    return theory.theta(-w) * evaluate_all_a(diagram, theory) / theory.epsilon


def linking_matrix(diagram: LinkDiagram) -> list[dict[int, int]]:
    """The symmetric integer linking matrix as sparse rows (see
    ``signature``): framings on the diagonal, and off it the diagram's
    ``linking`` numbers, each half the signed crossing count of a pair."""
    return _symmetric_rows(diagram.framings(), diagram.linking)


def _symmetric_rows(diagonal: Sequence[int],
                    off_diagonal: Iterable[tuple[tuple[int, int], int]]
                    ) -> list[dict[int, int]]:
    """Sparse rows with the given diagonal and entries ((i, j), v) at both
    (i, j) and (j, i); zero entries are left out."""
    rows = [{i: d} if d else {} for i, d in enumerate(diagonal)]
    for (i, j), v in off_diagonal:
        if v:
            rows[i][j] = rows[j][i] = v
    return rows


def signature(rows: Sequence[Mapping[int, int]]) -> int:
    """Signature of a symmetric integer matrix, given as sparse rows:
    ``rows[i]`` maps a column j to the entry (i, j), and zero entries may
    be left out.

    Exact congruence diagonalization over the rationals, taking the rows
    in order.  A row with a nonzero diagonal entry is eliminated on it.
    A row r whose diagonal entry vanishes borrows its first partner c's
    row by one congruence, e_r -> e_r + t e_c with t = +-1: its diagonal
    entry becomes 2ta + d, with a = (r, c) nonzero and d = (c, c), and
    of the two signs at least one makes that nonzero (if 2a + d = 0 then
    d - 2a = -4a); row r is then eliminated as usual.  Elimination
    updates only the rows that meet the pivot, so a chain of k circles
    costs O(k).  An entry is kept as a pair (numerator, denominator) in
    lowest terms with a positive denominator, and sums and products are
    reduced as in Knuth, TAOCP 4.5.1: never by the gcd of a whole new
    numerator and denominator, only of a denominator or a cross factor
    with its partner.  The pivots of a chain are ratios of continuants
    (4,519 bits long after 2,000 fives), but each of their gcds meets an
    entry that elimination has not yet touched, so it stays cheap.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if not 0 <= j < n:
                raise ValueError(f"row {i} has column {j} outside a {n}x{n} matrix")
            if rows[j].get(i, 0) != v:
                raise ValueError("matrix is not symmetric")
    live = {i: {j: (v, 1) for j, v in row.items() if v}
            for i, row in enumerate(rows)}   # the rows still to eliminate
    sigma = 0
    for r in range(n):
        row = live[r]
        if row and r not in row:
            c = next(iter(row))
            partner = live[c]
            (an, ad), (dn, dd) = row[c], partner.get(c, _ZERO)
            t = 1 if 2 * an * dd + dn * ad else -1
            for j, (yn, yd) in list(partner.items()):   # (r, j) += t (c, j)
                if j != r:
                    _add(row, j, t * yn, yd)
                    _add(live[j], r, t * yn, yd)
            _add(row, r, *_product((2 * t, 1), (an, ad)))
            _add(row, r, dn, dd)
        if row:
            sigma += _pivot(live, r)
        else:
            del live[r]
    return sigma


_Rows = dict[int, dict[int, tuple[int, int]]]
_ZERO = (0, 1)


def _pivot(live: _Rows, p: int) -> int:
    """Eliminate row p on its nonzero diagonal entry a: each entry (v, w)
    of the rows that meet p gains (-x_v / a) x_w.  Returns the sign of a."""
    pivot = live.pop(p)
    an, ad = pivot.pop(p)
    minus_inv = (-ad, an) if an > 0 else (ad, -an)   # -1/a
    for v, x in pivot.items():
        row = live[v]
        del row[p]
        m = _product(x, minus_inv)
        for w, y in pivot.items():
            _add(row, w, *_product(m, y))
    return 1 if an > 0 else -1


def _product(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """u v in lowest terms, for u and v in lowest terms with positive
    denominators: only the cross factors can cancel."""
    (un, ud), (vn, vd) = u, v
    g, h = gcd(un, vd), gcd(ud, vn)
    return (un // g) * (vn // h), (ud // h) * (vd // g)


def _add(row: dict[int, tuple[int, int]], w: int, num: int, den: int) -> None:
    """row[w] += num / den, for num / den in lowest terms with den > 0,
    keeping only nonzero entries."""
    on, od = row.get(w, _ZERO)
    g = gcd(od, den)
    total = on * (den // g) + num * (od // g)
    if total:
        h = gcd(total, g)
        row[w] = (total // h, (od // g) * (den // h))
    else:
        row.pop(w, None)


def tr_manifold(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """Surgery invariant of the closed manifold presented by the framed
    link diagram.

    The sum over all colorings of the colored evaluation, weighted by
    eps per A-colored component, taken in one sweep by
    ``tangles.colored_sum`` (a ``ValueError`` when more than
    ``tangles.MAX_OPEN_COMPONENTS`` components are open at once).
    A kink scales an A-colored component by beta^(-2 sign), whether it
    is drawn or not: the sweep applies the drawn kinks of component i as
    one power of beta^(-2), and its framing excess f_i - w_i, the kinks
    beyond those drawn, enters its weight as another, so the weight of an
    A-colored component i is eps beta^(-2 (f_i - w_i)).
    """
    k = diagram.n_components
    sigma = signature(linking_matrix(diagram))
    excess = [f - w for f, w in zip(diagram.framings(), diagram.writhes)]
    weight = {d: theory.epsilon * theory.theta(d) for d in set(excess)}
    total = colored_sum(diagram, [weight[d] for d in excess], theory)
    return theory.phase(sigma) * theory.big_d ** (-k - 1) * total


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
            value = value * theory.zeta(10 * (run - 1)) * theory.epsilon ** (2 - run)
            run = 0
        run += 1
        prev = i
    return value


def hopf_tr_closed_form(k: int, theory: Theory) -> Scalar:
    """tr of the k-component chain of circles: (-1)^(k-1) eps^(1-k)."""
    if k < 1:
        raise ValueError("chain needs at least one component")
    return theory.zeta(10 * (k - 1)) * theory.epsilon ** (1 - k)


def _chain_matrix(framings: tuple[int, ...]) -> list[dict[int, int]]:
    """The linking matrix of a chain of circles, as sparse rows."""
    return _symmetric_rows(framings, (((i, i + 1), 1) for i in range(len(framings) - 1)))


# The most framings a lens chain may have.  Its exact value carries
# coordinates that grow with the chain: a fresh ``fibcat lens 20001
# 20000`` (20,000 framings) takes 1.7-1.8 s, the slowest 20,000-entry
# ``--framings`` list measured, 20,000 fives, 2.7-2.8 s, and ``lens 30001
# 30000`` 2.5-2.7 s (x86_64, Python 3.11).
MAX_LENS_FRAMINGS = 20000


def lens_tr_closed_form(framings: tuple[int, ...], theory: Theory) -> Scalar:
    """Closed form of tr for surgery on a chain of circles with the given
    framings (i.e. for the lens space the chain presents).  More than
    ``MAX_LENS_FRAMINGS`` framings are refused.

    The sum over subsets S of the chain of eps^|S| c(S) beta^(-2 sum_S f)
    is taken in one pass.  c is a product over the runs of S, where
    opening a run contributes eps and extending one -1/eps, so with
    w = eps beta^(-2f) two partial sums suffice, over the subsets that
    leave out (``outside``) or contain (``inside``) the latest component:
    outside, inside <- outside + inside, w (eps outside - inside / eps),
    that is beta^(-2f) (eps^2 outside - inside).
    """
    k = len(framings)
    if k > MAX_LENS_FRAMINGS:
        raise ValueError(f"{k} framings exceed {MAX_LENS_FRAMINGS}")
    sigma = signature(_chain_matrix(framings))
    e2 = theory.epsilon ** 2
    outside, inside = theory.one, theory.zero
    for f in framings:
        outside, inside = outside + inside, theory.theta(f) * (e2 * outside - inside)
    return theory.phase(sigma) * theory.big_d ** (-k - 1) * (outside + inside)


def continued_fraction_framings(p: int, q: int) -> tuple[int, ...]:
    """Framings (f1, ..., fk) with p/q = f1 - 1/(f2 - 1/(... - 1/fk)),
    by the greedy ceiling expansion.  An expansion longer than
    ``MAX_LENS_FRAMINGS`` is refused as soon as it passes the bound
    ((n + 1)/n expands to n twos)."""
    if q == 0:
        raise ValueError("q must be nonzero")
    if gcd(p, q) != 1:
        raise ValueError("p/q must be in lowest terms")
    if q < 0:
        p, q = -p, -q
    out: list[int] = []
    num, den = p, q
    while den:
        if len(out) == MAX_LENS_FRAMINGS:
            raise ValueError(f"{p}/{q} expands to more than {MAX_LENS_FRAMINGS} framings")
        f = -((-num) // den)  # ceil(num/den)
        out.append(f)
        num, den = den, f * den - num
    return tuple(out)


def expand_minus_continued_fraction(framings) -> Fraction:
    """f1 - 1/(f2 - 1/(...)): the oracle inverse of the expansion."""
    acc: Fraction | None = None
    for f in reversed(list(framings)):
        acc = Fraction(f) if acc is None else f - 1 / acc
    if acc is None:
        raise ValueError("empty framing list")
    return acc


def lens_space_framed_link(p: int, q: int) -> LinkDiagram:
    framings = continued_fraction_framings(p, q)
    return build_hopf_chain(len(framings)).with_framings(framings)
