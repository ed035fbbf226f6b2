"""Link and 3-manifold invariants extracted from the rank-2 category.

``tr_link`` is the unoriented-link invariant: the all-A evaluation of a
diagram, normalized by the writhe so that kinks cancel.  ``tr_manifold``
is the surgery invariant of the closed 3-manifold presented by a framed
link: the colored evaluations summed over all colorings, weighted by
eps per A-colored component and normalized by the signature of the
linking matrix.  The sum is one sweep over the events
(``tangles.colored_sum``) that branches on a component's color when it
opens and merges when it closes, so a chain of any length costs time
linear in its length.  It reads the framings off the diagram (declared,
or else the self-writhes): the kinks missing from a drawing enter as a
power of theta in a component's weight, never as events.  Its four Z[z5]
integers become one scalar in ``normalized``.
Closed forms for chains of linked circles (hence for lens spaces) are
provided as independent oracles; the lens closed form is one walk of
O(k) steps along k framings, which takes the colored sum on bounded
integers and the signature on the continuants, and makes one scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .scalars import Scalar, Theory, _Coords, _times
from .spines import _elimination_order
from .tangles import LinkDiagram, build_hopf_chain, colored_sum, evaluate_all_a


def tr_link(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """beta^(2 w(L)) / eps times the all-A evaluation; a link invariant."""
    w = diagram.total_writhe()
    return theory.theta(-w) * evaluate_all_a(diagram, theory) * theory.epsilon_inv


# The most work a signature takes on, in the units of its predicted cost
# (``_check_work``): that of 20,000 fives, the chain ``fibcat lens
# --framings`` has long admitted.  At the bound ``signature`` took
# 0.46-0.76 s on chains of 20,000 fives or fours, 16,329 elevens, 10,690
# framings of 181 and 1,552 of 10^100, and the lens walk, which counts
# their signatures on the continuants, 0.06-0.15 s (x86_64, Python 3.11).
MAX_SIGNATURE_WORK = 16 * 10 ** 8


def signature(diagonal: Sequence[int],
              pairs: Iterable[tuple[tuple[int, int], int]]) -> int:
    """Signature of the symmetric integer matrix with the given diagonal
    and, for each ((i, j), v) of ``pairs``, the entry v at (i, j) and at
    (j, i); the entries of pairs left out are zero.  A pair outside the
    matrix or on its diagonal, or given twice (in either orientation), is
    a ``ValueError``.

    Exact congruence diagonalization over the rationals, taking the rows
    in a minimum-degree order, planned before any elimination by the
    spines' greedy planner (``spines._elimination_order``): rows that meet
    the fewest others first, ties to the lowest index, so the keys of a
    key ring go before the ring and no row fills in.  The signature does
    not depend on the order.  A row with a nonzero diagonal entry is
    eliminated on it.
    A row r whose diagonal entry vanishes borrows its first partner c's
    row by one congruence, e_r -> e_r + t e_c with t = +-1: its diagonal
    entry becomes 2ta + d, with a = (r, c) nonzero and d = (c, c), and
    of the two signs at least one makes that nonzero (if 2a + d = 0 then
    d - 2a = -4a); row r is then eliminated as usual.  Elimination
    updates only the rows that meet the pivot, so a chain of k circles
    costs O(k).  An entry is an ``int`` until its first division and a
    ``Fraction`` after, and ``Fraction`` reduces sums and products by
    cross gcds, each of which, on a chain, meets an entry that
    elimination has not yet touched, so the pivots (ratios of continuants
    thousands of bits long) stay cheap.

    Those O(k) steps are on entries that grow, so the work is predicted
    from the rows' squared lengths before any elimination
    (``_check_work``).
    """
    n = len(diagonal)
    live = {i: {i: d} if d else {}    # the rows still to eliminate
            for i, d in enumerate(diagonal)}
    given = set()
    for (i, j), v in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"pair ({i}, {j}) is off a {n}x{n} matrix or on its diagonal")
        key = (min(i, j), max(i, j))
        if key in given:
            raise ValueError(f"pair ({i}, {j}) is given twice")
        given.add(key)
        if v:
            live[i][j] = live[j][i] = v
    _check_work([sum(v * v for v in row.values()) for row in live.values()])
    order, _ = _elimination_order(n, [(i, j) for i, row in live.items() for j in row if i < j])
    sigma = 0
    for r in order:
        row = live[r]
        if row and r not in row:
            c = next(iter(row))
            partner = live[c]
            a, d = row[c], partner.get(c, 0)
            t = 1 if 2 * a + d else -1
            for j, y in list(partner.items()):   # (r, j) += t (c, j)
                if j != r:
                    _add(row, j, t * y)
                    _add(live[j], r, t * y)
            _add(row, r, 2 * t * a + d)
        if row:
            sigma += _pivot(live, r)
        else:
            del live[r]
    return sigma


def _check_work(squares: Sequence[int]) -> None:
    """A ``ValueError`` if n rows of squared lengths q (``squares``)
    predict a signature's work, n times the sum of the floor(log2 q), past
    ``MAX_SIGNATURE_WORK``.  Half the sum of the log2 q bounds (Hadamard)
    the bits of every minor: every pivot of an elimination that does not
    fill in, as on a chain, which each row meets once, and every
    continuant of the lens walk."""
    n = len(squares)
    work = n * sum((q >> 1).bit_length() for q in squares)   # floor(log2 q), 0 at q = 0
    if work > MAX_SIGNATURE_WORK:
        raise ValueError(f"signature of this {n}x{n} matrix: predicted work {work} "
                         f"exceeds {MAX_SIGNATURE_WORK}")


def _pivot(live: dict[int, dict[int, int | Fraction]], p: int) -> int:
    """Eliminate row p on its nonzero diagonal entry a: each entry (v, w)
    of the rows that meet p gains (-x_v / a) x_w.  Returns the sign of a."""
    pivot = live.pop(p)
    a = pivot.pop(p)
    for v, x in pivot.items():
        row = live[v]
        del row[p]
        m = Fraction(-x) / a    # not -x / a, which on two ints is a float
        for w, y in pivot.items():
            _add(row, w, m * y)
    return 1 if a > 0 else -1


def _add(row: dict[int, int | Fraction], w: int, value: int | Fraction) -> None:
    """row[w] += value, keeping only nonzero entries."""
    total = row.get(w, 0) + value
    if total:
        row[w] = total
    else:
        row.pop(w, None)


def surgery(diagram: LinkDiagram, theory: Theory) -> tuple[int, Scalar]:
    """The signature sigma of the framed link's linking matrix, and the
    surgery invariant of the closed manifold the link presents.

    The sum over all colorings of the colored evaluation, each A-colored
    component i weighted by eps theta^(f_i - w_i) for its framing f_i and
    self-writhe w_i, so that a kink twists it by theta whether it is drawn
    or not, is ``tangles.colored_sum``, in Z[z5] (a ``ValueError`` when
    more than ``tangles.MAX_OPEN_COMPONENTS`` components are open at
    once); ``normalized`` makes it the one scalar.
    """
    sigma = signature(diagram.framings(), diagram.linking)
    return sigma, normalized(sigma, diagram.n_components, colored_sum(diagram, theory), theory)


def tr_manifold(diagram: LinkDiagram, theory: Theory) -> Scalar:
    """Surgery invariant of the closed manifold presented by the framed
    link diagram: the value of ``surgery``."""
    return surgery(diagram, theory)[1]


def normalized(sigma: int, k: int, total: _Coords, theory: Theory,
               fives: int = 0) -> Scalar:
    """phase(sigma) D^(-k-1) total / 5^fives: a colored sum ``total``,
    given by its coordinates in Z[z5] (``Scalar.z5_coordinates``), over
    the k components of a framed link whose linking matrix has signature
    sigma, normalized into the surgery invariant.

    D^-(k+1) is built on integers: D^-2 = (3 - eps)/5, as
    (eps + 2)(3 - eps) = 5, so D^-(k+1) is (3 - eps)^m / 5^m for
    k + 1 = 2m, and D times that for k + 1 = 2m - 1.  One scalar is made,
    then multiplied by the phase and, for even k, by D."""
    m = n = k // 2 + 1
    base = _five_over_d2(theory)
    while n:                    # total (3 - eps)^m, by squaring
        if n & 1:
            total = _times(total, base)
        n >>= 1
        if n:
            base = _times(base, base)
    value = theory.phase(sigma) * Scalar.from_z5(theory.field, total, 5 ** (m + fives))
    return value if k & 1 else value * theory.big_d


def _five_over_d2(theory: Theory) -> _Coords:
    """3 - eps = 5 / D^2, in Z[z5]."""
    e0, e1, e2, e3 = theory.epsilon.z5_coordinates()
    return (3 - e0, -e1, -e2, -e3)


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
            # (-1)^(run-1) eps^(2-run) = eps (-1/eps)^(run-1)
            value = value * theory.epsilon * (-theory.epsilon_inv) ** (run - 1)
            run = 0
        run += 1
        prev = i
    return value


def hopf_tr_closed_form(k: int, theory: Theory) -> Scalar:
    """tr of the k-component chain of circles: (-1)^(k-1) eps^(1-k)."""
    if k < 1:
        raise ValueError("chain needs at least one component")
    return (-theory.epsilon_inv) ** (k - 1)


# The most framings a lens chain may have: ``lens_tr_closed_form`` takes
# 0.04-0.08 s on 20,000 of them in process.  A fresh ``fibcat lens 20001
# 20000`` takes 0.13-0.14 s, and ``--framings`` lists of 20,000 fives or
# fours or 16,329 elevens 0.15-0.22 s (x86_64, Python 3.11).
MAX_LENS_FRAMINGS = 20000


def lens_tr_closed_form(framings: Sequence[int], theory: Theory) -> Scalar:
    """tr of surgery on a chain of circles with the given framings (the
    lens space it presents): one walk takes the colored sum and the
    signature sigma of the linking matrix, and ``normalized`` joins them.
    More than ``MAX_LENS_FRAMINGS`` framings, or work past
    ``MAX_SIGNATURE_WORK`` (``_check_work``), are refused first.

    The sum over subsets S of the chain of eps^|S| c(S) beta^(-2 sum_S f)
    is taken in one pass.  c is a product over the runs of S, where
    opening a run contributes eps and extending one -1/eps, so with
    w = eps beta^(-2f) two partial sums suffice, over the subsets that
    leave out (``outside``) or contain (``inside``) the latest component:
    outside, inside <- outside + inside, w (eps outside - inside / eps),
    that is theta^f (eps^2 outside - inside), theta = beta^(-2) a fifth
    root of unity.  Each sum is four integers in Z[z5].  A step's matrix
    has determinant of absolute value D^2 = eps + 2, so after every
    second framing the pair is divided by D^2: multiplied by 3 - eps and
    divided by 5 when all eight coordinates allow it, and otherwise the 5
    is kept for the end.  So the coordinates stay bounded (by 10 over
    random chains of up to 20,000 framings), and the walk is O(k) work on
    small integers.

    The leading minors of the linking matrix are the continuants
    p_i = f_i p_(i-1) - p_(i-2), p_0 = 1, p_(-1) = 0, and sigma is the sum
    of sign(p_i) sign(p_(i-1)) (Jacobi).  With 1 beside the diagonal, a
    zero p_i (i < k) makes p_(i+1) = -p_(i-1): its two steps add 0 for a
    +1 and a -1 that cancel.  A zero p_k is a zero eigenvalue.
    """
    k = len(framings)
    if k > MAX_LENS_FRAMINGS:
        raise ValueError(f"{k} framings exceed {MAX_LENS_FRAMINGS}")
    _check_work([f * f + (i > 0) + (i < k - 1) for i, f in enumerate(framings)])
    e0, e1, e2, e3 = theory.epsilon.z5_coordinates()
    e_squared = (e0 + 1, e1, e2, e3)          # eps^2 = eps + 1
    five_over_d2 = _five_over_d2(theory)
    steps = [(theta, _times(theta, e_squared)) for theta in theory.theta_coordinates]
    outside, inside = (1, 0, 0, 0), (0, 0, 0, 0)
    fives = sigma = 0
    p_prev, p, sign = 0, 1, 1
    for n, f in enumerate(framings, 1):
        p_prev, p = p, f * p - p_prev
        sign, last = (p > 0) - (p < 0), sign
        sigma += sign * last
        theta, theta_e2 = steps[f % 5]
        a0, a1, a2, a3 = _times(theta_e2, outside)
        b0, b1, b2, b3 = _times(theta, inside)
        o0, o1, o2, o3 = outside
        i0, i1, i2, i3 = inside
        outside = (o0 + i0, o1 + i1, o2 + i2, o3 + i3)
        inside = (a0 - b0, a1 - b1, a2 - b2, a3 - b3)
        if not n & 1:
            outside, inside = _times(outside, five_over_d2), _times(inside, five_over_d2)
            if any(c % 5 for c in outside + inside):
                fives += 1
            else:
                outside = tuple([c // 5 for c in outside])
                inside = tuple([c // 5 for c in inside])
    total = tuple([o + i for o, i in zip(outside, inside)])
    # the divisions took D^(2 floor(k/2)) of D^(k+1) already
    return normalized(sigma, k & 1, total, theory, fives)


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
