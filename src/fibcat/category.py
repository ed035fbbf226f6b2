"""The rank-2 category: objects are ordered words over {1, A}, morphisms
are maps of nonzero arrows between letters, and the monoidal/braided/ribbon
structure is built by extending a handful of 1x1 and 2x2 blocks by
linearity.

Objects are non-commutative sums of the two simple objects 1 and A,
stored as words: strings of the letters "1" and "A", so a simple object
is its one-letter word.  A morphism between two words is determined by
its arrows, one scalar per pair (dom letter, cod letter) of the same
simple type; letters of different type are never connected, and absent
arrows are zero.
The single nontrivial fusion rule A (x) A = 1 + A makes iterated tensor
products depend on the bracketing.  In X (x) Y the summands of each pair
of letters follow one another, pairs taken lexicographically, so where
they start is a sum of counts of letters and of A's (``_starts``).  The
tensor product, associator, braiding and duality maps all route their
arrows by that rule.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import repeat

from .scalars import Scalar, Theory


# The two simple objects, as the one-letter strings that spell them; a
# word is the string of its letters, so a letter is a one-letter word.
ONE = "1"
A = "A"

Word = str

UNIT: Word = ONE


def parse_word(text: str) -> Word:
    """Word from a string over {1, A}, e.g. "1AA"; "a" reads as A and
    whitespace is skipped."""
    out = []
    for ch in text:
        if ch == ONE:
            out.append(ONE)
        elif ch in (A, "a"):
            out.append(A)
        elif not ch.isspace():
            raise ValueError(f"bad object letter {ch!r}")
    return "".join(out)


def parse_int(text: str) -> int:
    """An integer in ASCII digits with an optional sign, and the spaces
    around it that ``int`` skips; an underscore or a digit of another
    script, which ``int`` also reads, is a ``ValueError``."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


# A (x) Y is Y with each 1 read as A and each A as 1A, its summands with A
_TIMES_A = str.maketrans({ONE: A, A: ONE + A})


@lru_cache(maxsize=4096)
def tensor_words(x_word: Word, y_word: Word) -> Word:
    """X (x) Y: the summands of each pair of letters, pairs taken
    lexicographically, so a copy of Y for each 1 of X and of A (x) Y for
    each A."""
    return x_word.translate({ord(ONE): y_word, ord(A): y_word.translate(_TIMES_A)})


@lru_cache(maxsize=4096)
def _starts(x_word: Word, y_word: Word) -> tuple[tuple[int, ...], tuple[Sequence[int], ...]]:
    """(rows, cols): the summands of x_i (x) y_j start at position
    rows[i] + cols[x_i == A][j] of X (x) Y.

    Pairs are taken lexicographically, and a pair of two A's has two
    summands, its 1-summand first; any other pair has one.  So the pairs
    before (i, j) fill i|Y| + j positions, and one more for each of them
    that is a pair of two A's: a_X(i) a(Y) + [x_i = A] a_Y(j), where
    a_W(k) counts the A's among the first k letters of W and a(Y) =
    a_Y(|Y|).
    """
    n, a_y = len(y_word), y_word.count(A)
    rows, a = [], 0
    for i, x in enumerate(x_word):
        rows.append(i * n + a * a_y)
        a += x == A
    shifted, a = [], 0
    for j, y in enumerate(y_word):
        shifted.append(j + a)
        a += y == A
    return tuple(rows), (range(n), tuple(shifted))


# ---------------------------------------------------------------------------
# morphisms

Arrows = dict[tuple[int, int], Scalar]


@dataclass(frozen=True, slots=True)
class Morphism:
    """A morphism between words, as the map of its nonzero arrows.

    ``arrows[(dom_pos, cod_pos)]`` is the value carried from letter
    dom_pos of dom to letter cod_pos of cod; both letters have the same
    simple type.  An absent key is a zero arrow and no zero value is
    stored, so equal maps are equal morphisms.  Values are exact scalars
    of one theory.  Cached constructors hand out the same map to every
    caller, so it is never modified after construction.

    ``Morphism(...)`` checks every arrow.  ``then``, ``tensor_morphisms``,
    ``scale_identity``, ``associator``, ``braiding``, ``twist``, ``birth``,
    ``death``, ``_random_morphism`` and ``spines._hom_unit_basis`` build
    through ``_unchecked``, as their arrows are valid by construction:
    positions and letter types carry over from the operands' words, or
    from the summand positions of ``_starts``, which pair letters of one
    type, a random arrow joins two letters it has compared, and a
    unit-word side meets only 1-letters; ``then`` drops the sums that
    vanish, and every other stored value is a product of nonzero field
    elements, a nonzero block entry, a power of beta, a nonzero rational,
    or 1, y, s and their quotients.
    """

    dom: Word
    cod: Word
    arrows: Arrows
    theory: Theory = field(compare=False)

    def __post_init__(self):
        dom, cod = self.dom, self.cod
        for (dp, cp), v in self.arrows.items():
            if not (0 <= dp < len(dom) and 0 <= cp < len(cod)):
                raise ValueError(f"arrow ({dp}, {cp}) lies outside "
                                 f"{dom} -> {cod}")
            if dom[dp] != cod[cp]:
                raise ValueError(f"arrow between different simple types at ({dp}, {cp})")
            if v.is_zero:
                raise ValueError(f"zero arrow stored at ({dp}, {cp})")

    @staticmethod
    def _unchecked(dom: Word, cod: Word, arrows: Arrows, theory: Theory) -> Morphism:
        """A morphism whose arrows the caller guarantees, skipping the checks.

        Its four slots are set through their descriptors, which the frozen
        class's ``__setattr__`` does not guard."""
        self = _new_morphism(Morphism)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_arrows(self, arrows)
        _set_theory(self, theory)
        return self

    def then(self, other: Morphism) -> Morphism:
        """Left-to-right composition: apply self first, then other."""
        if self.cod != other.dom:
            raise ValueError(
                f"cannot compose: cod {self.cod} != dom {other.dom}")
        one = self.theory.one
        onward: dict[int, list[tuple[int, Scalar]]] = {}
        for (mid, cp), v in other.arrows.items():
            onward.setdefault(mid, []).append((cp, v))
        out: Arrows = {}
        summed = False
        for (dp, mid), u in self.arrows.items():
            for cp, v in onward.get(mid, ()):
                # arrows are nonzero, so a product of two is nonzero: only
                # a sum can vanish
                w = v if u is one else u if v is one else u * v
                key = (dp, cp)
                if key in out:
                    out[key] += w
                    summed = True
                else:
                    out[key] = w
        if summed:
            out = {k: v for k, v in out.items() if v.terms}
        return Morphism._unchecked(self.dom, other.cod, out, self.theory)

    def entry(self, dom_pos: int, cod_pos: int) -> Scalar | None:
        """Arrow value between word positions; None when types differ."""
        if self.dom[dom_pos] != self.cod[cod_pos]:
            return None
        return self.arrows.get((dom_pos, cod_pos), self.theory.zero)

    def scalar(self) -> Scalar:
        """The value of an endomorphism of the unit word."""
        if self.dom != UNIT or self.cod != UNIT:
            raise ValueError("not a unit-to-unit morphism")
        return self.arrows.get((0, 0), self.theory.zero)

    def __repr__(self) -> str:
        return f"Morphism({self.dom} -> {self.cod})"


_new_morphism = object.__new__
_set_dom = Morphism.dom.__set__
_set_cod = Morphism.cod.__set__
_set_arrows = Morphism.arrows.__set__
_set_theory = Morphism.theory.__set__


def compose(first: Morphism, *rest: Morphism) -> Morphism:
    m = first
    for g in rest:
        m = m.then(g)
    return m


def identity(word: Word, theory: Theory) -> Morphism:
    return scale_identity(word, theory.one, theory)


def scale_identity(word: Word, value: Scalar, theory: Theory) -> Morphism:
    """value times the identity, on every letter."""
    arrows = {} if value.is_zero else {(p, p): value for p in range(len(word))}
    return Morphism._unchecked(word, word, arrows, theory)


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g between the paired expansions of the dom and cod words.

    A pair of nonzero arrows with matching letter types contributes the
    product of their values; a pair of A->A arrows feeds both the 1 and
    the A summand generated by A (x) A, and cross-summands stay zero.
    """
    drows, dcols = _starts(f.dom, g.dom)
    crows, ccols = _starts(f.cod, g.cod)
    g_dom = g.dom
    g_arrows = g.arrows.items()
    one = f.theory.one
    arrows: Arrows = {}
    for (di, ci), fv in f.arrows.items():
        # both letter pairs have the same types, so the same summands
        x = f.dom[di]
        drow, dcol, crow, ccol = drows[di], dcols[x == A], crows[ci], ccols[x == A]
        for (dj, cj), gv in g_arrows:
            v = gv if fv is one else fv if gv is one else fv * gv
            p, q = drow + dcol[dj], crow + ccol[cj]
            arrows[p, q] = v
            if x == g_dom[dj] == A:
                arrows[p + 1, q + 1] = v
    return Morphism._unchecked(tensor_words(f.dom, g.dom), tensor_words(f.cod, g.cod),
                               arrows, f.theory)


# ---------------------------------------------------------------------------
# associativity isomorphisms


@lru_cache(maxsize=4096)
def _associator_plan(x_word: Word, y_word: Word, z_word: Word):
    """(left word, right word, ps, qs, quads) of the associator between
    (X(x)Y)(x)Z and X(x)(Y(x)Z), which depend on the words alone.

    Each simple triple (i, j, k) lists its summands on either side, on
    the left each summand of x_i (x) y_j and then its summands with z_k,
    on the right each summand of y_j (x) z_k and then those of x_i with
    it.  A triple other than A, A, A has an identity block, which joins
    its n-th summand on the left to its n-th on the right: letter ps[e]
    on the left to letter qs[e] on the right.  An A, A, A triple lists
    A, 1, A on either side, at l0, l1, l1 + 1 on the left and r0, r1,
    r1 + 1 on the right, and keeps the quadruple (l0, l1, r0, r1).
    """
    xy, yz = tensor_words(x_word, y_word), tensor_words(y_word, z_word)
    # the column terms of a 1-letter are the positions themselves
    xy_rows, (_, xy_shift) = _starts(x_word, y_word)
    yz_rows, (_, yz_shift) = _starts(y_word, z_word)
    left_rows, (_, left_shift) = _starts(xy, z_word)
    right_rows, (_, right_shift) = _starts(x_word, yz)
    n = len(z_word)
    ps, qs, quads = [], [], []
    for i, x in enumerate(x_word):
        r_row = right_rows[i]
        for j, y in enumerate(y_word):
            yz_row = yz_rows[j]
            if x == y == A:
                # x_i (x) y_j is 1 at s, then A at s + 1, and y_j (x) z_k
                # is A at u for z_k = 1, and 1, A at u, u + 1 for z_k = A
                s = xy_rows[i] + xy_shift[j]
                l_row, la_row = left_rows[s], left_rows[s + 1]
                for k, z in enumerate(z_word):
                    u = yz_row + yz_shift[k]
                    l0, l1, r0 = l_row + k, la_row + left_shift[k], r_row + right_shift[u]
                    if z == A:
                        quads.append((l0, l1, r0, r_row + right_shift[u + 1]))
                    else:
                        ps += l0, l1
                        qs += r0, r0 + 1
            elif x == A:
                # x_i (x) y_j is A, and y_j (x) z_k is z_k: one summand
                # either side, or two, when z_k is A
                l_row = left_rows[xy_rows[i] + xy_shift[j]]
                for k, z in enumerate(z_word):
                    p, q = l_row + left_shift[k], r_row + right_shift[yz_row + k]
                    ps.append(p)
                    qs.append(q)
                    if z == A:
                        ps.append(p + 1)
                        qs.append(q + 1)
            elif y == A:
                # the same, with 1 (x) (y_j (x) z_k) = y_j (x) z_k
                l_row = left_rows[xy_rows[i] + j]
                for k, z in enumerate(z_word):
                    p, q = l_row + left_shift[k], r_row + yz_row + yz_shift[k]
                    ps.append(p)
                    qs.append(q)
                    if z == A:
                        ps.append(p + 1)
                        qs.append(q + 1)
            else:
                # 1, 1, z_k: a copy of z on either side
                l_row, ry_row = left_rows[xy_rows[i] + j], r_row + yz_row
                ps.extend(range(l_row, l_row + n))
                qs.extend(range(ry_row, ry_row + n))
    return (tensor_words(xy, z_word), tensor_words(x_word, yz),
            tuple(ps), tuple(qs), tuple(quads))


def associator(x_word: Word, y_word: Word, z_word: Word,
               theory: Theory, inverse: bool = False) -> Morphism:
    """The isomorphism (X(x)Y)(x)Z -> X(x)(Y(x)Z) (or its inverse).

    Each simple triple (i, j, k) of letters receives the block of the
    corresponding simple associator, routed by ``_associator_plan``.  The
    blocks square to the identity, so the inverse direction writes the
    same entries with the roles of the two sides exchanged.
    """
    left, right, ps, qs, quads = _associator_plan(x_word, y_word, z_word)
    if inverse:
        left, right, ps, qs = right, left, qs, ps
        quads = [(s0, s1, t0, t1) for t0, t1, s0, s1 in quads]
    one = theory.one
    e_inv, top, bottom, neg_e_inv = theory.associator_block
    arrows = dict(zip(zip(ps, qs), repeat(one)))
    for s0, s1, t0, t1 in quads:
        # source summands A, 1, A at s0, s1, s1 + 1, target ones at t0, t1, t1 + 1
        arrows[s0, t0] = e_inv
        arrows[s1 + 1, t0] = top
        arrows[s1, t1] = one
        arrows[s0, t1 + 1] = bottom
        arrows[s1 + 1, t1 + 1] = neg_e_inv
    return Morphism._unchecked(left, right, arrows, theory)


# ---------------------------------------------------------------------------
# braiding, twist, duality


def braiding(x_word: Word, y_word: Word, theory: Theory,
             inverse: bool = False) -> Morphism:
    """c_{X,Y}: X(x)Y -> Y(x)X (inverse: Y(x)X -> X(x)Y), by linearity:
    summand t of the pair (i, j) of U(x)V goes to summand t of the pair
    (j, i) of V(x)U, where U, V are X, Y (inverse: Y, X), with value
    beta^2 on the 1-summand of a pair of A's, beta on its A-summand and 1
    on any other pair; the inverse takes beta^-1 for beta."""
    if inverse:
        u_word, v_word = y_word, x_word
        beta, beta2 = theory.beta_inv, theory.theta(1)
    else:
        u_word, v_word = x_word, y_word
        beta, beta2 = theory.beta, theory.theta(-1)
    uv_rows, uv_cols = _starts(u_word, v_word)
    vu_rows, vu_cols = _starts(v_word, u_word)
    one = theory.one
    arrows: Arrows = {}
    for i, u in enumerate(u_word):
        # the column term of pair (j, i) of V(x)U, as v_j is 1 or A
        vu_col = (vu_cols[0][i], vu_cols[1][i])
        uv_row = uv_rows[i]
        for v, uv_col, vu_row in zip(v_word, uv_cols[u == A], vu_rows):
            p, q = uv_row + uv_col, vu_row + vu_col[v == A]
            if u == v == A:
                arrows[p, q] = beta2
                arrows[p + 1, q + 1] = beta
            else:
                arrows[p, q] = one
    return Morphism._unchecked(tensor_words(u_word, v_word), tensor_words(v_word, u_word),
                               arrows, theory)


def twist(word: Word, theory: Theory, sign: int = 1) -> Morphism:
    """Diagonal ribbon twist: 1 on 1-letters, beta^{-2 sign} on A-letters."""
    val = theory.theta(1 if sign > 0 else -1)
    return Morphism._unchecked(
        word, word, {(p, p): (val if x == A else theory.one) for p, x in enumerate(word)},
        theory)


def birth(word: Word, theory: Theory) -> Morphism:
    """b_X: 1 -> X(x)X; value y at 1-letters' leading summands, y*s at A's."""
    rows, cols = _starts(word, word)
    y = theory.y_scalar
    ys = y * theory.s
    arrows = {(0, rows[i] + cols[x == A][i]): (y if x == ONE else ys)
              for i, x in enumerate(word)}
    return Morphism._unchecked(UNIT, tensor_words(word, word), arrows, theory)


def death(word: Word, theory: Theory) -> Morphism:
    """d_X: X(x)X -> 1; value 1/y at 1-letters' leading summands, s/y at A's."""
    rows, cols = _starts(word, word)
    y_inv = theory.y_scalar.invert()
    sy = theory.s * y_inv
    arrows = {(rows[i] + cols[x == A][i], 0): (y_inv if x == ONE else sy)
              for i, x in enumerate(word)}
    return Morphism._unchecked(tensor_words(word, word), UNIT, arrows, theory)


# ---------------------------------------------------------------------------
# S-matrix


def s_matrix_entry(x: str, y: str, theory: Theory) -> Scalar:
    w = tensor_words(x, y)
    double_braid = braiding(x, y, theory).then(braiding(y, x, theory))
    mid = tensor_morphisms(double_braid, identity(w, theory))
    return compose(birth(w, theory), mid, death(w, theory)).scalar()


def s_matrix(theory: Theory) -> tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]:
    """The 2x2 S-matrix, computed by the categorical composition."""
    return (
        (s_matrix_entry(ONE, ONE, theory), s_matrix_entry(ONE, A, theory)),
        (s_matrix_entry(A, ONE, theory), s_matrix_entry(A, A, theory)),
    )


# ---------------------------------------------------------------------------
# executable axiom checks


@dataclass
class AxiomCheck:
    name: str
    cases: int
    passed: bool
    detail: str = ""


@dataclass
class AxiomReport:
    seed: int
    checks: list[AxiomCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_cases(self) -> int:
        return sum(c.cases for c in self.checks)

    def summary(self) -> str:
        lines = [f"seed {self.seed}"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"  {mark}  {c.name} [{c.cases} cases]{extra}")
        if self.all_passed:
            lines.append(f"all {len(self.checks)} identities passed"
                         f" ({self.total_cases} cases)")
        else:
            failed = sum(1 for c in self.checks if not c.passed)
            lines.append(f"{failed} of {len(self.checks)} identities FAILED")
        return "\n".join(lines)


def _random_word(rng: random.Random, max_len: int, min_len: int = 1) -> Word:
    """``rng.randint(min_len, max_len)`` letters, each ``rng.choice((ONE, A))``.

    On Python 3.10-3.13 both calls draw an index r below n as
    ``Random._randbelow`` does, getrandbits(n.bit_length()) until r < n.
    The loops here are that loop, so they draw the same words and leave
    the generator in the same state, without two method calls a draw."""
    span = max_len - min_len + 1
    if span < 1:
        raise ValueError(f"no length between {min_len} and {max_len}")
    getrandbits = rng.getrandbits
    k = span.bit_length()
    r = getrandbits(k)
    while r >= span:
        r = getrandbits(k)
    letters = []
    for _ in range(min_len + r):
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        letters.append(A if r else ONE)
    return "".join(letters)


# A random arrow's value by its two draws, one table per field: n/d at
# 3(n + 3) + d - 1 for n in -3..3 and d in 1..3, None where n = 0, and
# the shared ``one`` of the field's theories, which ``then`` and
# ``tensor_morphisms`` skip, where n/d = 1
_ARROW_VALUES = {
    t.field: tuple(None if not n else t.one if n == d else t.rational(Fraction(n, d))
                   for n in range(-3, 4) for d in range(1, 4))
    for t in (Theory("positive"), Theory("negative"))}


def _random_morphism(rng: random.Random, dom: Word, cod: Word, theory: Theory) -> Morphism:
    """An arrow n/d between each pair of letters of one type, drawn as
    ``rng.randint(-3, 3)`` then ``rng.randint(1, 3)`` and absent where
    n = 0.  The two loops draw n + 3 below 7 and d - 1 below 3 as those
    calls do (see ``_random_word``), so the arrows and the generator's
    state after them are the same."""
    values = _ARROW_VALUES[theory.field]
    getrandbits = rng.getrandbits
    arrows: Arrows = {}
    for dp, x in enumerate(dom):
        for cp, y in enumerate(cod):
            if x == y:
                n = getrandbits(3)
                while n == 7:
                    n = getrandbits(3)
                d = getrandbits(2)
                while d == 3:
                    d = getrandbits(2)
                value = values[3 * n + d]
                if value is not None:
                    arrows[dp, cp] = value
    return Morphism._unchecked(dom, cod, arrows, theory)


# A builder of a structural morphism of one theory from words, such as
# ``partial(associator, theory=theory)``; ``axiom_suite`` hands the checks
# below memoized ones.
_Build = Callable[..., Morphism]


def _pentagon_holds(x: Word, y: Word, z: Word, w: Word,
                    assoc: _Build, ident: _Build) -> bool:
    lhs = compose(
        tensor_morphisms(assoc(x, y, z), ident(w)),
        assoc(x, tensor_words(y, z), w),
        tensor_morphisms(ident(x), assoc(y, z, w)))
    rhs = assoc(tensor_words(x, y), z, w).then(assoc(x, y, tensor_words(z, w)))
    return lhs == rhs


def _hexagon1_holds(x: Word, y: Word, z: Word,
                    assoc: _Build, braid: _Build, ident: _Build) -> bool:
    lhs = compose(assoc(x, y, z),
                  braid(x, tensor_words(y, z)),
                  assoc(y, z, x))
    rhs = compose(
        tensor_morphisms(braid(x, y), ident(z)),
        assoc(y, x, z),
        tensor_morphisms(ident(y), braid(x, z)))
    return lhs == rhs


def _hexagon2_holds(x: Word, y: Word, z: Word,
                    assoc: _Build, braid: _Build, ident: _Build) -> bool:
    lhs = compose(assoc(x, y, z, inverse=True),
                  braid(tensor_words(x, y), z),
                  assoc(z, x, y, inverse=True))
    rhs = compose(
        tensor_morphisms(ident(x), braid(y, z)),
        assoc(x, z, y, inverse=True),
        tensor_morphisms(braid(x, z), ident(y)))
    return lhs == rhs


def _zigzags_hold(x: Word, theory: Theory, assoc: _Build, ident: _Build) -> bool:
    idx = ident(x)
    b, d = birth(x, theory), death(x, theory)
    first = compose(tensor_morphisms(b, idx),
                    assoc(x, x, x),
                    tensor_morphisms(idx, d))
    second = compose(tensor_morphisms(idx, b),
                     assoc(x, x, x, inverse=True),
                     tensor_morphisms(d, idx))
    return first == idx and second == idx


def _twist_braiding_holds(x: Word, y: Word, braid: _Build, tw: _Build) -> bool:
    lhs = tw(tensor_words(x, y))
    rhs = compose(tensor_morphisms(tw(x), tw(y)),
                  braid(x, y),
                  braid(y, x))
    return lhs == rhs


def _duality_twist_holds(x: Word, theory: Theory,
                         braid: _Build, ident: _Build, tw: _Build) -> bool:
    idx = ident(x)
    b, d = birth(x, theory), death(x, theory)
    tw_id = tensor_morphisms(tw(x), idx)
    id_tw = tensor_morphisms(idx, tw(x))
    c = braid(x, x)
    return (compose(b, tw_id, c) == b
            and compose(tw_id, c, d) == d
            and b.then(tw_id) == b.then(id_tw))


def axiom_suite(theory: Theory, seed: int = 0) -> AxiomReport:
    """Run every structural identity on exhaustive simple tuples plus
    seeded random words and morphisms; record the first failure per check.

    The checks meet the same associators, braidings, identities and
    twists many times (about 300 associator calls on some 125 word
    triples per suite), so each is built once per call of the suite:
    the four builders are memoized on their word arguments (and
    ``inverse``) by ``functools.cache`` wrappers that this call makes
    and drops.  Morphisms are never modified, so sharing them changes no
    result, and the memo goes with the call: no morphism outlives the
    report, and no cache is keyed on the theory."""
    rng = random.Random(seed)
    simple_words = [ONE, A]
    checks: list[AxiomCheck] = []
    assoc, braid, ident, tw = (cache(partial(build, theory=theory))
                               for build in (associator, braiding, identity, twist))

    def run(name, argsets, predicate):
        cases = 0
        for args in argsets:
            cases += 1
            if not predicate(*args):
                checks.append(AxiomCheck(name, cases, False, f"counterexample {args!r}"))
                return
        checks.append(AxiomCheck(name, cases, True))

    quads = [(x, y, z, w) for x in simple_words for y in simple_words
             for z in simple_words for w in simple_words]
    quads += [tuple(_random_word(rng, 2) for _ in range(4)) for _ in range(6)]
    quads += [tuple(_random_word(rng, 3) for _ in range(4)) for _ in range(2)]
    run("pentagon", quads, lambda *a: _pentagon_holds(*a, assoc, ident))

    triples = [(x, y, z) for x in simple_words for y in simple_words
               for z in simple_words]
    rand_triples = [tuple(_random_word(rng, 3) for _ in range(3)) for _ in range(6)]
    run("hexagon-1", triples + rand_triples, lambda *a: _hexagon1_holds(*a, assoc, braid, ident))
    run("hexagon-2", triples + rand_triples, lambda *a: _hexagon2_holds(*a, assoc, braid, ident))

    pairs = [(x, y) for x in simple_words for y in simple_words]
    rand_pairs = [tuple(_random_word(rng, 3) for _ in range(2)) for _ in range(6)]
    run("triangle", pairs + rand_pairs,
        lambda x, y: assoc(x, UNIT, y) == ident(tensor_words(x, y)))

    run("twist-braiding", pairs + rand_pairs,
        lambda x, y: _twist_braiding_holds(x, y, braid, tw))

    zig_words = simple_words + [ONE + A] + [_random_word(rng, 3) for _ in range(4)]
    run("duality-zigzag", [(w,) for w in zig_words],
        lambda w: _zigzags_hold(w, theory, assoc, ident))
    run("duality-twist", [(w,) for w in zig_words],
        lambda w: _duality_twist_holds(w, theory, braid, ident, tw))

    def naturality_case():
        x1, x2 = _random_word(rng, 3), _random_word(rng, 3)
        y1, y2 = _random_word(rng, 3), _random_word(rng, 3)
        f = _random_morphism(rng, x1, y1, theory)
        g = _random_morphism(rng, x2, y2, theory)
        lhs = tensor_morphisms(f, g).then(braid(y1, y2))
        rhs = braid(x1, x2).then(tensor_morphisms(g, f))
        return lhs == rhs

    run("braiding-naturality", [() for _ in range(100)],
        lambda: naturality_case())

    def assoc_naturality_case():
        x1, x2, x3, y1, y2, y3 = (_random_word(rng, 2) for _ in range(6))
        f = _random_morphism(rng, x1, y1, theory)
        g = _random_morphism(rng, x2, y2, theory)
        h = _random_morphism(rng, x3, y3, theory)
        lhs = tensor_morphisms(tensor_morphisms(f, g), h).then(assoc(y1, y2, y3))
        rhs = assoc(x1, x2, x3).then(tensor_morphisms(f, tensor_morphisms(g, h)))
        return lhs == rhs

    run("associator-naturality", [() for _ in range(20)],
        lambda: assoc_naturality_case())

    run("associator-involution", triples + rand_triples,
        lambda x, y, z: assoc(x, y, z).then(assoc(x, y, z, inverse=True))
        == ident(tensor_words(tensor_words(x, y), z)))

    def twist_unit_case():
        # The 1-block of (theta_X (x) id_X) . c_{X,X} is the summand-swap
        # permutation with unit values; on words without repeated letters
        # (all the braiding example pins down) that is the identity matrix.
        x = _random_word(rng, 3)
        m = tensor_morphisms(tw(x), ident(x)).then(braid(x, x))
        rows, cols = _starts(x, x)
        swap = {rows[i] + cols[a == A][j]: rows[j] + cols[b == A][i]
                for i, a in enumerate(x) for j, b in enumerate(x)}
        ones = [p for p, letter in enumerate(tensor_words(x, x)) if letter == ONE]
        for p in ones:
            for q in ones:
                expect = theory.one if q == swap[p] else theory.zero
                if m.entry(p, q) != expect:
                    return False
        return True

    run("twist-unit-matrix", [() for _ in range(10)], lambda: twist_unit_case())

    return AxiomReport(seed=seed, checks=checks)
