"""The rank-2 category: objects are ordered words over {1, A}, morphisms
are pairs of matrices, and the monoidal/braided/ribbon structure is built
by extending a handful of 1x1 and 2x2 blocks by linearity.

Objects are non-commutative sums of the two simple objects, stored as
tuples (words).  A morphism between two words is determined by a matrix
[f]_1 acting on the 1-letters and a matrix [f]_A acting on the A-letters;
letters of different type are never connected.  The single nontrivial
fusion rule A (x) A = 1 + A makes iterated tensor products depend on the
bracketing, which is why the associator machinery below tracks, for every
letter of an expansion, the simple letters it descends from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import Scalar, Theory


class SimpleObject(Enum):
    ONE = "1"
    A = "A"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return self.value


ONE = SimpleObject.ONE
A = SimpleObject.A

Word = tuple[SimpleObject, ...]
Matrix = tuple[tuple[Scalar, ...], ...]

UNIT: Word = (ONE,)


def parse_word(text: str) -> Word:
    """Word from a string over {1, A}, e.g. "1AA"."""
    out = []
    for ch in text:
        if ch == "1":
            out.append(ONE)
        elif ch in ("A", "a"):
            out.append(A)
        elif not ch.isspace():
            raise ValueError(f"bad object letter {ch!r}")
    return tuple(out)


def word_str(word: Word) -> str:
    return "".join(x.value for x in word)


def count_one(word: Word) -> int:
    return sum(1 for x in word if x is ONE)


def count_a(word: Word) -> int:
    return sum(1 for x in word if x is A)


def _pair_letters(x: SimpleObject, y: SimpleObject) -> tuple[SimpleObject, ...]:
    """Summands of x (x) y for simple letters, in order."""
    if x is A and y is A:
        return (ONE, A)
    return (A,) if (x is A or y is A) else (ONE,)


@lru_cache(maxsize=None)
def expand_pair(x_word: Word, y_word: Word) -> tuple[Word, tuple[tuple[int, int, int], ...]]:
    """Expansion of X (x) Y with, per letter, its origin (i, j, t).

    Pairs (x_i, y_j) are enumerated lexicographically; a pair of two A's
    contributes its 1-summand (t = 0) then its A-summand (t = 1), any
    other pair a single letter (t = 0).
    """
    word: list[SimpleObject] = []
    labels: list[tuple[int, int, int]] = []
    for i, x in enumerate(x_word):
        for j, y in enumerate(y_word):
            for t, letter in enumerate(_pair_letters(x, y)):
                word.append(letter)
                labels.append((i, j, t))
    return tuple(word), tuple(labels)


def tensor_words(x_word: Word, y_word: Word) -> Word:
    return expand_pair(x_word, y_word)[0]


# ---------------------------------------------------------------------------
# morphisms


def _block_index(word: Word) -> dict[int, tuple[SimpleObject, int]]:
    """word position -> (letter, index within its type block)."""
    out = {}
    counters = {ONE: 0, A: 0}
    for p, x in enumerate(word):
        out[p] = (x, counters[x])
        counters[x] += 1
    return out


def _positions(word: Word) -> dict[SimpleObject, list[int]]:
    pos: dict[SimpleObject, list[int]] = {ONE: [], A: []}
    for p, x in enumerate(word):
        pos[x].append(p)
    return pos


def _matmul(a: Matrix, b: Matrix, rows: int, cols: int, zero: Scalar) -> Matrix:
    """a . b for a: rows x k, b: k x cols, skipping zero entries."""
    if not cols:
        return ((),) * rows
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        row = out[i]
        for k, aik in enumerate(a[i]):
            if aik.is_zero:
                continue
            brow = b[k]
            for j in range(cols):
                bkj = brow[j]
                if not bkj.is_zero:
                    row[j] = row[j] + aik * bkj
    return tuple(tuple(r) for r in out)


@dataclass(frozen=True)
class Morphism:
    """A morphism between words, as the matrix pair ([f]_1, [f]_A).

    Matrix shapes are (letters of cod) x (letters of dom), blockwise per
    simple type.  Values are exact scalars of one theory.
    """

    dom: Word
    cod: Word
    m1: Matrix
    ma: Matrix
    theory: Theory = field(compare=False)

    def __post_init__(self):
        if len(self.m1) != count_one(self.cod) or any(
                len(r) != count_one(self.dom) for r in self.m1):
            raise ValueError("[f]_1 shape does not match dom/cod letter counts")
        if len(self.ma) != count_a(self.cod) or any(
                len(r) != count_a(self.dom) for r in self.ma):
            raise ValueError("[f]_A shape does not match dom/cod letter counts")

    def then(self, other: Morphism) -> Morphism:
        """Left-to-right composition: apply self first, then other."""
        if self.cod != other.dom:
            raise ValueError(
                f"cannot compose: cod {word_str(self.cod)} != dom {word_str(other.dom)}")
        zero = self.theory.zero
        m1 = _matmul(other.m1, self.m1,
                     count_one(other.cod), count_one(self.dom), zero)
        ma = _matmul(other.ma, self.ma,
                     count_a(other.cod), count_a(self.dom), zero)
        return Morphism(self.dom, other.cod, m1, ma, self.theory)

    def entry(self, dom_pos: int, cod_pos: int) -> Scalar | None:
        """Arrow value between word positions; None when types differ."""
        xd, bd = _block_index(self.dom)[dom_pos]
        xc, bc = _block_index(self.cod)[cod_pos]
        if xd is not xc:
            return None
        m = self.m1 if xd is ONE else self.ma
        return m[bc][bd]

    def arrows(self):
        """Yield (dom_pos, cod_pos, value) over nonzero arrows."""
        dpos = _positions(self.dom)
        cpos = _positions(self.cod)
        for letter, m in ((ONE, self.m1), (A, self.ma)):
            dl, cl = dpos[letter], cpos[letter]
            for bc, row in enumerate(m):
                for bd, v in enumerate(row):
                    if not v.is_zero:
                        yield dl[bd], cl[bc], v

    def scalar(self) -> Scalar:
        """The value of an endomorphism of the unit word."""
        if self.dom != UNIT or self.cod != UNIT:
            raise ValueError("not a unit-to-unit morphism")
        return self.m1[0][0]

    def __repr__(self) -> str:
        return f"Morphism({word_str(self.dom)} -> {word_str(self.cod)})"


def compose(first: Morphism, *rest: Morphism) -> Morphism:
    m = first
    for g in rest:
        m = m.then(g)
    return m


def morphism_from_entries(dom: Word, cod: Word,
                          entries: dict[tuple[int, int], Scalar],
                          theory: Theory) -> Morphism:
    """Build a morphism from word-position arrows {(dom_pos, cod_pos): value}."""
    zero = theory.zero
    bd = _block_index(dom)
    bc = _block_index(cod)
    m1 = [[zero] * count_one(dom) for _ in range(count_one(cod))]
    ma = [[zero] * count_a(dom) for _ in range(count_a(cod))]
    for (dp, cp), v in entries.items():
        xd, ibd = bd[dp]
        xc, ibc = bc[cp]
        if xd is not xc:
            if v.is_zero:
                continue
            raise ValueError(f"arrow between different simple types at ({dp}, {cp})")
        (m1 if xd is ONE else ma)[ibc][ibd] = v
    return Morphism(dom, cod, tuple(map(tuple, m1)), tuple(map(tuple, ma)), theory)


def _matrix_identity(n: int, theory: Theory) -> Matrix:
    z, o = theory.zero, theory.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def identity(word: Word, theory: Theory) -> Morphism:
    return Morphism(word, word,
                    _matrix_identity(count_one(word), theory),
                    _matrix_identity(count_a(word), theory),
                    theory)


def scale_identity(word: Word, value: Scalar, theory: Theory) -> Morphism:
    """value times the identity, on both blocks."""
    z = theory.zero
    n1, na = count_one(word), count_a(word)
    m1 = tuple(tuple(value if i == j else z for j in range(n1)) for i in range(n1))
    ma = tuple(tuple(value if i == j else z for j in range(na)) for i in range(na))
    return Morphism(word, word, m1, ma, theory)


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    """f (x) g between the paired expansions of the dom and cod words.

    A pair of nonzero arrows with matching letter types contributes the
    product of their values; a pair of A->A arrows feeds both the 1 and
    the A summand generated by A (x) A, and cross-summands stay zero.
    """
    dom, dlab = expand_pair(f.dom, g.dom)
    cod, clab = expand_pair(f.cod, g.cod)
    dpos = {lab: p for p, lab in enumerate(dlab)}
    cpos = {lab: p for p, lab in enumerate(clab)}
    entries: dict[tuple[int, int], Scalar] = {}
    for di, ci, fv in f.arrows():
        for dj, cj, gv in g.arrows():
            v = fv * gv
            for t in range(len(_pair_letters(f.dom[di], g.dom[dj]))):
                entries[(dpos[(di, dj, t)], cpos[(ci, cj, t)])] = v
    return morphism_from_entries(dom, cod, entries, f.theory)


# ---------------------------------------------------------------------------
# associativity isomorphisms


def _triple_word(x: SimpleObject, y: SimpleObject, z: SimpleObject) -> Word:
    out = []
    for s in _pair_letters(x, y):
        out.extend(_pair_letters(s, z))
    return tuple(out)


def _left_t(x, y, z) -> dict[tuple[int, int], int]:
    """(s, u) -> summand index of (x(x)y)(x)z."""
    table, t = {}, 0
    for si, s in enumerate(_pair_letters(x, y)):
        for ui in range(len(_pair_letters(s, z))):
            table[(si, ui)] = t
            t += 1
    return table


def _right_t(x, y, z) -> dict[tuple[int, int], int]:
    """(s, u) -> summand index of x(x)(y(x)z)."""
    table, t = {}, 0
    for si, s in enumerate(_pair_letters(y, z)):
        for ui in range(len(_pair_letters(x, s))):
            table[(si, ui)] = t
            t += 1
    return table


def _assoc_block(x, y, z, theory: Theory) -> Matrix:
    """Associator block on one simple triple, rows = target summand,
    cols = source summand of the triple product word."""
    if x is A and y is A and z is A:
        e_inv = theory.epsilon.invert()
        xs = theory.x_scalar
        s_inv = theory.s_inv
        return (
            (e_inv, theory.zero, xs * s_inv),
            (theory.zero, theory.one, theory.zero),
            (xs.invert() * s_inv, theory.zero, -e_inv),
        )
    return _matrix_identity(len(_triple_word(x, y, z)), theory)


def _left_labels(x_word: Word, y_word: Word, z_word: Word):
    """Per letter of (X(x)Y)(x)Z: origin (i, j, k, t)."""
    xy, lab_xy = expand_pair(x_word, y_word)
    word, lab = expand_pair(xy, z_word)
    out = []
    for pxy, k, u in lab:
        i, j, s = lab_xy[pxy]
        t = _left_t(x_word[i], y_word[j], z_word[k])[(s, u)]
        out.append((i, j, k, t))
    return word, out


def _right_labels(x_word: Word, y_word: Word, z_word: Word):
    """Per letter of X(x)(Y(x)Z): origin (i, j, k, t)."""
    yz, lab_yz = expand_pair(y_word, z_word)
    word, lab = expand_pair(x_word, yz)
    out = []
    for i, pyz, u in lab:
        j, k, s = lab_yz[pyz]
        t = _right_t(x_word[i], y_word[j], z_word[k])[(s, u)]
        out.append((i, j, k, t))
    return word, out


@lru_cache(maxsize=None)
def associator(x_word: Word, y_word: Word, z_word: Word,
               theory: Theory, inverse: bool = False) -> Morphism:
    """The isomorphism (X(x)Y)(x)Z -> X(x)(Y(x)Z) (or its inverse).

    Rows and columns are routed by the simple-triple origin of every
    letter of the two expansions; each (i, j, k) group receives the block
    of the corresponding simple associator.  The inverse direction uses
    the same blocks, which square to the identity.
    """
    left, llab = _left_labels(x_word, y_word, z_word)
    right, rlab = _right_labels(x_word, y_word, z_word)
    blocks: dict[tuple[int, int, int], Matrix] = {}
    entries: dict[tuple[int, int], Scalar] = {}
    rindex = {lab: q for q, lab in enumerate(rlab)}
    for p, (i, j, k, tl) in enumerate(llab):
        key = (i, j, k)
        if key not in blocks:
            blocks[key] = _assoc_block(x_word[i], y_word[j], z_word[k], theory)
        block = blocks[key]
        for tr in range(len(block)):
            if inverse:
                v = block[tl][tr]
                if not v.is_zero:
                    entries[(rindex[(i, j, k, tr)], p)] = v
            else:
                v = block[tr][tl]
                if not v.is_zero:
                    entries[(p, rindex[(i, j, k, tr)])] = v
    if inverse:
        return morphism_from_entries(right, left, entries, theory)
    return morphism_from_entries(left, right, entries, theory)


# ---------------------------------------------------------------------------
# braiding, twist, duality


@lru_cache(maxsize=None)
def braiding(x_word: Word, y_word: Word, theory: Theory,
             inverse: bool = False) -> Morphism:
    """c_{X,Y}: X(x)Y -> Y(x)X (inverse: Y(x)X -> X(x)Y), by linearity."""
    dom, dlab = expand_pair(x_word, y_word)
    cod, clab = expand_pair(y_word, x_word)
    cpos = {lab: q for q, lab in enumerate(clab)}
    beta = theory.beta_inv if inverse else theory.beta
    entries = {}
    for p, (i, j, t) in enumerate(dlab):
        q = cpos[(j, i, t)]
        if x_word[i] is A and y_word[j] is A:
            v = beta * beta if t == 0 else beta
        else:
            v = theory.one
        if inverse:
            entries[(q, p)] = v
        else:
            entries[(p, q)] = v
    if inverse:
        return morphism_from_entries(cod, dom, entries, theory)
    return morphism_from_entries(dom, cod, entries, theory)


def twist(word: Word, theory: Theory, sign: int = 1) -> Morphism:
    """Diagonal ribbon twist: 1 on 1-letters, beta^{-2 sign} on A-letters."""
    val = theory.beta_inv ** 2 if sign > 0 else theory.beta ** 2
    z = theory.zero
    n1, na = count_one(word), count_a(word)
    m1 = _matrix_identity(n1, theory)
    ma = tuple(tuple(val if i == j else z for j in range(na)) for i in range(na))
    return Morphism(word, word, m1, ma, theory)


def _self_pair_firsts(word: Word) -> dict[int, int]:
    """For X(x)X: word position of the leading 1-summand of x_i (x) x_i."""
    _, labels = expand_pair(word, word)
    return {i: p for p, (i, j, t) in enumerate(labels) if i == j and t == 0}


def birth(word: Word, theory: Theory) -> Morphism:
    """b_X: 1 -> X(x)X; value y at 1-letters' leading summands, y*s at A's."""
    cod = tensor_words(word, word)
    y = theory.y_scalar
    ys = y * theory.s
    entries = {(0, p): (y if word[i] is ONE else ys)
               for i, p in _self_pair_firsts(word).items()}
    return morphism_from_entries(UNIT, cod, entries, theory)


def death(word: Word, theory: Theory) -> Morphism:
    """d_X: X(x)X -> 1; value 1/y at 1-letters' leading summands, s/y at A's."""
    dom = tensor_words(word, word)
    y_inv = theory.y_scalar.invert()
    sy = theory.s * y_inv
    entries = {(p, 0): (y_inv if word[i] is ONE else sy)
               for i, p in _self_pair_firsts(word).items()}
    return morphism_from_entries(dom, UNIT, entries, theory)


# ---------------------------------------------------------------------------
# bracket trees and re-association

Tree = object  # a SimpleObject leaf, or a (left, right) tuple


def leaf_word(tree: Tree) -> Word:
    if isinstance(tree, SimpleObject):
        return (tree,)
    left, right = tree
    return leaf_word(left) + leaf_word(right)


def word_of_tree(tree: Tree) -> Word:
    if isinstance(tree, SimpleObject):
        return (tree,)
    left, right = tree
    return tensor_words(word_of_tree(left), word_of_tree(right))


def right_comb(leaves) -> Tree:
    """Right-comb bracketing a0 (x) (a1 (x) (... )); unit leaf when empty."""
    items = list(leaves)
    if not items:
        return ONE
    tree = items[-1]
    for item in reversed(items[:-1]):
        tree = (item, tree)
    return tree


@lru_cache(maxsize=None)
def _comb_steps(tree: Tree, theory: Theory) -> tuple[tuple[Morphism, Morphism], ...]:
    """Elementary rotations (forward, inverse) carrying tree to its right comb."""
    if isinstance(tree, SimpleObject):
        return ()
    left, right = tree
    if isinstance(left, tuple):
        la, lb = left
        wa, wb, wr = word_of_tree(la), word_of_tree(lb), word_of_tree(right)
        fwd = associator(wa, wb, wr, theory)
        inv = associator(wa, wb, wr, theory, inverse=True)
        return ((fwd, inv),) + _comb_steps((la, (lb, right)), theory)
    id_leaf = identity((left,), theory)
    return tuple((tensor_morphisms(id_leaf, f), tensor_morphisms(id_leaf, g))
                 for f, g in _comb_steps(right, theory))


@lru_cache(maxsize=None)
def reassociate(src: Tree, dst: Tree, theory: Theory) -> Morphism:
    """Composite of elementary associator moves from one bracketing to another.

    Both trees must carry the same leaf sequence; the route goes through
    the right-comb normal form, and the pentagon relation (checked by the
    axiom suite) makes the result path-independent.
    """
    if leaf_word(src) != leaf_word(dst):
        raise ValueError("bracket trees have different leaf sequences")
    m = identity(word_of_tree(src), theory)
    for fwd, _ in _comb_steps(src, theory):
        m = m.then(fwd)
    for _, inv in reversed(_comb_steps(dst, theory)):
        m = m.then(inv)
    return m


# ---------------------------------------------------------------------------
# S-matrix


def s_matrix_entry(x: SimpleObject, y: SimpleObject, theory: Theory) -> Scalar:
    w = tensor_words((x,), (y,))
    double_braid = braiding((x,), (y,), theory).then(braiding((y,), (x,), theory))
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
    return tuple(rng.choice((ONE, A)) for _ in range(rng.randint(min_len, max_len)))


def _random_morphism(rng: random.Random, dom: Word, cod: Word, theory: Theory) -> Morphism:
    entries = {}
    for dp, x in enumerate(dom):
        for cp, y in enumerate(cod):
            if x is y:
                q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if q:
                    entries[(dp, cp)] = theory.rational(q)
    return morphism_from_entries(dom, cod, entries, theory)


def _pentagon_holds(x: Word, y: Word, z: Word, w: Word, theory: Theory) -> bool:
    lhs = compose(
        tensor_morphisms(associator(x, y, z, theory), identity(w, theory)),
        associator(x, tensor_words(y, z), w, theory),
        tensor_morphisms(identity(x, theory), associator(y, z, w, theory)))
    rhs = associator(tensor_words(x, y), z, w, theory).then(
        associator(x, y, tensor_words(z, w), theory))
    return lhs == rhs


def _hexagon1_holds(x: Word, y: Word, z: Word, theory: Theory) -> bool:
    lhs = compose(associator(x, y, z, theory),
                  braiding(x, tensor_words(y, z), theory),
                  associator(y, z, x, theory))
    rhs = compose(
        tensor_morphisms(braiding(x, y, theory), identity(z, theory)),
        associator(y, x, z, theory),
        tensor_morphisms(identity(y, theory), braiding(x, z, theory)))
    return lhs == rhs


def _hexagon2_holds(x: Word, y: Word, z: Word, theory: Theory) -> bool:
    lhs = compose(associator(x, y, z, theory, inverse=True),
                  braiding(tensor_words(x, y), z, theory),
                  associator(z, x, y, theory, inverse=True))
    rhs = compose(
        tensor_morphisms(identity(x, theory), braiding(y, z, theory)),
        associator(x, z, y, theory, inverse=True),
        tensor_morphisms(braiding(x, z, theory), identity(y, theory)))
    return lhs == rhs


def _zigzags_hold(x: Word, theory: Theory) -> bool:
    idx = identity(x, theory)
    b, d = birth(x, theory), death(x, theory)
    first = compose(tensor_morphisms(b, idx),
                    associator(x, x, x, theory),
                    tensor_morphisms(idx, d))
    second = compose(tensor_morphisms(idx, b),
                     associator(x, x, x, theory, inverse=True),
                     tensor_morphisms(d, idx))
    return first == idx and second == idx


def _twist_braiding_holds(x: Word, y: Word, theory: Theory) -> bool:
    lhs = twist(tensor_words(x, y), theory)
    rhs = compose(tensor_morphisms(twist(x, theory), twist(y, theory)),
                  braiding(x, y, theory),
                  braiding(y, x, theory))
    return lhs == rhs


def _duality_twist_holds(x: Word, theory: Theory) -> bool:
    idx = identity(x, theory)
    b, d = birth(x, theory), death(x, theory)
    tw_id = tensor_morphisms(twist(x, theory), idx)
    id_tw = tensor_morphisms(idx, twist(x, theory))
    c = braiding(x, x, theory)
    return (compose(b, tw_id, c) == b
            and compose(tw_id, c, d) == d
            and b.then(tw_id) == b.then(id_tw))


def axiom_suite(theory: Theory, seed: int = 0, naturality_samples: int = 100) -> AxiomReport:
    """Run every structural identity on exhaustive simple tuples plus
    seeded random words and morphisms; record the first failure per check."""
    rng = random.Random(seed)
    simple_words = [(ONE,), (A,)]
    checks: list[AxiomCheck] = []

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
    run("pentagon", quads, lambda *a: _pentagon_holds(*a, theory))

    triples = [(x, y, z) for x in simple_words for y in simple_words
               for z in simple_words]
    rand_triples = [tuple(_random_word(rng, 3) for _ in range(3)) for _ in range(6)]
    run("hexagon-1", triples + rand_triples, lambda *a: _hexagon1_holds(*a, theory))
    run("hexagon-2", triples + rand_triples, lambda *a: _hexagon2_holds(*a, theory))

    pairs = [(x, y) for x in simple_words for y in simple_words]
    rand_pairs = [tuple(_random_word(rng, 3) for _ in range(2)) for _ in range(6)]
    run("triangle", pairs + rand_pairs,
        lambda x, y: associator(x, UNIT, y, theory)
        == identity(tensor_words(x, y), theory))

    run("twist-braiding", pairs + rand_pairs,
        lambda x, y: _twist_braiding_holds(x, y, theory))

    zig_words = simple_words + [(ONE, A)] + [_random_word(rng, 3) for _ in range(4)]
    run("duality-zigzag", [(w,) for w in zig_words], lambda w: _zigzags_hold(w, theory))
    run("duality-twist", [(w,) for w in zig_words], lambda w: _duality_twist_holds(w, theory))

    def naturality_case():
        x1, x2 = _random_word(rng, 3), _random_word(rng, 3)
        y1, y2 = _random_word(rng, 3), _random_word(rng, 3)
        f = _random_morphism(rng, x1, y1, theory)
        g = _random_morphism(rng, x2, y2, theory)
        lhs = tensor_morphisms(f, g).then(braiding(y1, y2, theory))
        rhs = braiding(x1, x2, theory).then(tensor_morphisms(g, f))
        return lhs == rhs

    run("braiding-naturality", [() for _ in range(naturality_samples)],
        lambda: naturality_case())

    def assoc_naturality_case():
        x1, x2, x3, y1, y2, y3 = (_random_word(rng, 2) for _ in range(6))
        f = _random_morphism(rng, x1, y1, theory)
        g = _random_morphism(rng, x2, y2, theory)
        h = _random_morphism(rng, x3, y3, theory)
        lhs = tensor_morphisms(tensor_morphisms(f, g), h).then(
            associator(y1, y2, y3, theory))
        rhs = associator(x1, x2, x3, theory).then(
            tensor_morphisms(f, tensor_morphisms(g, h)))
        return lhs == rhs

    run("associator-naturality", [() for _ in range(20)],
        lambda: assoc_naturality_case())

    run("associator-involution", triples + rand_triples,
        lambda x, y, z: associator(x, y, z, theory).then(
            associator(x, y, z, theory, inverse=True))
        == identity(tensor_words(tensor_words(x, y), z), theory))

    def twist_unit_case():
        # The 1-block of (theta_X (x) id_X) . c_{X,X} is the summand-swap
        # permutation with unit values; on words without repeated letters
        # (all the braiding example pins down) that is the identity matrix.
        x = _random_word(rng, 3)
        m = tensor_morphisms(twist(x, theory), identity(x, theory)).then(
            braiding(x, x, theory))
        word, labels = expand_pair(x, x)
        pos = {lab: p for p, lab in enumerate(labels)}
        ones = [p for p, letter in enumerate(word) if letter is ONE]
        for p in ones:
            i, j, t = labels[p]
            for q in ones:
                expect = theory.one if q == pos[(j, i, t)] else theory.zero
                if m.entry(p, q) != expect:
                    return False
        return True

    run("twist-unit-matrix", [() for _ in range(10)], lambda: twist_unit_case())

    return AxiomReport(seed=seed, checks=checks)
