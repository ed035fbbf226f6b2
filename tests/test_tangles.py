from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (PARAMETER_THEORIES, drawn_framings, expansion_labels, plat3,
                      random_morse_word, read_fixture, theory_id)
from fibcat import ALL_THEORIES, Scalar, Theory
from fibcat import category as cat
from fibcat import tangles
from fibcat.category import A, ONE
from fibcat.invariants import tr_link, tr_manifold
from fibcat.tangles import (LinkDiagram, LinkEvent, LinkParseError,
                            LinkValidationError, _apply, _table,
                            build_hopf_chain, evaluate, evaluate_all_a, parse_link)


@pytest.fixture
def th():
    return Theory()


# -- parsing -------------------------------------------------------------------

def test_parse_unknot(unknot):
    assert unknot.n_components == 1
    assert (unknot.writhes, unknot.linking) == ((0,), ())


def test_parse_trefoil(trefoil):
    assert trefoil.n_components == 1
    assert (trefoil.writhes, trefoil.linking) == ((3,), ())


def test_parse_two_component_unlink():
    d = parse_link("link\ncup 0\ncup 1\ncap 1\ncap 0\nend\n")
    assert d.n_components == 2
    assert (d.writhes, d.linking) == ((0, 0), ())


def test_parse_comments_and_framings():
    d = parse_link("# heading\nlink\ncup 0  # inline\ncap 0\nend\nframing 0=-3\n")
    assert d.declared_framings == ((0, -3),)
    assert d.framings() == [-3]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LinkParseError, match="line 1"):
        parse_link("knot\nend\n")
    with pytest.raises(LinkParseError, match="line 2"):
        parse_link("link\nzap 0\nend\n")
    with pytest.raises(LinkParseError, match="line 2"):
        parse_link("link\ncup x\nend\n")
    with pytest.raises(LinkParseError, match="missing 'end'"):
        parse_link("link\ncup 0\ncap 0\n")
    with pytest.raises(LinkParseError):
        parse_link("")


def test_validation_errors():
    with pytest.raises(LinkValidationError):
        parse_link("link\ncap 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 1\ncap 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 0\nxp 1\ncap 0\nend\n")
    with pytest.raises(LinkValidationError, match="open"):
        parse_link("link\ncup 0\nend\n")
    with pytest.raises(LinkValidationError):
        parse_link("link\ncup 0\ntp 2\ncap 0\nend\n")


def test_component_bound():
    k = tangles.MAX_COMPONENTS + 1
    with pytest.raises(LinkValidationError,
                       match=f"^link of {k} components exceeds {tangles.MAX_COMPONENTS}$"):
        parse_link("link\n" + "cup 0\ncap 0\n" * k + "end\n")


def test_framing_validation_when_built():
    with pytest.raises(LinkValidationError, match="^framing for unknown component 5$"):
        parse_link("link\ncup 0\ncap 0\nend\nframing 5=1\n")
    with pytest.raises(LinkValidationError, match="^framing for unknown component -1$"):
        LinkDiagram((LinkEvent("cup", 0), LinkEvent("cap", 0)), ((-1, 2),))
    with pytest.raises(LinkValidationError, match="^repeated framing for component 0$"):
        parse_link("link\ncup 0\ncap 0\nend\nframing 0=1\nframing 0=3\n")


def test_with_framings(trefoil):
    framed = trefoil.with_framings((1,))
    assert framed.events == trefoil.events
    assert framed.declared_framings == ((0, 1),)
    assert framed.framings() == [1]
    assert framed.self_writhes() == trefoil.self_writhes()
    with pytest.raises(LinkValidationError, match="^expected 1 framings, got 2$"):
        trefoil.with_framings((1, 2))


# -- writhe and linking data ------------------------------------------------------

def test_trefoil_writhe(trefoil):
    assert trefoil.self_writhes() == [3]
    assert trefoil.total_writhe() == 3


def test_mirror_trefoil_writhe(trefoil):
    mirror = trefoil.with_events(
        LinkEvent("xn", e.pos)
        if e.kind == "xp" else e
        for e in trefoil.events)
    assert mirror.self_writhes() == [-3]
    assert mirror.total_writhe() == -3


def test_hopf_pair_counts():
    h2 = build_hopf_chain(2)
    assert h2.self_writhes() == [0, 0]
    assert h2.linking in ((((0, 1), 1),), (((0, 1), -1),))


def test_kinks_count_in_writhe():
    d = parse_link("link\ncup 0\ntp 0\ntp 1\ntn 0\ncap 0\nend\n")
    assert d.self_writhes() == [1]
    assert d.twists == (1,)


def _traced(events) -> tuple[int, list, list]:
    """The components of a diagram with their crossings and kinks, traced
    without ``_analyze``: a union-find over the cups, where each cup's
    upper leg runs along the cup's orientation and its lower leg against
    it, and a cap joins two legs running opposite ways.  A component is
    oriented so that its first cup's upper leg runs right, and components
    are numbered by their first cups.  Returns the component count, each
    crossing as ((component, direction), (component, direction), nominal
    sign) and each kink as (component, sign)."""
    parent: list[int] = []
    parity: list[int] = []      # a cup's orientation against its parent's

    def find(n: int) -> tuple[int, int]:
        p = 1
        while parent[n] != n:
            p *= parity[n]
            n = parent[n]
        return n, p

    slots: list[tuple[int, int]] = []    # (cup, direction against the cup)
    crossings, kinks = [], []
    for ev in events:
        pos = ev.pos
        if ev.kind == "cup":
            cup = len(parent)
            parent.append(cup)
            parity.append(1)
            slots[pos:pos] = [(cup, 1), (cup, -1)]
        elif ev.kind == "cap":
            (a, da), (b, db) = slots[pos:pos + 2]
            (ra, pa), (rb, pb) = find(a), find(b)
            if ra != rb:
                parent[ra], parity[ra] = rb, -da * pa * db * pb
            else:
                assert da * pa == -db * pb
            del slots[pos:pos + 2]
        elif ev.kind in ("xp", "xn"):
            nominal = 1 if ev.kind == "xp" else -1
            crossings.append((slots[pos], slots[pos + 1], nominal))
            slots[pos], slots[pos + 1] = slots[pos + 1], slots[pos]
        else:
            kinks.append((slots[pos][0], 1 if ev.kind == "tp" else -1))
    number: dict[int, int] = {}     # root -> component
    flip: dict[int, int] = {}       # root -> its first cup's parity
    orient: list[tuple[int, int]] = []   # per cup: (component, orientation)
    for cup in range(len(parent)):
        root, p = find(cup)
        if root not in number:
            number[root], flip[root] = len(number), p
        orient.append((number[root], p * flip[root]))

    def strand(cup: int, d: int) -> tuple[int, int]:
        return orient[cup][0], d * orient[cup][1]

    return (len(number),
            [(strand(*a), strand(*b), nominal) for a, b, nominal in crossings],
            [(orient[cup][0], sign) for cup, sign in kinks])


def test_self_writhe_orientation_independent(trefoil):
    # flipping the orientation of any subset of components flips both
    # strand directions at a self-crossing, so its sign and hence w(l_i)
    # cannot change, while the signed crossings between two components
    # change by the product of their flips; and two closed components
    # cross an even number of times
    rng = random.Random("orientation")
    diagrams = [trefoil, drawn_framings(build_hopf_chain(3), (1, -2, 0))]
    for width in (2, 4, 6, 8):
        for _ in range(5):
            plain = _random_plat(rng, width, [rng.randrange(width - 1) for _ in range(width)])
            diagrams.append(_with_kinks(rng, plain, rng.randint(1, 6)))
    for diagram in diagrams:
        k, crossings, kinks = _traced(diagram.events)
        assert k == diagram.n_components <= 4
        for flips in itertools.product((1, -1), repeat=k):
            w = [0] * k
            for comp, sign in kinks:
                w[comp] += sign
            signed: dict[tuple[int, int], int] = {}
            for (i, di), (j, dj), nominal in crossings:
                sign = nominal * di * flips[i] * dj * flips[j]
                if i == j:
                    w[i] += sign
                else:
                    pair = (min(i, j), max(i, j))
                    signed[pair] = signed.get(pair, 0) + sign
            assert w == diagram.self_writhes(), diagram.render()
            assert all(count % 2 == 0 for count in signed.values())
            assert {pair: count // 2 for pair, count in signed.items() if count} \
                == {(i, j): flips[i] * flips[j] * lk for (i, j), lk in diagram.linking}


# -- evaluation --------------------------------------------------------------------

def test_unknot_evaluates_to_eps(unknot, any_theory):
    assert evaluate_all_a(unknot, any_theory) == any_theory.epsilon


def test_trefoil_evaluation(trefoil, any_theory):
    assert evaluate_all_a(trefoil, any_theory) == 1 - 2 * any_theory.beta


def test_all_one_coloring_gives_one(trefoil, th):
    assert evaluate(trefoil, ONE, th) == th.one


def test_hopf_chain_evaluations(th):
    for k in range(1, 6):
        value = evaluate_all_a(build_hopf_chain(k), th)
        expected = ((-th.one) ** (k - 1)) * th.epsilon ** (2 - k)
        assert value == expected


def test_partial_coloring_drops_components(th):
    h2 = build_hopf_chain(2)
    assert evaluate(h2, "A1", th) == th.epsilon
    assert evaluate(h2, "1A", th) == th.epsilon
    assert evaluate(h2, "11", th) == th.one
    # deleting the middle circle of a 3-chain splits the ends apart
    h3 = build_hopf_chain(3)
    assert evaluate(h3, "A1A", th) == th.epsilon ** 2
    assert evaluate(h3, "1A1", th) == th.epsilon


def test_coloring_length_checked(th):
    with pytest.raises(ValueError):
        evaluate(build_hopf_chain(2), A, th)


def test_coloring_letters_checked(th):
    # a coloring is a word over 1 and A; any other letter is refused by
    # its index, not read as 1
    hopf = parse_link(read_fixture("links/hopf.txt"))
    for coloring, index, letter in (("AX", 1, "X"), ("aa", 0, "a"), ("1 ", 1, " ")):
        with pytest.raises(ValueError, match=f"^coloring letter {index} is {letter!r}, "):
            evaluate(hopf, coloring, th)


def test_positive_kink_scales_by_inverse_beta_squared(th, unknot, trefoil):
    for diagram in (unknot, trefoil):
        events = list(diagram.events)
        kinked = diagram.with_events(events[:1] + [LinkEvent("tp", 0)]
                                     + events[1:])
        assert evaluate_all_a(kinked, th) \
            == evaluate_all_a(diagram, th) * th.beta_inv ** 2
        unkinked = diagram.with_events(events[:1] + [LinkEvent("tn", 0)]
                                       + events[1:])
        assert evaluate_all_a(unkinked, th) \
            == evaluate_all_a(diagram, th) * th.beta ** 2


def test_reidemeister_two_three_invariance(any_theory):
    pairs = [
        (plat3([2, -2]), plat3([])),
        (plat3([-1, 1]), plat3([])),
        (plat3([1, 2, 1]), plat3([2, 1, 2])),
        (plat3([1, 2, 1, 2, -2]), plat3([2, 1, 2])),
    ]
    for left, right in pairs:
        assert evaluate_all_a(left, any_theory) == evaluate_all_a(right, any_theory)


def test_evaluation_parameter_independence(trefoil):
    values = {
        evaluate_all_a(trefoil, Theory(x=x, y=y))
        for x in (1, 2, Fraction(3, 2))
        for y in (1, 2, Fraction(5, 3))
    }
    assert len(values) == 1


def _random_plat(rng: random.Random, width: int, positions) -> LinkDiagram:
    """Cups at random positions up to ``width`` strands, a crossing of random
    sign at each of ``positions``, then caps at random positions."""
    events = [LinkEvent("cup", rng.randint(0, n)) for n in range(0, width, 2)]
    events += [LinkEvent(rng.choice(("xp", "xn")), p)
               for p in positions]
    events += [LinkEvent("cap", rng.randrange(n - 1)) for n in range(width, 0, -2)]
    return LinkDiagram(tuple(events))


def _kauffman_states(events) -> Counter:
    """Kauffman-bracket states counted by (E-smoothings at xp, at xn, loops).

    A crossing is smoothed either as the identity (both strands pass
    straight through) or as E (a cap followed by a cup at its position).
    Arcs are joined by union-find; the loops are the classes left."""
    crossings = [i for i, ev in enumerate(events)
                 if ev.kind in ("xp", "xn")]
    states: Counter = Counter()
    for choice in itertools.product((False, True), repeat=len(crossings)):
        smoothed = {i for i, e in zip(crossings, choice) if e}
        parent: list[int] = []

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        slots: list[int] = []
        for i, ev in enumerate(events):
            if ev.kind == "cap" or i in smoothed:
                parent[find(slots[ev.pos])] = find(slots[ev.pos + 1])
                del slots[ev.pos:ev.pos + 2]
            if ev.kind == "cup" or i in smoothed:
                parent.append(len(parent))
                slots[ev.pos:ev.pos] = [parent[-1]] * 2
        loops = sum(1 for i in range(len(parent)) if parent[i] == i)
        at_xp = sum(1 for i in smoothed if events[i].kind == "xp")
        states[(at_xp, len(smoothed) - at_xp, loops)] += 1
    return states


def _kauffman_bracket(events, theory: Theory):
    """xp = b id + (b^2 - b)/e E, xn the same with 1/b, loop value e."""
    b, b_inv, e = theory.beta, theory.beta_inv, theory.epsilon
    n_xp = sum(1 for ev in events if ev.kind == "xp")
    n_xn = sum(1 for ev in events if ev.kind == "xn")
    total = theory.zero
    for (i, j, loops), count in _kauffman_states(events).items():
        total = total + (count * b ** (n_xp - i) * ((b * b - b) / e) ** i
                         * b_inv ** (n_xn - j) * ((b_inv * b_inv - b_inv) / e) ** j
                         * e ** loops)
    return total


def test_evaluation_matches_kauffman_bracket(any_theory):
    # cups, crossings and caps at every position of plats up to width 8,
    # so every event is lifted past up to six strands
    rng = random.Random(21)
    for width in (2, 4, 6, 8):
        for _ in range(2):
            positions = list(range(width - 1))
            positions += [rng.randrange(width - 1) for _ in range(width // 2)]
            rng.shuffle(positions)
            diagram = _random_plat(rng, width, positions)
            assert evaluate_all_a(diagram, any_theory) \
                == _kauffman_bracket(diagram.events, any_theory), diagram.render()


def _with_kinks(rng: random.Random, diagram: LinkDiagram, count: int) -> LinkDiagram:
    """The diagram with ``count`` kinks of random sign inserted between
    random events, each on a random strand open at that point."""
    open_strands, n = [], 0
    for ev in diagram.events:
        open_strands.append(n)
        n += {"cup": 2, "cap": -2}.get(ev.kind, 0)
    gaps = [i for i, width in enumerate(open_strands) if width]
    at = Counter(rng.choice(gaps) for _ in range(count))
    events = []
    for i, ev in enumerate(diagram.events):
        events += [LinkEvent(rng.choice(("tp", "tn")),
                             rng.randrange(open_strands[i])) for _ in range(at[i])]
        events.append(ev)
    return diagram.with_events(events)


def test_kinks_are_reidemeister_one_scalars(any_theory):
    # seeded plats with random kinks inserted: a colored evaluation
    # changes by beta^(-2 k) for the net kinks k of each A-colored
    # component, while tr_link and tr_manifold under the same declared
    # framings do not change
    rng = random.Random(f"kinks-{any_theory.epsilon_sign}-{any_theory.beta_sign}")
    b_inv2 = any_theory.beta_inv ** 2
    for width in (2, 4, 6, 8):
        for _ in range(2):
            plain = _random_plat(rng, width, [rng.randrange(width - 1) for _ in range(width)])
            kinked = _with_kinks(rng, plain, rng.randint(1, 12))
            net = [w - v for w, v in zip(kinked.self_writhes(), plain.self_writhes())]
            for _ in range(3):
                coloring = "".join(rng.choice((ONE, A)) for _ in range(plain.n_components))
                expected = evaluate(plain, coloring, any_theory)
                for color, k in zip(coloring, net):
                    if color == A:
                        expected = expected * b_inv2 ** k
                assert evaluate(kinked, coloring, any_theory) == expected, kinked.render()
            assert tr_link(kinked, any_theory) == tr_link(plain, any_theory)
            framings = [rng.randint(-3, 3) for _ in range(plain.n_components)]
            assert tr_manifold(kinked.with_framings(framings), any_theory) \
                == tr_manifold(plain.with_framings(framings), any_theory)


def test_kinks_apply_no_event(monkeypatch, th):
    # a kink is a scalar on its component: a hundred of them add no call
    # of the per-event update
    calls = Counter()
    apply = tangles._apply

    def counting(*args):
        calls["apply"] += 1
        return apply(*args)

    def apply_calls(diagram: LinkDiagram) -> int:
        calls.clear()
        evaluate_all_a(diagram, th)
        tangles.colored_sum(diagram, th)
        return calls["apply"]

    monkeypatch.setattr(tangles, "_apply", counting)
    rng = random.Random(5)
    plain = _random_plat(rng, 6, [rng.randrange(5) for _ in range(8)])
    kinked = _with_kinks(rng, plain, 100)
    assert sum(ev.kind in ("tp", "tn")
               for ev in kinked.events) == 100
    assert apply_calls(plain) > 0
    assert apply_calls(kinked) == apply_calls(plain)


# -- the integer sweep against the Scalar oracle ------------------------------------

def _ungauged(path: str, new: str, coords, theory: Theory) -> Scalar:
    """The scalar, in ``theory``, of a sweep value for ``path`` -> ``new``
    of its (eps, beta) unit theory's table: the value with ``theory``'s
    gauge of each fusion path P by x^(p/2) / (s^a y^(n/2)) undone, a its
    A labels, p its adjacent pairs of A labels and n its strands."""
    def pairs(labels: str) -> int:
        return sum(1 for a, b in zip(labels, labels[1:]) if a == b == A)

    gauge = theory.rational(theory.x ** ((pairs(path) - pairs(new)) // 2)
                            * theory.y ** ((len(new) - len(path)) // 2))
    return Scalar.from_z5(theory.field, coords) * gauge \
        * theory.s ** (new.count(A) - path.count(A))


def _scalar_table(kind: str, theory: Theory) -> dict:
    """The event's table, the (eps, beta) unit theory's, with each value
    an ungauged scalar of ``theory``: window -> (new window, value)
    pairs."""
    return {window: tuple((new, _ungauged(window, new, coords, theory))
                          for new, coords in entries)
            for window, entries in _table(kind, theory.epsilon_sign,
                                          theory.beta_sign).items()}


def _oracle_apply(vector: dict, kind: str, pos: int, table: dict) -> dict:
    """One event applied to a vector of fusion paths with scalar entries,
    product by product."""
    hi = pos + tangles._WINDOW[kind]
    out: dict = {}
    for path, u in vector.items():
        head, tail = path[:pos], path[hi:]
        for window, v in table.get(path[pos:hi], ()):
            key = head + window + tail
            term = u * v
            out[key] = out[key] + term if key in out else term
    return {key: v for key, v in out.items() if v}


def _oracle_evaluate(diagram: LinkDiagram, coloring: str, theory: Theory) -> Scalar:
    """The colored evaluation in scalars: the events of the A-colored
    components, one at a time, and beta^(-2 k) per A-colored component of
    twist k."""
    tables = {kind: _scalar_table(kind, theory) for kind in tangles._WINDOW}
    vector = {ONE: theory.one}
    slots: list[int] = []     # the component of each open strand
    for ev, comps in zip(diagram.events, diagram.event_components):
        if ev.kind not in tables:
            continue
        if all(coloring[c] == A for c in comps):
            at = sum(coloring[c] == A for c in slots[:ev.pos])
            vector = _oracle_apply(vector, ev.kind, at, tables[ev.kind])
        if ev.kind == "cup":
            slots[ev.pos:ev.pos] = [comps[0]] * 2
        elif ev.kind == "cap":
            del slots[ev.pos:ev.pos + 2]
        else:
            slots[ev.pos], slots[ev.pos + 1] = slots[ev.pos + 1], slots[ev.pos]
    value = vector.get(ONE, theory.zero)
    for color, twist in zip(coloring, diagram.twists):
        if color == A:
            value = value * theory.theta(twist)
    return value


def _oracle_colored_sum(diagram: LinkDiagram, weights, theory: Theory) -> Scalar:
    total = theory.zero
    for coloring in itertools.product((ONE, A), repeat=diagram.n_components):
        value = _oracle_evaluate(diagram, "".join(coloring), theory)
        for color, w in zip(coloring, weights):
            if color == A:
                value = value * w
        total = total + value
    return total


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_sweep_matches_scalar_oracle(theory):
    # seeded Morse words and plats with kinks, up to 10 strands:
    # evaluate at three colorings, and colored_sum under seeded framings f,
    # whose weights are eps theta^(f - w) for the self-writhes w, against
    # the product-by-product scalar sweep
    rng = random.Random(f"oracle-{theory_id(theory)}")
    diagrams = [_with_kinks(rng, _random_plat(rng, width, [rng.randrange(width - 1)
                                                           for _ in range(2 * width)]), 5)
                for width in (8, 10)]
    while len(diagrams) < 12:
        diagram = LinkDiagram(tuple(random_morse_word(rng, width=10)))
        if diagram.n_components <= 5:
            diagrams.append(diagram)
    for diagram in diagrams:
        k = diagram.n_components
        for coloring in {A * k, ONE * k, "".join(rng.choice((ONE, A)) for _ in range(k))}:
            assert evaluate(diagram, coloring, theory) \
                == _oracle_evaluate(diagram, coloring, theory), diagram.render()
        framings = [rng.randint(-3, 3) for _ in range(k)]
        weights = [theory.epsilon * theory.theta(f - w)
                   for f, w in zip(framings, diagram.writhes)]
        assert Scalar.from_z5(theory.field,
                              tangles.colored_sum(diagram.with_framings(framings), theory)) \
            == _oracle_colored_sum(diagram, weights, theory), diagram.render()


def test_evaluate_multiplies_no_scalar_per_entry(monkeypatch, th):
    # a warm evaluation of a width-12 plat makes the same number of
    # Scalar products at 60 crossings as at 240: none per vector entry
    calls = Counter()
    mul = Scalar.__mul__

    def counting(self, other):
        calls["mul"] += 1
        return mul(self, other)

    diagrams = [_random_plat(random.Random(12), 12,
                             [random.Random(n).randrange(11) for _ in range(n)])
                for n in (60, 240)]
    for diagram in diagrams:
        evaluate_all_a(diagram, th)
    monkeypatch.setattr(Scalar, "__mul__", counting)
    counts = []
    for diagram in diagrams:
        calls.clear()
        evaluate_all_a(diagram, th)
        counts.append(calls["mul"])
    assert counts[0] == counts[1], counts


# -- the local tables against the lifted morphisms ------------------------------------


def _comb(n: int):
    """The right-comb word of n A-strands and the fusion path of each of
    its letters: the letter's type, then the path of the letter of the
    inner comb it comes from; the unit word's one letter is the path 1."""
    word, paths = cat.UNIT, ["1"]
    for _ in range(n):
        new, labels = expansion_labels(A, word)
        paths = [new[p] + paths[j] for p, (_, j, _) in enumerate(labels)]
        word = new
    return word, paths


def _local_step(kind: str, r: int, theory: Theory) -> cat.Morphism:
    """The event's morphism at position 0 of r strands, composed in the
    category: the local cup, cap or crossing tensored with the identity
    on the strands after it and conjugated by the one associator."""
    if kind == "cup":
        local, rest = cat.birth(A, theory), r
    elif kind == "cap":
        local, rest = cat.death(A, theory), r - 2
    else:
        local = cat.braiding(A, A, theory, inverse=kind == "xn")
        rest = r - 2
    if not rest:
        return local
    rest_word = _comb(rest)[0]
    m = cat.tensor_morphisms(local, cat.identity(rest_word, theory))
    if kind != "cup":
        m = cat.associator(A, A, rest_word, theory, inverse=True).then(m)
    if kind != "cap":
        m = m.then(cat.associator(A, A, rest_word, theory))
    return m


def _seeded_theories(unit: Theory) -> list[Theory]:
    """The theories of ``unit``'s signs at nine seeded x, y, z, signed
    fractions with numerators and denominators up to 12."""
    rng = random.Random(f"tables-{theory_id(unit)}")
    return [Theory(unit.epsilon_sign, unit.beta_sign,
                   *(Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
                     for _ in range(3)))
            for _ in range(9)]


@pytest.mark.parametrize("theory", PARAMETER_THEORIES + tuple(
    t for unit in ALL_THEORIES for t in _seeded_theories(unit)), ids=theory_id)
def test_tables_match_lifted_steps(theory):
    # every strand event kind at every position of n <= 8 strands: the
    # table update of each basis path, read from the (eps, beta) unit
    # theory's table and ungauged with this theory's x, y and s, equals
    # its row of this theory's materialized step, id_A^pos (x) (the local
    # step), built with tensor_morphisms; so the tables' independence of
    # x, y and z is checked, not assumed
    id_a = cat.identity(A, theory)
    grow = {"cup": 2, "cap": -2}
    cases = 0
    for kind in ("cup", "cap", "xp", "xn"):
        table = _table(kind, theory.epsilon_sign, theory.beta_sign)
        for r in range(0 if kind == "cup" else 2, 9):
            m = _local_step(kind, r, theory)
            for pos in range(9 - r):
                n = r + pos
                dom_paths = _comb(n)[1]
                cod_paths = _comb(n + grow.get(kind, 0))[1]
                rows: dict = {}
                for (p, q), v in m.arrows.items():
                    rows.setdefault(p, {})[cod_paths[q]] = v
                for p, path in enumerate(dom_paths):
                    entries = _apply({path: (1, 0, 0, 0)}, kind, pos, table)
                    got = {q: _ungauged(path, q, e, theory) for q, e in entries.items()}
                    assert got == rows.get(p, {}), (kind, n, pos, path)
                    cases += 1
                m = cat.tensor_morphisms(id_a, m)
    assert cases == 2111


@pytest.mark.parametrize("unit", ALL_THEORIES, ids=theory_id)
def test_tables_are_independent_of_parameters(unit):
    # the gauge absorbs x and y, and z enters no table, so a theory's
    # sweep reads the tables of its signs' unit theory: once the unit
    # theory has evaluated, the sweep at ten x, y, z of the same signs,
    # negative and non-integer ones among them, builds no table, and each
    # value equals the scalar oracle's, ungauged with that theory's x, y, s
    rng = random.Random(f"independent-{theory_id(unit)}")
    diagrams = [_with_kinks(rng, _random_plat(rng, 8, [rng.randrange(7) for _ in range(16)]), 3),
                parse_link(read_fixture("links/trefoil_framed1.txt"))]
    for diagram in diagrams:
        assert evaluate_all_a(diagram, unit) \
            == _oracle_evaluate(diagram, A * diagram.n_components, unit)
    misses = _table.cache_info().misses
    for theory in (Theory(unit.epsilon_sign, unit.beta_sign, Fraction(2, 3), Fraction(-5, 7), 3),
                   *_seeded_theories(unit)):
        for diagram in diagrams:
            assert evaluate_all_a(diagram, theory) \
                == _oracle_evaluate(diagram, A * diagram.n_components, theory), theory
    assert _table.cache_info().misses == misses


# -- builders -----------------------------------------------------------------------

def test_framed_chain_evaluation_closed_form(th):
    e, b = th.epsilon, th.beta
    for k in (1, 2, 3):
        for framings in itertools.product((-2, 0, 1, 3), repeat=k):
            value = evaluate_all_a(drawn_framings(build_hopf_chain(k), framings), th)
            expected = (((-th.one) ** (k - 1)) * e ** (2 - k)
                        / b ** (2 * sum(framings)))
            assert value == expected, (k, framings)


def test_build_hopf_chain_unknot():
    h1 = build_hopf_chain(1)
    assert h1.n_components == 1
    assert (h1.writhes, h1.linking) == ((0,), ())


def test_build_hopf_chain_framings(trefoil):
    # the chain is bare, and the tests' drawing puts each framing on its
    # component as kinks, on any diagram
    bare = build_hopf_chain(3)
    assert (bare.self_writhes(), bare.twists, bare.declared_framings) == ([0, 0, 0], (0, 0, 0), ())
    d = drawn_framings(bare, (0, 0, 0))
    assert d.self_writhes() == [0, 0, 0]
    d2 = drawn_framings(bare, (2, -1, 3))
    assert d2.self_writhes() == [2, -1, 3]
    assert d2.framings() == [2, -1, 3]
    assert d2.linking == bare.linking
    knot = drawn_framings(trefoil, (1,))
    assert (knot.self_writhes(), knot.twists, knot.framings()) == ([1], (-2,), [1])


def test_build_hopf_chain_validation():
    with pytest.raises(ValueError):
        build_hopf_chain(0)
    with pytest.raises(ValueError):
        drawn_framings(build_hopf_chain(2), (1,))


def test_render_round_trip(trefoil):
    assert parse_link(trefoil.render()) == trefoil


def test_diagrams_built_from_tokens(unknot):
    # an event's kind is its link-file token: seeded diagrams built from
    # plain LinkEvent(token, pos) equal the parsed diagrams of their
    # renderings, with the same invariants in the four theories, and an
    # unknown kind is refused by its event and name
    assert LinkDiagram((LinkEvent("cup", 0), LinkEvent("cap", 0))) == unknot
    rng = random.Random("tokens")
    for _ in range(4):
        events = random_morse_word(rng, width=8)
        assert all(type(ev.kind) is str and ev.kind in tangles.KINDS for ev in events)
        diagram = LinkDiagram(tuple(events))
        parsed = parse_link(diagram.render())
        assert parsed == diagram
        for theory in ALL_THEORIES:
            assert tr_link(diagram, theory) == tr_link(parsed, theory)
            assert tr_manifold(diagram, theory) == tr_manifold(parsed, theory)
    with pytest.raises(LinkValidationError, match="^event 1: unknown kind 'foo'$"):
        LinkDiagram((LinkEvent("cup", 0), LinkEvent("foo", 0), LinkEvent("cap", 0)))


def test_render_round_trip_random_words():
    # seeded random words, each with framings declared for a random subset
    # of its components in random order
    rng = random.Random("render-round-trip")
    for _ in range(60):
        diagram = LinkDiagram(tuple(random_morse_word(rng)))
        comps = rng.sample(range(diagram.n_components), rng.randint(0, diagram.n_components))
        diagram = LinkDiagram(diagram.events, tuple((c, rng.randint(-5, 5)) for c in comps))
        parsed = parse_link(diagram.render())
        assert parsed == diagram
        assert parsed.n_components == diagram.n_components
        assert parsed.self_writhes() == diagram.self_writhes()
        assert parsed.framings() == diagram.framings()
