"""Layered (Morse-word) link diagrams and their colored evaluation.

A diagram is an ordered list of events read left to right, each acting on
the current stack of strands (indexed 0 from the top): ``cup`` inserts two
adjacent strands, ``cap`` closes two adjacent strands, ``xp``/``xn`` are
the positive/negative crossing of two adjacent strands, and ``tp``/``tn``
are positive/negative kinks on one strand.

Evaluation colors every component by a simple object (a coloring is a
word, one letter per component), deletes the 1-colored components, and
applies the strand events (cups, caps and crossings) one by one to a
vector.  A kink is the ribbon twist, a scalar on a simple object, so it
is no event of the evaluation: the net kinks k of an A-colored component
scale it once by beta^(-2 k).
Between events the open A-colored strands always form the right-comb
word A (x) (A (x) ...), whose basis vectors are fusion paths: words of
labels, each the letter 1 or A of one tail of the strands (the
golden-chain basis), so a path and a table window are spelled with the
category's own letters.
By naturality of the associator, an event on two adjacent strands reads
and rewrites at most three adjacent labels, so each sign pair (eps, beta)
has one small table per strand event kind, read off one morphism
composed in the category of its unit theory, x = y = z = 1, from the
single-letter cup, cap, braiding and associator (the F R F^-1 form for
a crossing).  No invariant depends on the free parameters x, y and z,
so every theory of those signs sweeps with the same tables.  No lifted
morphism is built, and the work per event is proportional to the
vector's nonzero entries.

The sweep holds the entry of each fusion path P gauged by s^-a(P),
where a(P) counts its A labels (see ``_table``).  The gauge absorbs s,
which enters only through cups, caps and the F block, so every table
value lies in Z[z5], for z = z20^2.  A vector entry is four integers,
the coordinates at z20^0, 2, 4, 6, and an event is integer
multiply-adds, the Z[z5] product with z^4 folded as z^3 - z^2 + z - 1.
The sweep starts and ends at the path 1, whose gauge is 1, so the gauge
changes no result.

One sweep over the events serves a single coloring (``evaluate``, one
``Scalar`` at the end) and the weighted sum over all colorings
(``colored_sum``, the Z[z5] surgery sum of ``invariants.tr_manifold``,
weighted by the framings).  Its state maps the set of open A-colored
components to a vector: a component branches into its colors at its
first cup and is merged away after its last cap, so the sum costs
2^(most components open at once) times the vector work, a peak bounded
by ``MAX_OPEN_COMPONENTS``.

A diagram sums its crossings and kinks once, when it is built, into
per-component writhes and twists (net kinks) and per-pair linking
numbers, and refuses more than ``MAX_COMPONENTS`` components.
A diagram carries its framings: ``framing i=f`` lines declare them, and
the rest default to the self-writhes.  Surgery does not need them drawn:
``with_framings`` declares them, and ``colored_sum`` reads them as
powers of theta in the components' weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from . import category as cat
from .category import A, ONE
from .scalars import Scalar, Theory, _Coords, _times


# An event's kind is its token in a link file.
CUP, CAP = "cup", "cap"
CROSS_POS, CROSS_NEG = "xp", "xn"
TWIST_POS, TWIST_NEG = "tp", "tn"
KINDS = (CUP, CAP, CROSS_POS, CROSS_NEG, TWIST_POS, TWIST_NEG)


@dataclass(frozen=True)
class LinkEvent:
    kind: str       # one of ``KINDS``
    pos: int

    def __str__(self) -> str:
        return f"{self.kind} {self.pos}"


class LinkParseError(ValueError):
    """Malformed link file (bad token or line structure)."""


class LinkValidationError(ValueError):
    """Structurally impossible event sequence (strand bookkeeping fails)."""


def _derived():
    """A ``LinkDiagram`` field that ``_analyze`` sets from the events."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LinkDiagram:
    """A validated event list with its declared framings, and the
    component data derived from them when the diagram is built."""

    events: tuple[LinkEvent, ...]
    declared_framings: tuple[tuple[int, int], ...] = ()
    n_components: int = _derived()
    event_components: tuple[tuple[int, ...], ...] = _derived()
    # per component, its signed self-crossings plus its kinks, and its
    # net signed kinks alone
    writhes: tuple[int, ...] = _derived()
    twists: tuple[int, ...] = _derived()
    # ((i, j), lk) for each pair i < j of nonzero linking number, in the
    # order of the pairs' first crossings
    linking: tuple[tuple[tuple[int, int], int], ...] = _derived()
    # per component, the index of its first event (a cup) and of its last
    # (a cap); it holds strands in between
    first_events: tuple[int, ...] = _derived()
    last_events: tuple[int, ...] = _derived()

    def __post_init__(self):
        for name, value in _analyze(self.events).items():
            object.__setattr__(self, name, value)
        if self.n_components > MAX_COMPONENTS:
            raise LinkValidationError(f"link of {self.n_components} components "
                                      f"exceeds {MAX_COMPONENTS}")
        seen: set[int] = set()
        for comp, _ in self.declared_framings:
            if not 0 <= comp < self.n_components:
                raise LinkValidationError(f"framing for unknown component {comp}")
            if comp in seen:
                raise LinkValidationError(f"repeated framing for component {comp}")
            seen.add(comp)

    def peak_open(self) -> int:
        """The most components that hold strands at once."""
        peak = now = 0
        for idx, comps in enumerate(self.event_components):
            if self.first_events[comps[0]] == idx:
                now += 1
                peak = max(peak, now)
            elif self.last_events[comps[0]] == idx:
                now -= 1
        return peak

    def self_writhes(self) -> list[int]:
        """w(l_i): signed self-crossing count (kinks included), per component."""
        return list(self.writhes)

    def total_writhe(self) -> int:
        return sum(self.writhes)

    def with_events(self, events: Iterable[LinkEvent]) -> LinkDiagram:
        return LinkDiagram(tuple(events), self.declared_framings)

    def with_framings(self, framings: Sequence[int]) -> LinkDiagram:
        """The same events with framing ``framings[i]`` declared for each
        component i."""
        if len(framings) != self.n_components:
            raise LinkValidationError(f"expected {self.n_components} framings, "
                                      f"got {len(framings)}")
        return LinkDiagram(self.events, tuple(enumerate(framings)))

    def framings(self) -> list[int]:
        """Declared framings, defaulting to the self-writhes."""
        out = self.self_writhes()
        for comp, f in self.declared_framings:
            out[comp] = f
        return out

    def render(self) -> str:
        lines = ["link"]
        lines.extend(str(ev) for ev in self.events)
        lines.append("end")
        lines.extend(f"framing {c}={f}" for c, f in self.declared_framings)
        return "\n".join(lines) + "\n"


def _analyze(events: Sequence[LinkEvent]) -> dict:
    """Check the strand bookkeeping of the events and trace strands
    through them; orient each component along its traversal from the
    first-created segment and sum each crossing's sign, nominal times
    both strand directions, into a writhe or a linking number.  Returns
    the derived fields of ``LinkDiagram`` by name."""
    slots: list[int] = []                 # segment id per strand slot
    capped: list[int] = []                # segment -> the segment it meets at its cap
    kinked: list[int] = []                # segment -> its net signed kinks
    raw_crossings: list[tuple[int, int, int]] = []   # (seg_a, seg_b, nominal)
    event_segments: list[tuple[int, ...]] = []

    for idx, ev in enumerate(events):
        n = len(slots)
        if ev.pos < 0:
            raise LinkValidationError(f"event {idx}: negative position")
        if ev.kind == CUP:
            if ev.pos > n:
                raise LinkValidationError(f"event {idx}: cup at {ev.pos} with {n} strands")
            s1, s2 = len(capped), len(capped) + 1
            capped += (-1, -1)
            kinked += (0, 0)
            slots[ev.pos:ev.pos] = [s1, s2]
            event_segments.append((s1, s2))
        elif ev.kind == CAP:
            if ev.pos + 1 >= n:
                raise LinkValidationError(f"event {idx}: cap at {ev.pos} with {n} strands")
            s1, s2 = slots[ev.pos], slots[ev.pos + 1]
            capped[s1], capped[s2] = s2, s1
            del slots[ev.pos:ev.pos + 2]
            event_segments.append((s1, s2))
        elif ev.kind in (CROSS_POS, CROSS_NEG):
            if ev.pos + 1 >= n:
                raise LinkValidationError(f"event {idx}: crossing at {ev.pos} with {n} strands")
            s1, s2 = slots[ev.pos], slots[ev.pos + 1]
            nominal = 1 if ev.kind == CROSS_POS else -1
            raw_crossings.append((s1, s2, nominal))
            slots[ev.pos], slots[ev.pos + 1] = s2, s1
            event_segments.append((s1, s2))
        elif ev.kind in (TWIST_POS, TWIST_NEG):
            if ev.pos >= n:
                raise LinkValidationError(f"event {idx}: kink at {ev.pos} with {n} strands")
            s = slots[ev.pos]
            kinked[s] += 1 if ev.kind == TWIST_POS else -1
            event_segments.append((s,))
        else:
            raise LinkValidationError(f"event {idx}: unknown kind {ev.kind!r}")
    if slots:
        raise LinkValidationError(f"diagram leaves {len(slots)} strands open")

    # one traversal per component, from its lowest segment, so components
    # are numbered by first appearance; direction +1 = rightward, and each
    # cup/cap junction reverses it.  A cup makes its two legs the segments
    # 2m and 2m + 1, so the partner of s at its cup is s ^ 1.
    component = [-1] * len(capped)
    direction = [0] * len(capped)
    twists: list[int] = []
    for s0 in range(len(capped)):
        if component[s0] >= 0:
            continue
        s, d, c = s0, 1, len(twists)
        twists.append(0)
        while component[s] < 0:
            component[s] = c
            direction[s] = d
            twists[c] += kinked[s]
            s = capped[s] if d > 0 else s ^ 1
            d = -d
    n_components = len(twists)

    writhes = list(twists)
    signed: dict[tuple[int, int], int] = {}   # crossings between a pair i < j
    for a, b, nominal in raw_crossings:
        i, j = component[a], component[b]
        sign = nominal * direction[a] * direction[b]
        if i == j:
            writhes[i] += sign
        else:
            pair = (i, j) if i < j else (j, i)
            signed[pair] = signed.get(pair, 0) + sign
    # two closed curves in the plane cross an even number of times
    linking = tuple((pair, count // 2) for pair, count in signed.items() if count)

    event_components = tuple(tuple(component[s] for s in segs)
                             for segs in event_segments)
    first: list[int | None] = [None] * n_components
    last = [0] * n_components
    for idx, comps in enumerate(event_components):
        for c in comps:
            if first[c] is None:
                first[c] = idx
            last[c] = idx
    return {"n_components": n_components, "event_components": event_components,
            "writhes": tuple(writhes), "twists": tuple(twists), "linking": linking,
            "first_events": tuple(first), "last_events": tuple(last)}


# ---------------------------------------------------------------------------
# parsing


def parse_link(text: str) -> LinkDiagram:
    """Parse the line-oriented link format (see the file-format docs)."""
    events: list[LinkEvent] = []
    framings: list[tuple[int, int]] = []
    state = "expect_header"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if state == "expect_header":
            if tokens != ["link"]:
                raise LinkParseError(f"line {lineno}: expected 'link' header")
            state = "events"
        elif state == "events":
            if tokens == ["end"]:
                state = "trailer"
                continue
            if len(tokens) != 2 or tokens[0] not in KINDS:
                raise LinkParseError(f"line {lineno}: expected '<event> <pos>' or 'end'")
            try:
                pos = cat.parse_int(tokens[1])
            except ValueError:
                raise LinkParseError(f"line {lineno}: bad position {tokens[1]!r}") from None
            events.append(LinkEvent(tokens[0], pos))
        else:
            if tokens[0] != "framing" or len(tokens) != 2 or "=" not in tokens[1]:
                raise LinkParseError(f"line {lineno}: expected 'framing i=f' after end")
            comp_str, _, f_str = tokens[1].partition("=")
            try:
                framings.append((cat.parse_int(comp_str), cat.parse_int(f_str)))
            except ValueError:
                raise LinkParseError(f"line {lineno}: bad framing {tokens[1]!r}") from None
    if state == "expect_header":
        raise LinkParseError("empty link file")
    if state == "events":
        raise LinkParseError("missing 'end'")
    return LinkDiagram(tuple(events), tuple(framings))


# ---------------------------------------------------------------------------
# colorings and evaluation

Coloring = cat.Word


def all_a_coloring(diagram: LinkDiagram) -> Coloring:
    return A * diagram.n_components


_Vector = dict[str, _Coords]
# window -> (new window, coordinates) per value
_Table = dict[str, tuple[tuple[str, _Coords], ...]]
_UNIT: _Coords = (1, 0, 0, 0)

# The most components a link may have, read or drawn.  Its exact value
# carries coordinates of about k/5 digits: a fresh ``fibcat hopf 5000``
# takes 0.30-0.47 s and ``hopf 5000 --framings`` (seeded, in -9..9)
# 0.49-0.62 s, and 20,000 disjoint unknots pass the 4,300 digits Python
# renders (x86_64, Python 3.11).
MAX_COMPONENTS = 5000

# The most components a colored sum lets hold strands at once; its keys
# number up to 2 to this power (as ``spines.MAX_ELIMINATION_WIDTH``).
MAX_OPEN_COMPONENTS = 16

# Labels of the path window a strand event reads: one for a cup, the three
# around the pair for a cap or a crossing.  A kink moves no strand; it is a
# scalar on its component (see ``_sweep``) and has no table.
_WINDOW = {CUP: 1, CAP: 3, CROSS_POS: 3, CROSS_NEG: 3}


def _windows(word: cat.Word, c: str) -> list[str]:
    """The label window of each letter of a step's dom or cod, its labels
    being letters: c for the one-letter word c, and t m c for a letter t
    of A (x) (A (x) c), m the letter of A (x) c it comes from: that word
    lists the summands of A (x) m for each m in turn."""
    if len(word) == 1:
        return [c]
    return [t + m + c for m in cat.tensor_words(A, c) for t in cat.tensor_words(A, m)]


@lru_cache(maxsize=16)
def _table(kind: str, epsilon_sign: str, beta_sign: str) -> _Table:
    """Window of labels -> (new window, value) entries for a cup, cap or
    crossing of the theories with the signs ``epsilon_sign`` and
    ``beta_sign``, read off one morphism composed in the category of
    their unit theory, x = y = z = 1.  The key is the two signs, never a
    theory, whose x and y would change the values read here: no
    invariant depends on x, y or z, so every theory of those signs
    sweeps with these tables.

    For each letter c after the pair, the step is the local cup, cap or
    crossing on the two A's, tensored with id_c and conjugated by the
    associator: associator^-1 ; (local (x) id_c) ; associator, from and
    to A (x) (A (x) c).  A cup starts at the one letter c, so it has no
    leading associator, and a cap ends there, so it has no trailing one.

    The sweep gauges the entry of each fusion path P by s^-a(P), a(P) its
    number of A labels, so a value v for window -> new is kept as
    v s^(a(window) - a(new)).  That lies in Z[z5]: its four integer
    coordinates.  A value the gauge leaves outside Z[z5] is a
    ``ValueError`` here.
    """
    theory = Theory(epsilon_sign, beta_sign)
    if kind == CUP:
        local = cat.birth(A, theory)
    elif kind == CAP:
        local = cat.death(A, theory)
    else:
        local = cat.braiding(A, A, theory, inverse=kind == CROSS_NEG)
    table: dict[str, list] = {}
    for c in (ONE, A):
        step = cat.tensor_morphisms(local, cat.identity(c, theory))
        if kind != CUP:
            step = cat.associator(A, A, c, theory, inverse=True).then(step)
        if kind != CAP:
            step = step.then(cat.associator(A, A, c, theory))
        dom, cod = _windows(step.dom, c), _windows(step.cod, c)
        for (p, q), v in step.arrows.items():
            window, new = dom[p], cod[q]
            v = v * theory.s ** window.count(A) * theory.s_inv ** new.count(A)
            table.setdefault(window, []).append((new, v.z5_coordinates()))
    return {window: tuple(entries) for window, entries in table.items()}


def _apply(vector: _Vector, kind: str, pos: int, table: _Table) -> _Vector:
    """One event of the given kind at ``pos``, with its kind's table,
    applied to a vector of fusion paths (see ``evaluate``): integer Z[z5]
    products, and the vector without its zero entries."""
    hi = pos + _WINDOW[kind]
    out: dict[str, list[int]] = {}
    for path, (a0, a1, a2, a3) in vector.items():
        head, tail = path[:pos], path[hi:]
        for window, (b0, b1, b2, b3) in table.get(path[pos:hi], ()):
            # the product of ``_times``, inlined
            c4 = a1 * b3 + a2 * b2 + a3 * b1
            r0 = a0 * b0 - c4 - a2 * b3 - a3 * b2
            r1 = a0 * b1 + a1 * b0 + c4 - a3 * b3
            r2 = a0 * b2 + a1 * b1 + a2 * b0 - c4
            r3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c4
            key = head + window + tail
            old = out.get(key)
            if old is None:
                out[key] = [r0, r1, r2, r3]
            else:
                old[0] += r0
                old[1] += r1
                old[2] += r2
                old[3] += r3
    return {path: (r0, r1, r2, r3) for path, (r0, r1, r2, r3) in out.items()
            if r0 or r1 or r2 or r3}


def _merge(states: dict[int, _Vector], key: int, vector: _Vector) -> None:
    """Add ``vector`` to the vector of ``key`` in ``states``."""
    old = states.get(key)
    if old is None:
        states[key] = vector
        return
    total = dict(old)
    for path, (b0, b1, b2, b3) in vector.items():
        a0, a1, a2, a3 = total.get(path, (0, 0, 0, 0))
        total[path] = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
    total = {path: coords for path, coords in total.items() if any(coords)}
    if total:
        states[key] = total
    else:
        del states[key]


def _weighted(table: _Table, weight: _Coords) -> _Table:
    """The table with every value times weight, a value of Z[z5]."""
    if weight == _UNIT:      # every cup of an untwisted A component of ``evaluate``
        return table
    return {window: tuple((new, _times(coords, weight)) for new, coords in entries)
            for window, entries in table.items()}


# The colors a component may take when it opens: None for 1, or the
# weight of A, its coordinates in Z[z5].  A 1-colored component is
# deleted, so its branch keeps the state as it is and carries no weight.
_Branches = Sequence[_Coords | None]


def _sweep(diagram: LinkDiagram, branches: Sequence[_Branches],
           theory: Theory) -> _Coords:
    """The sum over the colorings that ``branches`` allows of the weighted
    colored evaluations of the strands, in one pass over the events.

    The state maps a key, the bit set of the open A-colored components,
    to a vector over fusion paths of their strands.  At a component's
    first event (a cup) every key branches into the component's colors,
    each branch scaled by its weight.  An event acts on the keys that
    hold all the components it touches, at its position among their
    strands.  After a component's last event (a cap) it is dropped from
    the keys, and the vectors whose keys become equal are added; they are
    over the same paths, since only open A-colored components hold
    strands.

    A kink moves no strand, so it is no event of the sweep: the callers
    fold each A-colored component's twist into its weight.
    """
    first, last = diagram.first_events, diagram.last_events
    tables = {kind: _table(kind, theory.epsilon_sign, theory.beta_sign)
              for kind in {ev.kind for ev in diagram.events} if kind in _WINDOW}
    # the cup table times each A weight, made once per sweep
    cups: dict[_Coords, _Table] = {}
    states: dict[int, _Vector] = {0: {ONE: _UNIT}}
    slots: list[int] = []    # the bit of each open strand's component
    for idx, (ev, comps) in enumerate(zip(diagram.events, diagram.event_components)):
        kind, pos = ev.kind, ev.pos
        table = tables.get(kind)
        if table is None:     # a kink, in its component's weight
            continue
        c = comps[0]
        bits = 1 << c | 1 << comps[-1]
        left = slots[:pos]      # the component bit of each strand left of pos
        out: dict[int, _Vector] = {}
        if first[c] == idx:
            # the cup opens c: every key branches into c's colors, and the
            # weight of an A branch scales the cup's table, not each vector
            for weight in branches[c]:
                if weight is None:
                    out.update(states)
                    continue
                cup = cups.get(weight)
                if cup is None:
                    cup = cups[weight] = _weighted(table, weight)
                for key, vector in states.items():
                    at = sum(1 for b in left if key & b)
                    vector = _apply(vector, kind, at, cup)
                    if vector:
                        out[key | bits] = vector
        else:
            for key, vector in states.items():
                if key & bits == bits:
                    at = sum(1 for b in left if key & b)
                    vector = _apply(vector, kind, at, table)
                    if not vector:
                        continue
                if last[c] == idx:
                    _merge(out, key & ~bits, vector)
                else:
                    out[key] = vector
        states = out
        if kind == CUP:
            slots[pos:pos] = [bits, bits]
        elif kind == CAP:
            del slots[pos:pos + 2]
        else:
            slots[pos], slots[pos + 1] = slots[pos + 1], slots[pos]
    return states.get(0, {}).get(ONE, (0, 0, 0, 0))


def evaluate(diagram: LinkDiagram, coloring: Coloring, theory: Theory) -> Scalar:
    """The colored diagram evaluated to a scalar.

    1-colored components are removed.  The events of the others act on
    a vector over fusion paths: the basis vectors of the right-comb word
    of the n open strands, each the string of labels l_0 .. l_n, where
    l_k is the charge (1 or A) of the strands k .. n-1, so l_n = 1, and
    l_0 = 1 on every path reached from the unit.  An event on strands
    pos, pos + 1 reads only the labels l_pos .. l_pos+2 (just l_pos for a
    cup) and rewrites them from the table of the (eps, beta) unit theory,
    which every x, y, z of those signs shares: a cup inserts two labels,
    a cap removes two and a crossing rewrites the middle one.  A kink is
    the ribbon twist, a scalar: the net kinks k of an A-colored
    component are its weight theta^k, which scales its cup.  A path
    holds its entry gauged so that it lies in Z[z5] (see ``_table``):
    four integers, its coordinates at z20^0, 2, 4, 6, and an event does
    integer multiply-adds on them, so the work per event is proportional
    to the vector's nonzero entries.  This is the sweep of
    ``colored_sum`` with every component's color fixed, so it keeps one
    key.
    """
    if len(coloring) != diagram.n_components:
        raise ValueError(f"coloring names {len(coloring)} of "
                         f"{diagram.n_components} components")
    for i, color in enumerate(coloring):
        if color not in (ONE, A):
            raise ValueError(f"coloring letter {i} is {color!r}, not {ONE!r} or {A!r}")
    thetas = theory.theta_coordinates
    total = _sweep(diagram, [(thetas[twist % 5],) if color == A else (None,)
                             for color, twist in zip(coloring, diagram.twists)], theory)
    return Scalar.from_z5(theory.field, total)


def colored_sum(diagram: LinkDiagram, theory: Theory) -> _Coords:
    """The coordinates in Z[z5] of the surgery sum: the sum over all 2^k
    colorings of ``evaluate``, each times eps theta^(f_i - w_i) for each
    A-colored component i of framing f_i and self-writhe w_i.  With the
    twist by its t_i net kinks that is eps theta^(f_i - s_i), for its s_i
    signed self-crossings, so drawn kinks cancel: one of five values,
    formed on integers.

    One sweep over the events: each component branches into its two
    colors when it opens and is merged away when it closes, so the cost
    is 2^(most components open at once) times the vector work.  That
    peak is bounded by ``MAX_OPEN_COMPONENTS`` and checked before any
    branch.
    """
    peak = diagram.peak_open()
    if peak > MAX_OPEN_COMPONENTS:
        raise ValueError(f"{peak} components open at once exceeds "
                         f"{MAX_OPEN_COMPONENTS}")
    epsilon = theory.epsilon.z5_coordinates()
    weights = [_times(epsilon, theta) for theta in theory.theta_coordinates]
    return _sweep(diagram, [(None, weights[(f - w + t) % 5]) for f, w, t
                            in zip(diagram.framings(), diagram.writhes, diagram.twists)],
                  theory)


def evaluate_all_a(diagram: LinkDiagram, theory: Theory) -> Scalar:
    return evaluate(diagram, all_a_coloring(diagram), theory)


# ---------------------------------------------------------------------------
# builders


def build_hopf_chain(k: int) -> LinkDiagram:
    """The k-component chain of consecutively linked circles, every
    self-writhe 0; ``with_framings`` declares its framings.  A chain of
    more than ``MAX_COMPONENTS`` circles is refused."""
    if k < 1:
        raise ValueError("chain needs at least one component")
    if k > MAX_COMPONENTS:
        raise ValueError(f"chain of {k} components exceeds {MAX_COMPONENTS}")
    events = [LinkEvent(CUP, 0)]
    for _ in range(1, k):
        events += [LinkEvent(CUP, 1), LinkEvent(CROSS_POS, 0),
                   LinkEvent(CROSS_POS, 2), LinkEvent(CAP, 1)]
    events.append(LinkEvent(CAP, 0))
    return LinkDiagram(tuple(events))
