"""Layered (Morse-word) link diagrams and their colored evaluation.

A diagram is an ordered list of events read left to right, each acting on
the current stack of strands (indexed 0 from the top): ``cup`` inserts two
adjacent strands, ``cap`` closes two adjacent strands, ``xp``/``xn`` are
the positive/negative crossing of two adjacent strands, and ``tp``/``tn``
are positive/negative kinks on one strand.

Evaluation colors every component by a simple object, deletes the
1-colored components, and composes one morphism per event with
``Morphism.then``, with the boundary bracket tree normalized to the right
comb between events, so the re-bracketing isomorphisms are generated
mechanically.

Writhes are read off a diagram with ``LinkDiagram.self_writhes`` and
``total_writhe``; there is no separate ``writhe`` function.
``build_hopf_chain`` can draw framings as kinks, but surgery does not
need them drawn: ``FramedLink`` in ``invariants`` keeps a diagram as it is
and applies its framings as a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from . import category as cat
from .category import A, SimpleObject, Morphism, Tree
from .scalars import Scalar, Theory


class EventKind(Enum):
    CUP = "cup"
    CAP = "cap"
    CROSS_POS = "xp"
    CROSS_NEG = "xn"
    TWIST_POS = "tp"
    TWIST_NEG = "tn"


_KIND_BY_TOKEN = {k.value: k for k in EventKind}


@dataclass(frozen=True)
class LinkEvent:
    kind: EventKind
    pos: int

    def __str__(self) -> str:
        return f"{self.kind.value} {self.pos}"


class LinkParseError(ValueError):
    """Malformed link file (bad token or line structure)."""


class LinkValidationError(ValueError):
    """Structurally impossible event sequence (strand bookkeeping fails)."""


@dataclass(frozen=True)
class Crossing:
    """One crossing with the data needed for all sign bookkeeping."""
    comp_a: int
    comp_b: int
    dir_a: int
    dir_b: int
    nominal: int

    @property
    def sign(self) -> int:
        return self.nominal * self.dir_a * self.dir_b


@dataclass(frozen=True)
class _Analysis:
    n_components: int
    event_components: tuple[tuple[int, ...], ...]
    crossings: tuple[Crossing, ...]
    kinks: tuple[tuple[int, int], ...]  # (component, sign)

    def self_writhes(self) -> list[int]:
        w = [0] * self.n_components
        for c in self.crossings:
            if c.comp_a == c.comp_b:
                w[c.comp_a] += c.sign
        for comp, sign in self.kinks:
            w[comp] += sign
        return w

    def pair_counts(self) -> dict[tuple[int, int], int]:
        """Signed crossing count per unordered component pair (i < j)."""
        out: dict[tuple[int, int], int] = {}
        for c in self.crossings:
            if c.comp_a != c.comp_b:
                key = (min(c.comp_a, c.comp_b), max(c.comp_a, c.comp_b))
                out[key] = out.get(key, 0) + c.sign
        return out


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


@dataclass(frozen=True)
class LinkDiagram:
    """A validated event list plus the derived component data."""

    events: tuple[LinkEvent, ...]
    declared_framings: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _validate_events(self.events)

    @cached_property
    def _analysis(self) -> _Analysis:
        return _analyze(self.events)

    @property
    def n_components(self) -> int:
        return self._analysis.n_components

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        return self._analysis.crossings

    @property
    def kinks(self) -> tuple[tuple[int, int], ...]:
        """(component, sign) per kink event."""
        return self._analysis.kinks

    def self_writhes(self) -> list[int]:
        """w(l_i): signed self-crossing count (kinks included), per component."""
        return self._analysis.self_writhes()

    def total_writhe(self) -> int:
        return sum(self.self_writhes())

    def pair_counts(self) -> dict[tuple[int, int], int]:
        return self._analysis.pair_counts()

    def with_events(self, events: Iterable[LinkEvent]) -> LinkDiagram:
        return LinkDiagram(tuple(events), self.declared_framings)

    def framings(self) -> list[int]:
        """Declared framings, defaulting to the self-writhes."""
        out = self.self_writhes()
        for comp, f in self.declared_framings:
            if not 0 <= comp < self.n_components:
                raise LinkValidationError(f"framing for unknown component {comp}")
            out[comp] = f
        return out

    def render(self) -> str:
        lines = ["link"]
        lines.extend(str(ev) for ev in self.events)
        lines.append("end")
        lines.extend(f"framing {c}={f}" for c, f in self.declared_framings)
        return "\n".join(lines) + "\n"


def _validate_events(events: Sequence[LinkEvent]) -> None:
    n = 0
    for idx, ev in enumerate(events):
        if ev.pos < 0:
            raise LinkValidationError(f"event {idx}: negative position")
        if ev.kind is EventKind.CUP:
            if ev.pos > n:
                raise LinkValidationError(f"event {idx}: cup at {ev.pos} with {n} strands")
            n += 2
        elif ev.kind is EventKind.CAP:
            if ev.pos + 1 >= n:
                raise LinkValidationError(f"event {idx}: cap at {ev.pos} with {n} strands")
            n -= 2
        elif ev.kind in (EventKind.CROSS_POS, EventKind.CROSS_NEG):
            if ev.pos + 1 >= n:
                raise LinkValidationError(f"event {idx}: crossing at {ev.pos} with {n} strands")
        else:
            if ev.pos >= n:
                raise LinkValidationError(f"event {idx}: kink at {ev.pos} with {n} strands")
    if n != 0:
        raise LinkValidationError(f"diagram leaves {n} strands open")


def _analyze(events: Sequence[LinkEvent]) -> _Analysis:
    """Trace strands through the events; orient each component along its
    traversal from the first-created segment and derive crossing signs."""
    uf = _UnionFind()
    slots: list[int] = []                 # segment id per strand slot
    cup_legs: dict[int, tuple[int, int]] = {}
    cap_ends: dict[int, tuple[int, int]] = {}
    seg_left: dict[int, int] = {}         # segment -> cup event index
    seg_right: dict[int, int] = {}        # segment -> cap event index
    raw_crossings: list[tuple[int, int, int]] = []   # (seg_a, seg_b, nominal)
    raw_kinks: list[tuple[int, int]] = []            # (seg, sign)
    event_segments: list[tuple[int, ...]] = []

    for idx, ev in enumerate(events):
        if ev.kind is EventKind.CUP:
            s1, s2 = uf.make(), uf.make()
            uf.union(s1, s2)
            cup_legs[idx] = (s1, s2)
            seg_left[s1] = idx
            seg_left[s2] = idx
            slots[ev.pos:ev.pos] = [s1, s2]
            event_segments.append((s1, s2))
        elif ev.kind is EventKind.CAP:
            s1, s2 = slots[ev.pos], slots[ev.pos + 1]
            uf.union(s1, s2)
            cap_ends[idx] = (s1, s2)
            seg_right[s1] = idx
            seg_right[s2] = idx
            del slots[ev.pos:ev.pos + 2]
            event_segments.append((s1, s2))
        elif ev.kind in (EventKind.CROSS_POS, EventKind.CROSS_NEG):
            s1, s2 = slots[ev.pos], slots[ev.pos + 1]
            nominal = 1 if ev.kind is EventKind.CROSS_POS else -1
            raw_crossings.append((s1, s2, nominal))
            slots[ev.pos], slots[ev.pos + 1] = s2, s1
            event_segments.append((s1, s2))
        else:
            s = slots[ev.pos]
            raw_kinks.append((s, 1 if ev.kind is EventKind.TWIST_POS else -1))
            event_segments.append((s,))

    n_segments = len(uf.parent)
    # components numbered by first appearance
    comp_of: dict[int, int] = {}
    component: list[int] = [0] * n_segments
    for s in range(n_segments):
        root = uf.find(s)
        if root not in comp_of:
            comp_of[root] = len(comp_of)
        component[s] = comp_of[root]
    n_components = len(comp_of)

    # traversal orientation: +1 = rightward; each cup/cap junction reverses
    direction = [0] * n_segments
    seen = set()
    for s0 in range(n_segments):
        if s0 in seen:
            continue
        s, d = s0, 1
        while s not in seen:
            seen.add(s)
            direction[s] = d
            if d > 0:
                j = seg_right[s]
                pair = cap_ends[j]
            else:
                j = seg_left[s]
                pair = cup_legs[j]
            s = pair[1] if pair[0] == s else pair[0]
            d = -d

    crossings = tuple(
        Crossing(component[a], component[b], direction[a], direction[b], nominal)
        for a, b, nominal in raw_crossings)
    kinks = tuple((component[s], sign) for s, sign in raw_kinks)
    event_components = tuple(tuple(component[s] for s in segs)
                             for segs in event_segments)
    return _Analysis(n_components, event_components, crossings, kinks)


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
            if len(tokens) != 2 or tokens[0] not in _KIND_BY_TOKEN:
                raise LinkParseError(f"line {lineno}: expected '<event> <pos>' or 'end'")
            try:
                pos = int(tokens[1])
            except ValueError:
                raise LinkParseError(f"line {lineno}: bad position {tokens[1]!r}") from None
            events.append(LinkEvent(_KIND_BY_TOKEN[tokens[0]], pos))
        else:
            if tokens[0] != "framing" or len(tokens) != 2 or "=" not in tokens[1]:
                raise LinkParseError(f"line {lineno}: expected 'framing i=f' after end")
            comp_str, _, f_str = tokens[1].partition("=")
            try:
                framings.append((int(comp_str), int(f_str)))
            except ValueError:
                raise LinkParseError(f"line {lineno}: bad framing {tokens[1]!r}") from None
    if state == "expect_header":
        raise LinkParseError("empty link file")
    if state == "events":
        raise LinkParseError("missing 'end'")
    return LinkDiagram(tuple(events), tuple(framings))


# ---------------------------------------------------------------------------
# colorings and evaluation

Coloring = Sequence[SimpleObject]


def all_a_coloring(diagram: LinkDiagram) -> tuple[SimpleObject, ...]:
    return (A,) * diagram.n_components


def count_a_colors(coloring: Coloring) -> int:
    return sum(1 for c in coloring if c is A)


def _filtered_events(diagram: LinkDiagram, coloring: Coloring) -> list[LinkEvent]:
    """Drop every event that touches a 1-colored component and re-index
    the positions of the surviving events."""
    kept = [c is A for c in coloring]
    out: list[LinkEvent] = []
    slots: list[int] = []
    for ev, comps in zip(diagram.events, diagram._analysis.event_components):
        visible = sum(1 for c in slots[:ev.pos] if kept[c])
        if ev.kind is EventKind.CUP:
            c = comps[0]
            if kept[c]:
                out.append(LinkEvent(ev.kind, visible))
            slots[ev.pos:ev.pos] = [c, c]
        elif ev.kind is EventKind.CAP:
            if kept[comps[0]]:
                out.append(LinkEvent(ev.kind, visible))
            del slots[ev.pos:ev.pos + 2]
        elif ev.kind in (EventKind.CROSS_POS, EventKind.CROSS_NEG):
            ca, cb = slots[ev.pos], slots[ev.pos + 1]
            if kept[ca] and kept[cb]:
                out.append(LinkEvent(ev.kind, visible))
            slots[ev.pos], slots[ev.pos + 1] = cb, ca
        else:
            if kept[slots[ev.pos]]:
                out.append(LinkEvent(ev.kind, visible))
    return out


def _comb_tree(n: int) -> Tree:
    return cat.right_comb([A] * n)


def _comb_with_block(n: int, pos: int, block: Tree) -> Tree:
    items: list[Tree] = [A] * pos + [block] + [A] * (n - pos - 2)
    return cat.right_comb(items)


def _layer(n: int, pos: int, local: Morphism, theory: Theory,
           dom_arity: int) -> Morphism:
    """id^(x)pos (x) local (x) id^(x)rest, folded along the right comb."""
    tail = n - pos - dom_arity
    m = local
    if tail:
        tail_id = cat.identity(cat.word_of_tree(_comb_tree(tail)), theory)
        m = cat.tensor_morphisms(m, tail_id)
    id_a = cat.identity((A,), theory)
    for _ in range(pos):
        m = cat.tensor_morphisms(id_a, m)
    return m


def _event_morphisms(events: Sequence[LinkEvent], theory: Theory):
    """Yield the per-event morphisms (re-bracketing included), so that the
    full composite is the evaluation of the diagram."""
    word_a = (A,)
    c_fwd = cat.braiding(word_a, word_a, theory)
    c_inv = cat.braiding(word_a, word_a, theory, inverse=True)
    b = cat.birth(word_a, theory)
    d = cat.death(word_a, theory)
    n = 0
    for ev in events:
        if ev.kind is EventKind.CUP:
            yield _layer(n, ev.pos, b, theory, 0)
            n += 2
            yield cat.reassociate(_comb_with_block(n, ev.pos, (A, A)),
                                  _comb_tree(n), theory)
        elif ev.kind is EventKind.CAP:
            yield cat.reassociate(_comb_tree(n),
                                  _comb_with_block(n, ev.pos, (A, A)), theory)
            yield _layer(n, ev.pos, d, theory, 2)
            n -= 2
        elif ev.kind in (EventKind.CROSS_POS, EventKind.CROSS_NEG):
            block = _comb_with_block(n, ev.pos, (A, A))
            local = c_fwd if ev.kind is EventKind.CROSS_POS else c_inv
            yield cat.reassociate(_comb_tree(n), block, theory)
            yield _layer(n, ev.pos, local, theory, 2)
            yield cat.reassociate(block, _comb_tree(n), theory)
        else:
            sign = 1 if ev.kind is EventKind.TWIST_POS else -1
            value = theory.beta_inv ** 2 if sign > 0 else theory.beta ** 2
            yield cat.scale_identity(cat.word_of_tree(_comb_tree(n)), value, theory)


def evaluate(diagram: LinkDiagram, coloring: Coloring, theory: Theory) -> Scalar:
    """The colored diagram evaluated to a scalar.

    1-colored components are removed first; the remaining strands are
    composed event by event against a right-comb boundary.
    """
    if len(coloring) != diagram.n_components:
        raise ValueError(f"coloring names {len(coloring)} of "
                         f"{diagram.n_components} components")
    m = cat.identity(cat.UNIT, theory)
    for step in _event_morphisms(_filtered_events(diagram, coloring), theory):
        m = m.then(step)
    return m.scalar()


def evaluate_all_a(diagram: LinkDiagram, theory: Theory) -> Scalar:
    return evaluate(diagram, all_a_coloring(diagram), theory)


# ---------------------------------------------------------------------------
# builders


def build_hopf_chain(k: int, framings: Sequence[int] | None = None) -> LinkDiagram:
    """The k-component chain of consecutively linked circles; when framings
    are given, kinks are inserted so component i has self-writhe f_i."""
    if k < 1:
        raise ValueError("chain needs at least one component")
    if framings is not None and len(framings) != k:
        raise ValueError(f"expected {k} framings, got {len(framings)}")

    def kinks(f: int, pos: int) -> list[LinkEvent]:
        kind = EventKind.TWIST_POS if f > 0 else EventKind.TWIST_NEG
        return [LinkEvent(kind, pos)] * abs(f)

    events: list[LinkEvent] = [LinkEvent(EventKind.CUP, 0)]
    if framings is not None:
        events += kinks(framings[0], 1)
    for i in range(1, k):
        events.append(LinkEvent(EventKind.CUP, 1))
        if framings is not None:
            events += kinks(framings[i], 1)
        events.append(LinkEvent(EventKind.CROSS_POS, 0))
        events.append(LinkEvent(EventKind.CROSS_POS, 2))
        events.append(LinkEvent(EventKind.CAP, 1))
    events.append(LinkEvent(EventKind.CAP, 0))
    declared = tuple((i, f) for i, f in enumerate(framings)) if framings is not None else ()
    return LinkDiagram(tuple(events), declared)
