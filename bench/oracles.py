"""Reference computations that check fibcat's outputs without using fibcat.

Everything here is written from the definitions, not from the program:

* exact arithmetic in the cyclotomic field Q(z20), with z20 = exp(i pi/10),
  as 8-tuples of rationals reduced by z^8 = z^6 - z^4 + z^2 - 1, inverses by
  the Galois norm;
* a parser for fibcat's exact rendering (terms q*z20^i*s^j);
* the Kauffman-bracket state sum for all-A link evaluations, with
  xp = b*id + (b^2 - b)/e * E, xn = b^-1*id + (b^-2 - b^-1)/e * E and loop
  value e (Kauffman, "State models and the Jones polynomial", Topology 26,
  1987), plus self-writhes from an independent strand trace;
* the surgery closed form for chains of framed circles, summed over subsets
  by a two-state transfer instead of the subset enumeration, with the
  signature of the chain matrix from perturbed pivots;
* the Turaev-Viro state sum of a spine in complex floats, from the closed
  6j-symbol and pairing values.
"""

from __future__ import annotations

import cmath
import re
from collections import Counter
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# Q(z20)

ZERO = (0,) * 8
ONE = (1,) + (0,) * 7
_UNITS_MOD_20 = (1, 3, 7, 9, 11, 13, 17, 19)


def _reduce(coeffs: list) -> tuple:
    """Fold degrees 14..8 down with z^d = z^(d-2) - z^(d-4) + z^(d-6) - z^(d-8)."""
    for d in range(len(coeffs) - 1, 7, -1):
        c = coeffs[d]
        if c:
            coeffs[d] = 0
            coeffs[d - 2] += c
            coeffs[d - 4] -= c
            coeffs[d - 6] += c
            coeffs[d - 8] -= c
    return tuple(coeffs[:8])


def z(k: int) -> tuple:
    """z20^k."""
    coeffs = [0] * 20
    coeffs[k % 20] = 1
    return _reduce(coeffs)


def add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def scale(a: tuple, q) -> tuple:
    return tuple(x * q for x in a)


def mul(a: tuple, b: tuple) -> tuple:
    prod = [0] * 15
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(prod)


def power(a: tuple, n: int) -> tuple:
    if n < 0:
        return power(inverse(a), -n)
    out = ONE
    for _ in range(n):
        out = mul(out, a)
    return out


def galois(a: tuple, u: int) -> tuple:
    """The automorphism z20 -> z20^u applied to a."""
    out = ZERO
    for i, c in enumerate(a):
        if c:
            out = add(out, scale(z(i * u), c))
    return out


def conj(a: tuple) -> tuple:
    """Complex conjugation, z20 -> z20^-1."""
    return galois(a, 19)


def inverse(a: tuple) -> tuple:
    """1/a = (product of the other Galois conjugates) / norm."""
    others = ONE
    for u in _UNITS_MOD_20[1:]:
        others = mul(others, galois(a, u))
    norm = mul(a, others)
    if any(norm[1:]) or not norm[0]:
        raise ArithmeticError(f"norm of {a} is not a nonzero rational")
    return scale(others, Fraction(1) / norm[0])


class Constants:
    """The named constants of one (eps sign, beta sign) choice, in Q(z20).

    eps is 2cos(pi/5) (positive) or 2cos(3pi/5) (negative); beta is the
    20th root of unity the choice fixes; D = 2cos(pi/10) or 2cos(3pi/10),
    so that D^2 = 2 + eps; Delta = 1 + eps^2 beta^2.
    """

    def __init__(self, eps_sign: str, beta_sign: str):
        positive = eps_sign == "pos"
        self.eps_sign, self.beta_sign = eps_sign, beta_sign
        self.eps = add(z(2), z(18)) if positive else add(z(6), z(14))
        k = (6 if positive else 2) * (1 if beta_sign == "plus" else -1)
        self.beta = z(k)
        self.beta_inv = z(-k)
        self.eps_inv = sub(self.eps, ONE)          # eps^2 = eps + 1
        self.d = add(z(1), z(19)) if positive else add(z(3), z(17))
        self.delta = add(ONE, mul(mul(self.eps, self.eps),
                                  mul(self.beta, self.beta)))
        self.eps_float = (1 + 5 ** 0.5) / 2 if positive else (1 - 5 ** 0.5) / 2


THEORIES = tuple((e, b) for e in ("pos", "neg") for b in ("plus", "minus"))

# ---------------------------------------------------------------------------
# fibcat's rendering of Q(z20, s)

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(?:z20\^(\d))?\*?(s)?$")


def parse_rendering(text: str) -> tuple[tuple, tuple]:
    """'1/5*z20^1 - 2*z20^3*s + s' -> (z-part, s-part), each an 8-tuple."""
    text = text.strip()
    parts = [[Fraction(0)] * 8, [Fraction(0)] * 8]
    if text == "0":
        return tuple(parts[0]), tuple(parts[1])
    tokens = text.split(" ")
    signs_and_bodies = [("-" if tokens[0].startswith("-") else "+",
                         tokens[0].lstrip("-"))]
    if len(tokens) % 2 != 1:
        raise ValueError(f"bad rendering {text!r}")
    for i in range(1, len(tokens), 2):
        if tokens[i] not in "+-":
            raise ValueError(f"bad rendering {text!r}")
        signs_and_bodies.append((tokens[i], tokens[i + 1]))
    for sign, body in signs_and_bodies:
        m = _TERM.match(body)
        if not m or not body:
            raise ValueError(f"bad term {body!r} in {text!r}")
        q = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        i = int(m.group(2)) if m.group(2) else 0
        j = 1 if m.group(3) else 0
        parts[j][i] += -q if sign == "-" else q
    return tuple(parts[0]), tuple(parts[1])


def exact_field(line: str, label: str) -> str:
    """The exact part of 'label: EXACT   ~ (re, im)'."""
    if not line.startswith(label + ":"):
        raise ValueError(f"expected {label!r} line, got {line!r}")
    return line[len(label) + 1:].split("   ~ ", 1)[0].strip()


def embed(zpart: tuple, spart: tuple, eps_float: float) -> complex:
    """Float image at z20 = exp(i pi/10), s = principal sqrt(eps)."""
    zeta = cmath.exp(1j * cmath.pi / 10)
    s = cmath.sqrt(complex(eps_float))
    return sum((complex(c) * zeta ** i for i, c in enumerate(zpart)), 0j) + \
        s * sum((complex(c) * zeta ** i for i, c in enumerate(spart)), 0j)


def as_cyclotomic(text: str) -> tuple:
    """A rendering that must lie in Q(z20) (no s terms), as an 8-tuple."""
    zpart, spart = parse_rendering(text)
    if any(spart):
        raise ValueError(f"{text!r} has an s-part")
    return zpart


def same(a: tuple, b: tuple) -> bool:
    return all(Fraction(x) == Fraction(y) for x, y in zip(a, b))

# ---------------------------------------------------------------------------
# link diagrams as lists of (token, position)


def strand_trace(events) -> dict:
    """Components, peak width and total self-writhe of a diagram.

    Every strand segment runs from a cup to a cap.  Walking a component,
    the direction flips at every cup and cap; a crossing's sign is its
    nominal sign (xp = +1) times the two strands' directions.
    """
    parent: list[int] = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    slots: list[int] = []
    cup_of: dict[int, int] = {}    # segment -> its partner at the left end
    cap_of: dict[int, int] = {}    # segment -> its partner at the right end
    crossings = []
    kinks = 0
    event_segments = []
    width = peak = 0
    for kind, pos in events:
        if kind == "cup":
            a, b = len(parent), len(parent) + 1
            parent += [a, a]
            cup_of[a], cup_of[b] = b, a
            slots[pos:pos] = [a, b]
            event_segments.append((a, b))
            width += 2
        elif kind == "cap":
            a, b = slots[pos], slots[pos + 1]
            parent[find(a)] = find(b)
            cap_of[a], cap_of[b] = b, a
            del slots[pos:pos + 2]
            event_segments.append((a, b))
            width -= 2
        elif kind in ("xp", "xn"):
            a, b = slots[pos], slots[pos + 1]
            crossings.append((a, b, 1 if kind == "xp" else -1))
            slots[pos], slots[pos + 1] = b, a
            event_segments.append((a, b))
        else:   # a kink on one strand counts +-1 toward its self-writhe
            kinks += 1 if kind == "tp" else -1
            event_segments.append((slots[pos],))
        peak = max(peak, width)
    roots: dict[int, int] = {}
    component = [roots.setdefault(find(s), len(roots)) for s in range(len(parent))]
    direction = [0] * len(parent)
    for start in range(len(parent)):
        seg, d = start, 1
        while not direction[seg]:
            direction[seg] = d
            seg = cap_of[seg] if d > 0 else cup_of[seg]
            d = -d
    writhe = kinks + sum(nominal * direction[a] * direction[b]
                         for a, b, nominal in crossings if component[a] == component[b])
    return {
        "components": len(roots),
        "writhe": writhe,
        "peak_width": peak,
        "event_components": [tuple(component[s] for s in segs)
                             for segs in event_segments],
    }


def kept_events(events, coloring: str) -> tuple[int, int]:
    """(events surviving the deletion of 1-colored components, peak width
    of what is left): the work an evaluation of that coloring faces."""
    comps = strand_trace(events)["event_components"]
    kept = width = peak = 0
    for (kind, _), cs in zip(events, comps):
        if all(coloring[c] == "A" for c in cs):
            kept += 1
            width += 2 if kind == "cup" else -2 if kind == "cap" else 0
            peak = max(peak, width)
    return kept, peak


def bracket(events, k: Constants) -> tuple:
    """All-A evaluation by the Kauffman state sum over both smoothings of
    every crossing; loops are counted as the caps that close them."""
    if any(kind not in ("cup", "cap", "xp", "xn") for kind, _ in events):
        raise ValueError("kinks are outside the oracle's diagram class")
    crossing_kinds = [kind for kind, _ in events if kind in ("xp", "xn")]
    hist: Counter = Counter()
    for state in range(1 << len(crossing_kinds)):
        parent: list[int] = []
        slots: list[int] = []
        loops = 0
        bit = 0
        smoothed = [0, 0]   # E-smoothings at xp, at xn
        for kind, pos in events:
            if kind == "cup":
                a = len(parent)
                parent.append(a)
                slots[pos:pos] = [a, a]
                continue
            if kind == "cap" or (state >> bit) & 1:
                a, b = slots[pos], slots[pos + 1]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    loops += 1
                else:
                    parent[a] = b
                if kind == "cap":
                    del slots[pos:pos + 2]
                else:
                    c = len(parent)
                    parent.append(c)
                    slots[pos] = slots[pos + 1] = c
            if kind != "cap":
                smoothed[kind == "xn"] += (state >> bit) & 1
                bit += 1
        hist[(smoothed[0], smoothed[1], loops)] += 1
    n_xp = crossing_kinds.count("xp")
    n_xn = crossing_kinds.count("xn")
    e_xp = mul(sub(mul(k.beta, k.beta), k.beta), k.eps_inv)
    e_xn = mul(sub(mul(k.beta_inv, k.beta_inv), k.beta_inv), k.eps_inv)
    total = ZERO
    for (sp, sn, loops), count in hist.items():
        term = mul(power(k.beta, n_xp - sp), power(e_xp, sp))
        term = mul(term, mul(power(k.beta_inv, n_xn - sn), power(e_xn, sn)))
        total = add(total, scale(mul(term, power(k.eps, loops)), count))
    return total


def tr_link(writhe: int, bracket_value: tuple, k: Constants) -> tuple:
    """beta^(2w) <D> / eps, from the total self-writhe w of a diagram and its
    bracket <D>."""
    return mul(mul(power(k.beta, 2 * writhe), bracket_value), k.eps_inv)

# ---------------------------------------------------------------------------
# surgery on chains of framed circles


def chain_signature(framings) -> int:
    """Signature of the tridiagonal matrix with the framings on the diagonal
    and 1 beside it.  Pivots of M + t and M - t for a tiny t: zero
    eigenvalues count +1 in one and -1 in the other, so the mean is exact."""
    t = Fraction(1, 2 ** 200)
    total = 0
    for shift in (t, -t):
        prev = None
        for f in framings:
            pivot = f + shift - (1 / prev if prev is not None else 0)
            total += 1 if pivot > 0 else -1
            prev = pivot
    return total // 2


def chain_subset_sum_direct(framings, k: Constants) -> tuple:
    """The subset sum of the closed form, term by term (small k only)."""
    n = len(framings)
    total = ZERO
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        term = ONE
        for i in subset:
            term = mul(term, mul(k.eps, power(k.beta, -2 * framings[i])))
        run = 0
        for i in range(n + 1):
            if i < n and mask >> i & 1:
                run += 1
                continue
            if run:   # a run of length L gives (-1)^(L-1) eps^(2-L)
                term = mul(term, scale(power(k.eps, 2 - run), (-1) ** (run - 1)))
            run = 0
        total = add(total, term)
    return total


def chain_subset_sum(framings, k: Constants) -> tuple:
    """Sum over subsets S of eps^|S| c(S) beta^(-2 sum_S f): a run of chosen
    circles contributes eps when it starts and -1/eps when it extends."""
    out, inside = ONE, ZERO
    for f in framings:
        w = mul(k.eps, power(k.beta, -2 * f))
        out, inside = add(out, inside), mul(w, sub(mul(k.eps, out),
                                                   mul(k.eps_inv, inside)))
    return add(out, inside)


def chain_tr(framings, k: Constants) -> tuple:
    """tr of the manifold from surgery on the chain with these framings:
    Delta^sigma D^(-sigma-n-1) times the subset sum."""
    n = len(framings)
    sigma = chain_signature(framings)
    norm = mul(power(k.delta, sigma), power(k.d, -sigma - n - 1))
    return mul(norm, chain_subset_sum(framings, k))


def minus_cf(p: int, q: int) -> list[int]:
    """p/q = f1 - 1/(f2 - 1/(...)), greedy ceilings (0 < q < p)."""
    out = []
    while q:
        f = -(-p // q)
        out.append(f)
        p, q = q, f * q - p
    return out


def cf_value(framings) -> Fraction:
    acc = None
    for f in reversed(framings):
        acc = Fraction(f) if acc is None else f - 1 / acc
    return acc

# ---------------------------------------------------------------------------
# the spine state sum, in floats


def _vertex_triples(c):
    x1, y1, z1, x2, y2, z2 = c
    return ((x1, y1, z1), (x1, y2, z2), (y1, z2, x2), (z1, x2, y2))


def spine_tv_float(n_components, edges, vertices, eps_sign, xyz=(1, 1, 1),
                   edge_factors=True) -> tuple[complex, float, int]:
    """(state sum, sum of |terms|, nonzero colorings) with the closed
    6j-symbols and pairings of the paper.  edge_factors=False drops the
    pairings and takes the 6j-symbols at unit parameters: the golden-ratio
    sum t."""
    eps = (1 + 5 ** 0.5) / 2 if eps_sign == "pos" else (1 - 5 ** 0.5) / 2
    s = cmath.sqrt(complex(eps))
    x, y, zz = (float(v) for v in xyz) if edge_factors else (1.0, 1.0, 1.0)
    yz = y * zz
    sixj = {
        (0, 0, 0, 0): 1.0,
        (0, 2, 2, 2): yz ** 3 / s,
        (2, 2, 2, 2): yz ** 4 / eps,
        (2, 2, 3, 3): x * yz ** 5 / eps,
        (3, 3, 3, 3): -(x ** 2) * yz ** 6 / eps ** 2,
    }
    pairing = {0: 1.0, 2: yz ** 2, 3: x * y ** 3 * zz ** 3}
    total, magnitude, nonzero = 0j, 0.0, 0
    for colors in product((0, 1), repeat=n_components):
        term = complex(eps ** sum(colors))
        for e in edges:
            n = sum(colors[c] for c in e)
            if n == 1:
                term = 0j
                break
            if edge_factors:
                term /= pairing[n]
        if term == 0:
            continue
        for v in vertices:
            counts = [sum(t) for t in _vertex_triples([colors[c] for c in v])]
            if 1 in counts:
                term = 0j
                break
            term *= sixj[tuple(sorted(counts))]
        if term != 0:
            nonzero += 1
            total += term
            magnitude += abs(term)
    return total, magnitude, nonzero


def nonzero_colorings(n_components, edges, vertices, edge_factors=True) -> int:
    return spine_tv_float(n_components, edges, vertices, "pos",
                          edge_factors=edge_factors)[2]

# ---------------------------------------------------------------------------
# checks of the oracles against hand-known values

UNKNOT = [("cup", 0), ("cap", 0)]
TREFOIL = [("cup", 0), ("cup", 2), ("xp", 1), ("xp", 1), ("xp", 1),
           ("cap", 0), ("cap", 0)]


def hopf_chain(n: int, crossing: str = "xp") -> list[tuple[str, int]]:
    events = [("cup", 0)]
    for _ in range(1, n):
        events += [("cup", 1), (crossing, 0), (crossing, 2), ("cap", 1)]
    return events + [("cap", 0)]


def self_test() -> list[str]:
    """Failures of the oracles on values known by hand; empty when sound."""
    failures = []
    for eps_sign, beta_sign in THEORIES:
        k = Constants(eps_sign, beta_sign)
        name = f"{eps_sign}/{beta_sign}"
        if not same(mul(k.eps, k.eps), add(k.eps, ONE)):
            failures.append(f"{name}: eps^2 != eps + 1")
        if not same(mul(k.d, k.d), add(k.eps, scale(ONE, 2))):
            failures.append(f"{name}: D^2 != 2 + eps")
        if not same(mul(k.eps, inverse(k.eps)), ONE):
            failures.append(f"{name}: eps * eps^-1 != 1")
        if not same(bracket(UNKNOT, k), k.eps):
            failures.append(f"{name}: unknot != eps")
        if not same(bracket(TREFOIL, k), sub(ONE, scale(k.beta, 2))):
            failures.append(f"{name}: trefoil != 1 - 2 beta")
        for n in range(1, 5):
            hopf = scale(power(k.eps, 1 - n), (-1) ** (n - 1))
            for crossing in ("xp", "xn"):
                chain = hopf_chain(n, crossing)
                if not same(tr_link(strand_trace(chain)["writhe"], bracket(chain, k), k),
                            hopf):
                    failures.append(f"{name}: {n}-chain ({crossing}) != "
                                    f"(-1)^(n-1) eps^(1-n)")
        sphere = inverse(k.d)
        for framings in ([], [1], [-1]):
            if not same(chain_tr(framings, k), sphere):
                failures.append(f"{name}: chain {framings} != tr(S^3) = 1/D")
        for framings in ([2], [3, -1], [0, 4, -2], [5, 1, 1, -3]):
            if not same(chain_subset_sum(framings, k),
                        chain_subset_sum_direct(framings, k)):
                failures.append(f"{name}: transfer != subset sum on {framings}")
        sphere_spine = (2, ((0, 1, 1), (1, 1, 1)), ((0, 1, 1, 1, 1, 1),))
        for xyz in ((1, 1, 1), (Fraction(3, 7), -2, Fraction(5, 3))):
            value = spine_tv_float(*sphere_spine, eps_sign, xyz)[0]
            if abs(value - 1) > 1e-12:
                failures.append(f"{name}: tv(sphere spine) at {xyz} = {value}")
    for p, q in ((7, 3), (13, 5), (30, 7)):
        if cf_value(minus_cf(p, q)) != Fraction(p, q):
            failures.append(f"continued fraction of {p}/{q}")
    return failures
