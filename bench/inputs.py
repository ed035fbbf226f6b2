"""Seeded inputs of the four benchmark workloads.

``build(workload, seed, out_dir)`` writes the input files (fibcat's own link
and spine formats, plus ``lens.txt`` and ``theories.txt``) under ``out_dir``
and returns the workload: the operations of one round, each an argv for
``fibcat.cli.run`` together with what its output must satisfy.  The same
seed always gives the same files and operations.

Run it alone to look at the inputs:

    python3 bench/inputs.py --workload links --seed 3 --out bench/out/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles

WORKLOADS = ("links", "surgery", "spines", "param-sweep")

# (width, plats): width 14 is left out, as one warm operation takes about
# 2 s there and rounds that long leave too few of them in a run for a
# steady median.  More plats of width 12 than of width 10 put the median
# operation inside the width-12 group rather than between the two.
PLATS = ((10, 2), (12, 3))
PLAT_CROSSINGS = 12
SPINE_SIZES = (10, 11)
SPHERE_COPIES = 4
# Framings per circle (signs alternating, see signed_framings): fixed, so
# that every seed asks for the same amount of kink and coloring work.  The
# two-circle chains put as many operations below the lens operations' cost
# as above it, so that the median operation is a lens one.
CHAIN_FRAMINGS = ((30, 12, 5, 2), (9, 6, 4, 3, 2, 1), (8, 3))
HOPF_FRAMINGS = ((20, 7, 3, 2, 1), (30, 15, 4), (10, 4))
# Lens framings: this multiset in seeded order.  The cost of the closed
# form follows the multiset of subset sums, which the order leaves alone.
LENS_FRAMINGS = (2, 2, 3, 3, 3, 3, 4)
# lens 30 29 expands to 29 framings, and lens_tr_closed_form visits all
# 2^29 subsets of them: an operation that cannot finish in its time limit.
FAILING_LENS = (30, 29)
SWEEP_THEORIES = 8
SWEEP_ROUNDS = 32
SWEEP_PLAT_WIDTH = 8
# Warm evaluations of different plats differ by a third in cost, chains and
# sphere unions of fixed shape do not: two chains and one union put the
# median operation, a tv-spine, on inputs whose cost the seed cannot move.
SWEEP_CHAINS = ((5, 3, 2), (4, 2))
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)
# tv does not depend on x, y, z on a true special spine only; the random
# incidence data of the spines workload is not one, so the sweep takes a
# union of 3-sphere spines.
SWEEP_SPHERE_COPIES = 3


@dataclass
class Op:
    """One fibcat command and the oracle its output is checked by.

    ``expect`` is a tuple whose first item names the oracle (see
    checks.py); ``group`` numbers the theory of a param-sweep operation.
    ``may_fail`` marks the one operation that is known to fail (see
    FAILING_LENS); any other failure makes the run incorrect.
    """

    label: str
    argv: list[str]
    expect: tuple
    group: int = 0
    may_fail: bool = False


@dataclass
class Relation:
    """Outputs of several operations that must agree: ``kind`` is "equal"
    (same exact value) or "abs2" (same |value|^2)."""

    kind: str
    labels: tuple[str, ...]


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]           # round r uses rounds[r % len(rounds)]
    relations: list[Relation]
    warmup: list[Op] = field(default_factory=list)
    cli_op: Op | None = None         # the representative command for cli_s
    clear_caches: bool = False       # start every round with empty caches
    op_limit_s: float = 20.0


def theory_args(eps: str, beta: str, xyz=None) -> list[str]:
    args = ["--epsilon", eps, "--beta", beta]
    if xyz is not None:
        args += [f"-{name}={value}" for name, value in zip("xyz", xyz)]
    return args


# ---------------------------------------------------------------------------
# link diagrams


def plat(width: int, crossings: int, rng: random.Random) -> list[tuple[str, int]]:
    """Plat closure: width/2 cups, then crossings, then width/2 caps at
    position 0.  The crossing positions cycle through all width - 1 places
    from a random start and are then shuffled, and half the crossings are
    positive, in random order: a crossing's cost grows with its position
    and differs with its sign, so even spreads keep the work of a plat
    alike from seed to seed."""
    start = rng.randrange(width - 1)
    places = [(start + i) % (width - 1) for i in range(crossings)]
    rng.shuffle(places)
    signs = ["xp", "xn"] * (crossings // 2) + ["xp"] * (crossings % 2)
    rng.shuffle(signs)
    events = [("cup", 2 * i) for i in range(width // 2)]
    events += list(zip(signs, places))
    return events + [("cap", 0)] * (width // 2)


def reidemeister_edit(events, rng: random.Random) -> list[tuple[str, int]]:
    """The same link with one Reidemeister I curl, one II pair and one III
    move inserted where at most six strands are open, so the edit adds
    little work to the evaluation."""
    widths, w = [], 0
    for kind, _ in events:
        w += 2 if kind == "cup" else -2 if kind == "cap" else 0
        widths.append(w)

    def spot(min_width):
        return rng.choice([i for i, w in enumerate(widths) if min_width <= w <= 6])

    inserts: dict[int, list] = {}
    i = spot(1)
    p, x = rng.randrange(widths[i]), rng.choice(("xp", "xn"))
    inserts.setdefault(i, []).extend([("cup", p + 1), (x, p), ("cap", p + 1)])
    i = spot(2)
    p, x = rng.randrange(widths[i] - 1), rng.choice((("xp", "xn"), ("xn", "xp")))
    inserts.setdefault(i, []).extend([(x[0], p), (x[1], p)])
    # s_p s_p+1 s_p = s_p+1 s_p s_p+1 (R3); the inverse of the right side
    # follows, so the inserted braid is trivial only through the R3 move.
    i = spot(3)
    p, (x, y) = rng.randrange(widths[i] - 2), rng.choice((("xp", "xn"), ("xn", "xp")))
    inserts.setdefault(i, []).extend([(x, p), (x, p + 1), (x, p),
                                      (y, p + 1), (y, p), (y, p + 1)])
    out = []
    for i, ev in enumerate(events):
        out.append(ev)
        out.extend(inserts.get(i, []))
    return out


def signed_framings(sizes) -> list[int]:
    """The sizes in their order with alternating signs: a circle's kinks
    cost more in the middle of a chain than at its end, and a positive
    kink about twice what a negative one does, so neither is left to the
    seed."""
    return [f if i % 2 == 0 else -f for i, f in enumerate(sizes)]


def write_link(path: Path, events, framings=()) -> str:
    lines = ["link"] + [f"{k} {p}" for k, p in events] + ["end"]
    lines += [f"framing {i}={f}" for i, f in enumerate(framings)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# spines


def random_spine(n_components: int, rng: random.Random):
    """n-1 vertices with random slots; two of each vertex's four triples
    become triple lines, so E = 2V and every triple line is one of its
    vertices' triples."""
    vertices, edges = [], []
    for _ in range(n_components - 1):
        v = tuple(rng.randrange(n_components) for _ in range(6))
        vertices.append(v)
        x1, y1, z1, x2, y2, z2 = v
        triples = [(x1, y1, z1), (x1, y2, z2), (y1, z2, x2), (z1, x2, y2)]
        edges.extend(rng.sample(triples, 2))
    return n_components, tuple(edges), tuple(vertices)


def sphere_union(copies: int, rng: random.Random):
    """Disjoint union of copies of the one-vertex 3-sphere spine, with the
    component labels permuted."""
    labels = list(range(2 * copies))
    rng.shuffle(labels)
    edges, vertices = [], []
    for c in range(copies):
        disk, big = labels[2 * c], labels[2 * c + 1]
        edges += [(disk, big, big), (big, big, big)]
        vertices.append((disk, big, big, big, big, big))
    return 2 * copies, tuple(edges), tuple(vertices)


def write_spine(path: Path, spine) -> str:
    n, edges, vertices = spine
    lines = ["spine", f"components {n}"]
    lines += ["edge " + " ".join(map(str, e)) for e in edges]
    lines += ["vertex " + " ".join(map(str, v)) for v in vertices]
    path.write_text("\n".join(lines + ["end"]) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# the workloads


def _links(seed: int, out: Path) -> Workload:
    rng = random.Random(f"links-{seed}")
    ops, warmup = [], []
    for w, (width, count) in enumerate(PLATS):
        # the theory is fixed per width: its cost differs by up to a half
        theory = oracles.THEORIES[w % len(oracles.THEORIES)]
        t = theory_args(*theory)
        for i in range(count):
            events = plat(width, PLAT_CROSSINGS, rng)
            edited = reidemeister_edit(events, rng)
            base = write_link(out / f"plat{width}-{i}.txt", events)
            moved = write_link(out / f"plat{width}-{i}-moved.txt", edited)
            ops += [Op(f"eval-link w{width}.{i}", t + ["eval-link", base],
                       ("eval", events, theory)),
                    Op(f"tr-link w{width}.{i} moved", t + ["tr-link", moved],
                       ("tr-link-moved", edited, events, theory))]
        warmup.append(ops[-2])
    return Workload("links", [ops], [], warmup=warmup, cli_op=ops[0])


def _surgery(seed: int, out: Path) -> Workload:
    rng = random.Random(f"surgery-{seed}")
    ops = []
    for i, sizes in enumerate(CHAIN_FRAMINGS):
        framings = signed_framings(sizes)
        path = write_link(out / f"chain{i}.txt",
                          oracles.hopf_chain(len(framings), rng.choice(("xp", "xn"))), framings)
        theory = oracles.THEORIES[i % len(oracles.THEORIES)]
        ops.append(Op(f"tr-manifold chain{i}", theory_args(*theory) + ["tr-manifold", path],
                      ("chain", framings, theory)))
    for i, sizes in enumerate(HOPF_FRAMINGS):
        framings = signed_framings(sizes)
        theory = oracles.THEORIES[(i + 2) % len(oracles.THEORIES)]
        ops.append(Op(f"hopf {len(framings)}",
                      theory_args(*theory) + ["hopf", str(len(framings)), "--framings=" +
                                              ",".join(map(str, framings))],
                      ("hopf", framings, theory)))
    # L(p, q) and L(p, q^-1) (the framings reversed) are the same manifold;
    # negated framings give L(p, -q) and L(p, -q^-1), the same manifold
    # with the other orientation.  All four have framings of one multiset.
    framings = list(LENS_FRAMINGS)
    rng.shuffle(framings)
    value = oracles.cf_value(framings)
    p, q = value.numerator, value.denominator
    pairs = [(p, q), (p, pow(q, -1, p))]
    (out / "lens.txt").write_text("".join(f"{a} {b}\n" for a, b in pairs + [FAILING_LENS]))
    theory = oracles.THEORIES[3]
    labels = []
    for a, b in pairs:
        labels.append(f"lens {a} {b}")
        ops.append(Op(labels[-1], theory_args(*theory) + ["lens", str(a), str(b)],
                      ("lens", a, b, theory)))
    for a, b in pairs:
        mirror = [-f for f in oracles.minus_cf(a, b)]
        labels.append(f"lens {a} -{b}")
        ops.append(Op(labels[-1], theory_args(*theory) + [
            "lens", "--framings=" + ",".join(map(str, mirror))], ("lens-framings", mirror, theory)))
    ops.append(Op(f"lens {FAILING_LENS[0]} {FAILING_LENS[1]}", theory_args(*theory) + [
        "lens", str(FAILING_LENS[0]), str(FAILING_LENS[1])], ("lens", *FAILING_LENS, theory),
        may_fail=True))
    relations = [Relation("equal", (labels[0], labels[1])),
                 Relation("equal", (labels[2], labels[3])),
                 Relation("abs2", (labels[0], labels[2]))]
    return Workload("surgery", [ops], relations, cli_op=ops[0], op_limit_s=2.0)


def _spines(seed: int, out: Path) -> Workload:
    rng = random.Random(f"spines-{seed}")
    ops, relations = [], []
    for i, n in enumerate(SPINE_SIZES):
        spine = random_spine(n, rng)
        path = write_spine(out / f"spine{n}.txt", spine)
        theory = oracles.THEORIES[3 * i]
        t = theory_args(*theory)
        ops += [Op(f"tv-spine c{n}", t + ["tv-spine", "--no-euler-check", path],
                   ("tv", spine, theory, (1, 1, 1))),
                Op(f"t-spine c{n}", t + ["t-spine", "--no-euler-check", path],
                   ("t", spine, theory))]
        relations.append(Relation("equal", (f"tv-spine c{n}", f"t-spine c{n}")))
    union = sphere_union(SPHERE_COPIES, rng)
    path = write_spine(out / "spheres.txt", union)
    for theory in oracles.THEORIES:
        t = theory_args(*theory)
        name = f"{theory[0]}/{theory[1]}"
        ops += [Op(f"tv-spine spheres {name}", t + ["tv-spine", "--no-euler-check", path],
                   ("one", "tv")),
                Op(f"t-spine spheres {name}", t + ["t-spine", "--no-euler-check", path],
                   ("one", "t"))]
    # the sphere union's cost is the same for every seed, a random spine's not
    cli = next(op for op in ops if op.label.startswith("tv-spine spheres"))
    return Workload("spines", [ops], relations, cli_op=cli)


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational p/q or -p/q with p != q small primes: values
    of alike size keep the arithmetic's cost alike from seed to seed."""
    p, q = rng.sample(SWEEP_PRIMES, 2)
    return Fraction(rng.choice((1, -1)) * p, q)


def _sweep(seed: int, out: Path) -> Workload:
    rng = random.Random(f"param-sweep-{seed}")
    link = plat(SWEEP_PLAT_WIDTH, PLAT_CROSSINGS, rng)
    link_path = write_link(out / f"plat{SWEEP_PLAT_WIDTH}.txt", link)
    chains = []
    for i, sizes in enumerate(SWEEP_CHAINS):
        framings = signed_framings(sizes)
        path = write_link(out / f"chain{i}.txt",
                          oracles.hopf_chain(len(sizes), rng.choice(("xp", "xn"))), framings)
        chains.append((f"tr-manifold {i}", path, framings))
    spine = sphere_union(SWEEP_SPHERE_COPIES, rng)
    spine_path = write_spine(out / "spheres.txt", spine)
    # Every round meets new theories: the (eps, beta) choices cycle, and
    # x, y, z are fresh nonzero rationals.
    rounds, lines = [], []
    for r in range(SWEEP_ROUNDS):
        ops = []
        for j in range(SWEEP_THEORIES):
            theory = oracles.THEORIES[j % len(oracles.THEORIES)]
            xyz = tuple(_rational(rng) for _ in range(3))
            lines.append(f"{r} {j} {theory[0]} {theory[1]} " + " ".join(map(str, xyz)))
            t = theory_args(*theory, xyz)
            ops.append(Op(f"eval-link T{j}", t + ["eval-link", link_path],
                          ("eval", link, theory), j))
            ops += [Op(f"{label} T{j}", t + ["tr-manifold", path], ("chain", framings, theory), j)
                    for label, path, framings in chains]
            ops += [Op(f"tv-spine T{j}", t + ["tv-spine", "--no-euler-check", spine_path],
                       ("tv", spine, theory, xyz), j),
                    # the axiom suite's own seed picks its random cases, whose
                    # number and size set its cost: fixed per theory slot
                    Op(f"check-axioms T{j}", t + [f"--seed={j}", "check-axioms"],
                       ("axioms",), j)]
        rounds.append(ops)
    (out / "theories.txt").write_text("# round theory eps beta x y z\n" + "\n".join(lines) + "\n")
    relations = []
    kinds = ["eval-link", "tv-spine"] + [label for label, _, _ in chains]
    for kind in kinds:
        for j in range(len(oracles.THEORIES)):
            relations.append(Relation("equal", tuple(
                f"{kind} T{i}" for i in range(j, SWEEP_THEORIES, len(oracles.THEORIES)))))
    cli = next(op for op in rounds[0] if op.label == "check-axioms T0")
    return Workload("param-sweep", rounds, relations, cli_op=cli, clear_caches=True)


def build(workload: str, seed: int, out_dir: Path) -> Workload:
    out_dir.mkdir(parents=True, exist_ok=True)
    builders = {"links": _links, "surgery": _surgery, "spines": _spines,
                "param-sweep": _sweep}
    return builders[workload](seed, out_dir)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workload = build(args.workload, args.seed, args.out)
    for op in workload.rounds[0]:
        print(f"{op.label}: fibcat {' '.join(op.argv)}")


if __name__ == "__main__":
    main()
