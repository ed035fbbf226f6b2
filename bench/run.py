"""fibcat benchmark: seeded workloads, oracle-checked outputs, end-to-end and
per-layer metrics.

    python3 bench/run.py                                   # all four workloads
    python3 bench/run.py --workload links --seed 3 --trace 0
    python3 bench/run.py --workload surgery --trace 1      # per-layer figures
    python3 bench/run.py --regen-digests                   # reference digests

One workload runs in one process and one thread.  Every operation is an
in-process ``fibcat.cli.run(argv)`` with its output captured, so parsing,
computing and rendering all count.  The operations of a workload form a
round; the run repeats whole rounds for ``--seconds`` seconds (by default
``run_seconds`` in BENCHMARK.json), checks every output against the oracles
in oracles.py, and prints the metrics named in BENCHMARK.json.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

# Fresh interpreters for setup_s and cli_s: some before the rounds and some
# after each round, as the host's speed changes every few seconds.
SETUP_RUNS = (4, 2)
CLI_RUNS = (3, 1)
MIN_ROUNDS = 2
DIGEST_SEEDS = range(10)
SETUP_CODE = "import fibcat; fibcat.Theory().constants()"
# The calibration loop's time at the reference speed: every time is reported
# in seconds at that speed (see HostSpeed).
CALIBRATION_REF_S = 0.010
CALIBRATION_FRESH_S = 0.05
CALIBRATION_TABLE = 2000
CALIBRATION_PASSES = 15


class OpTimeout(BaseException):
    """Raised inside an operation that overran its time limit."""


def _alarm(signum, frame):
    raise OpTimeout


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_fibcat():
    if not (SRC / "fibcat" / "__init__.py").is_file():
        _fail(f"no fibcat sources under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    import fibcat
    import fibcat.cli
    if Path(fibcat.__file__).resolve().parent != SRC / "fibcat":
        _fail(f"imported fibcat from {fibcat.__file__}, not from the checkout")
    return fibcat.cli


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIBCAT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _timed_child(argv: list[str], speed: HostSpeed) -> tuple[float, subprocess.CompletedProcess]:
    """A fresh interpreter's wall time, at the reference speed."""
    speed.before()
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    return speed.after(time.perf_counter() - t0), done


class HostSpeed:
    """How fast the host runs right now, from a fixed calibration loop.

    On a shared host the same pure-Python work runs at one of two speeds
    about 1.6 times apart, switching every few seconds.  The loop runs
    right before and right after every measurement, and a wall time t is
    reported as t * CALIBRATION_REF_S / (mean of those two loop times), in
    seconds at the speed where the loop takes CALIBRATION_REF_S.  Work done
    by fibcat changes t and not the loop, so a faster program reads faster.
    """

    def __init__(self):
        # small, so that peak_rss_mib is mostly the interpreter and fibcat
        self._table = [(Fraction(i, 7), (i, str(i))) for i in range(CALIBRATION_TABLE)]
        self.samples: list[float] = []
        self._last = -1.0

    def _loop(self):
        """Rational arithmetic and a walk over a table of objects."""
        a = Fraction(1, 3)
        for i in range(1, 500):
            a = (a * Fraction(i, i + 1) + Fraction(1, i)) / 2
        n = 0
        for _ in range(CALIBRATION_PASSES):
            for q, (i, _) in self._table:
                if q and i & 1:
                    n += 1
        return a, n

    def _sample(self) -> None:
        # without the collector, whose passes grow with the process's heap
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
        finally:
            gc.enable()

    def before(self) -> None:
        """Sample unless the last sample ended just now."""
        if time.perf_counter() - self._last > CALIBRATION_FRESH_S:
            self._sample()

    def after(self, elapsed: float) -> float:
        """elapsed, measured since before(), at the reference speed."""
        before = self.samples[-1]
        self._sample()
        return elapsed * CALIBRATION_REF_S / ((before + self.samples[-1]) / 2)


class FreshProcesses:
    """setup_s and cli_s samples, each a fresh interpreter."""

    def __init__(self, speed: HostSpeed, cli_op):
        self.speed = speed
        self.cli_op = cli_op
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.problems: list[str] = []

    def measure(self, setups: int, clis: int) -> None:
        import checks
        for _ in range(setups):
            elapsed, done = _timed_child([sys.executable, "-c", SETUP_CODE], self.speed)
            self.setup.append(elapsed)
            if done.returncode:
                self.problems.append(f"setup: {done.stderr.strip()}")
        for _ in range(clis):
            elapsed, done = _timed_child(
                [sys.executable, "-m", "fibcat.cli"] + self.cli_op.argv, self.speed)
            self.cli.append(elapsed)
            message = checks.verify(self.cli_op.expect, done.returncode, done.stdout)
            if message:
                self.problems.append(f"cli {self.cli_op.label}: {message}")


class Runner:
    """Runs one workload's operations and collects timings and outputs."""

    def __init__(self, cli, workload, speed: HostSpeed):
        self.cli = cli
        self.workload = workload
        self.speed = speed
        self.tracer = None      # a tracing.Tracer during traced rounds
        self.outputs: dict[str, str] = {}      # label -> stdout of its first success
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}
        self.op_times: list[float] = []
        self.times_by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.totals: dict = {}
        self.on_op = None

    def op(self, op) -> float | None:
        """Run one operation; its wall time at the reference speed, or None
        when it failed."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.begin_op()
        elapsed, code, reason = None, None, None
        self.speed.before()
        signal.setitimer(signal.ITIMER_REAL, self.workload.op_limit_s)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(list(op.argv))
            elapsed = time.perf_counter() - t0
        except OpTimeout:
            reason = f"time limit {self.workload.op_limit_s} s"
        except Exception as exc:        # the benchmark keeps running; report it
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if elapsed is not None:
            elapsed = self.speed.after(elapsed)
        if self.tracer:
            self.tracer.end_op(elapsed is not None, self.totals)
        if elapsed is None:
            self.failures[op.label] = reason
            if not op.may_fail:
                self.problems.append(f"{op.label}: failed ({reason})")
            return None
        stdout = out.getvalue()
        if code != 0:
            self.problems.append(f"{op.label}: exit {code}: {err.getvalue().strip()}")
        first = self.outputs.setdefault(op.label, stdout)
        if first != stdout:
            self.problems.append(f"{op.label}: output differs between rounds")
        return elapsed

    def round(self, ops) -> float:
        """One round; the summed time of the operations that completed."""
        self.totals = {}
        batch = 0.0
        for op in ops:
            elapsed = self.op(op)
            self.attempted += 1
            if elapsed is None:
                self.failed += 1
            else:
                batch += elapsed
                self.op_times.append(elapsed)
                self.times_by_label.setdefault(op.label, []).append(elapsed)
            if self.on_op is not None:
                self.on_op(op)
        return batch


def _rounds(runner, seconds: float, caches: dict, totals: list | None = None,
            between=None) -> list[float]:
    """Whole rounds for about `seconds`: a round starts while the mean round
    still fits, and at least MIN_ROUNDS run.  Round r runs the workload's
    round r, with empty caches first where the workload asks for that;
    `between` runs after every round."""
    workload = runner.workload
    batches = []
    start = time.perf_counter()
    while True:
        if workload.clear_caches:
            for cache in caches.values():
                cache.cache_clear()
        batches.append(runner.round(workload.rounds[len(batches) % len(workload.rounds)]))
        if totals is not None:
            totals.append(runner.totals)
        if between is not None:
            between()
        used = time.perf_counter() - start
        if len(batches) >= MIN_ROUNDS and used + used / len(batches) > seconds:
            return batches


def _check(runner, workload) -> list[str]:
    import checks
    problems = list(runner.problems)
    seen = set()
    for ops in workload.rounds:
        for op in ops:
            if op.label in seen or op.label not in runner.outputs:
                continue
            seen.add(op.label)
            message = checks.verify(op.expect, 0, runner.outputs[op.label])
            if message:
                problems.append(f"{op.label}: {message}")
    for relation in workload.relations:
        name = " ~ ".join(relation.labels)
        missing = [label for label in relation.labels if label not in runner.outputs]
        if missing:
            problems.append(f"{name}: no output from {', '.join(missing)}")
            continue
        message = checks.related(relation.kind, [runner.outputs[l] for l in relation.labels])
        if message:
            problems.append(f"{name}: {message}")
    return list(dict.fromkeys(problems))


def _digest_report(workload_name: str, seed: int, outputs: dict) -> str:
    import checks
    if not DIGESTS.is_file():
        return "output digests: no reference file"
    reference = json.loads(DIGESTS.read_text()).get(workload_name, {}).get(str(seed))
    if reference is None:
        return f"output digests: no reference for seed {seed}"
    changed = [label for label, out in outputs.items()
               if reference.get(label) not in (None, checks.digest(out))]
    unreferenced = [label for label in outputs if label not in reference]
    absent = [label for label in reference if label not in outputs]
    text = f"output digests: {len(outputs) - len(changed) - len(unreferenced)} match"
    if changed:
        text += f", CHANGED: {', '.join(changed)}"
    if unreferenced:
        text += f", no reference: {', '.join(unreferenced)}"
    if absent:
        text += f", NO OUTPUT: {', '.join(absent)}"
    return text


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import inputs
    import oracles
    import tracer as tracing
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cli = _import_fibcat()

    spec = _spec()
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    problems = [f"oracle self-test: {f}" for f in oracles.self_test()]
    workload = inputs.build(name, seed, OUT / f"{name}-{seed}")
    caches = tracing.lru_caches()
    signal.signal(signal.SIGALRM, _alarm)

    # One CPU for this process and the interpreters it starts, so that the
    # calibration loop always measures the CPU the measured work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    speed = HostSpeed()
    fresh = FreshProcesses(speed, workload.cli_op)
    if not trace:
        fresh.measure(SETUP_RUNS[0], CLI_RUNS[0])

    runner = Runner(cli, workload, speed)
    for op in workload.warmup:
        runner.op(op)
    runner.failures.clear()
    if trace:       # the end-to-end metrics come from untraced runs
        batches = _rounds(runner, seconds / 2, caches)
    else:
        batches = _rounds(runner, seconds, caches,
                          between=lambda: fresh.measure(SETUP_RUNS[1], CLI_RUNS[1]))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += fresh.problems
    metrics = {
        "batch_s": statistics.median(batches),
        "op_p50_ms": 1000 * statistics.median(runner.op_times),
        "peak_rss_mib": peak_rss,
    }
    if not trace:
        metrics["setup_s"] = statistics.median(fresh.setup)
        metrics["cli_s"] = statistics.median(fresh.cli)
    report = [f"workload {name}, seed {seed}: {len(batches)} rounds of "
              f"{len(workload.rounds[0])} operations, {len(runner.op_times)} timed"]
    report += [f"  {statistics.median(times) * 1000:10.1f} ms  {label}"
               for label, times in runner.times_by_label.items()]
    report.append(f"peak RSS before fibcat was imported: {own_rss:.1f} MiB")
    report.append(f"calibration loop: median {statistics.median(speed.samples) * 1000:.2f} ms "
                  f"over {len(speed.samples)} runs (reference {CALIBRATION_REF_S * 1000:.0f} ms)")

    if trace:
        layer, lines = _traced_phase(runner, workload, seconds - seconds / 2, caches,
                                     tracing, metrics["batch_s"], name, seed)
        report += lines
        values = {m["name"]: layer.get(m["name"], 0) for m in per_layer}
        specs = per_layer
    else:
        values = metrics
        specs = end_to_end
    problems += _check(runner, workload)
    report.append(_digest_report(name, seed, runner.outputs))
    for label, reason in runner.failures.items():
        report.append(f"failed: {label} ({reason})")
    report += [f"WRONG: {p}" for p in problems]
    return {
        "report": report,
        "result": {
            "correct": not problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in specs},
        },
    }


def _traced_phase(runner, workload, seconds, caches, tracing, untraced_batch, name, seed):
    """Rounds with every layer wrapped; per-layer figures per round."""
    tracer = tracing.Tracer()
    runner.tracer = tracer
    rounds: list[dict] = []
    theory_marks: list[tuple[int, int]] = []     # (reassociate misses, cache entries)

    def after_op(op):
        if rounds:
            return
        ops = workload.rounds[0]
        if op is ops[-1] or ops[ops.index(op) + 1].group != op.group:
            theory_marks.append((runner.totals.get("category.reassociate.cache_misses", 0),
                                 tracing.cache_entries(caches)))

    tracer.install()
    try:
        runner.on_op = after_op
        batches = _rounds(runner, seconds, caches, rounds)
    finally:
        tracer.uninstall()
        runner.on_op = None
        runner.tracer = None
    OUT.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT / f"spans-{name}-{seed}.tsv")

    layer = dict(rounds[0])         # counts: the first traced round
    for layer_name in tracing.LAYERS:
        prefix = layer_name + "."
        for totals in rounds:
            totals[f"{layer_name}.self_s"] = sum(
                v for k, v in totals.items() if k.startswith(prefix) and k.endswith(".self_s")
                and k.count(".") == 2)
            totals[f"{layer_name}.calls"] = sum(
                v for k, v in totals.items() if k.startswith(prefix) and k.endswith(".calls")
                and k.count(".") == 2)
        layer[f"{layer_name}.calls"] = rounds[0][f"{layer_name}.calls"]
    for key in {k for totals in rounds for k in totals if k.endswith("self_s")}:
        layer[key] = statistics.median(totals.get(key, 0.0) for totals in rounds)
    layer["category.cache_entries"] = tracing.cache_entries(caches)
    layer["trace.batch_s"] = statistics.median(batches)
    layer["trace.overhead_s"] = layer["trace.batch_s"] - untraced_batch
    lines = [f"traced: {len(batches)} rounds, {spans} spans written to "
             f"{(OUT / f'spans-{name}-{seed}.tsv').relative_to(ROOT)}"]
    lines += [f"trace hook error (its count is incomplete): {e}"
              for e in sorted(set(tracer.hook_errors))]
    if len(theory_marks) > 1:
        misses = [b[0] - a[0] for a, b in zip([(0, 0)] + theory_marks, theory_marks)]
        growth = [b[1] - a[1] for a, b in zip(theory_marks, theory_marks[1:])]
        layer["category.reassociate.min_misses_per_theory"] = min(misses)
        layer["category.cache_growth_min"] = min(growth)
        lines.append("per theory (reassociate misses, cache entries after it): " +
                     ", ".join(f"({m}, {c})" for m, (_, c) in zip(misses, theory_marks)))
    return layer, lines


def regen_digests(seeds) -> None:
    """Write the reference digest of every exact rendering for `seeds`."""
    cli = _import_fibcat()
    import checks
    import inputs
    signal.signal(signal.SIGALRM, _alarm)
    table: dict = {}
    for name in inputs.WORKLOADS:
        for seed in seeds:
            workload = inputs.build(name, seed, OUT / f"{name}-{seed}")
            runner = Runner(cli, workload, HostSpeed())
            runner.round(workload.rounds[0])
            problems = _check(runner, workload)
            if problems:
                _fail(f"{name} seed {seed} fails its oracles, no digests written: "
                      f"{problems}")
            table.setdefault(name, {})[str(seed)] = {
                label: checks.digest(out) for label, out in sorted(runner.outputs.items())}
            print(f"{name} seed {seed}: {len(runner.outputs)} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; a table, then one JSON line."""
    import inputs
    results = {}
    for name in inputs.WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().split("\n")[-1])
    names = list(results[inputs.WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<44}" + "".join(f"{w:>14}" for w in results))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<44}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    for metric in names:
        unit = results[inputs.WORKLOADS[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' (' + unit + ')':<44}" +
              "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of links, surgery, spines, param-sweep "
                                           "(default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of one run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digests", action="store_true",
                        help="rewrite digests.json for seeds 0-9 from the current code")
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH))
    if args.regen_digests:
        regen_digests(DIGEST_SEEDS)
        return 0
    seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    import inputs
    if args.workload not in inputs.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print("\n".join(outcome["report"]))
    for key, metric in outcome["result"]["metrics"].items():
        print(f"  {key:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
