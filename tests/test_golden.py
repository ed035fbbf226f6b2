"""Byte-identity of the command line: every argument list of a fixed set
prints exactly what it printed when ``golden_outputs.json`` was written.

The JSON maps each argument list, with its fixture and generated-file
paths written as ``{links}/...``, ``{spines}/...`` and ``{tmp}/...``, to
the first 16 hex digits of the SHA-256 of its exit code, stdout and
stderr.  The spine files are written afresh from seeded generators, so
the set is the same on every machine, and no absolute path enters a key
or a digest."""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import FIXTURES, banded_spine, random_spine, sphere_union
from fibcat.cli import run
from fibcat.spines import MAX_COMPONENTS, Spine

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

THEORIES = [[], ["--beta", "minus"], ["--epsilon", "neg"],
            ["--epsilon", "neg", "--beta", "minus"]]
PARAMETERS = [[], ["-x=2/3", "-y=-5/7", "-z=3"]]
LINKS = sorted(p.name for p in (FIXTURES / "links").glob("*.txt"))


def _spines() -> dict[str, str]:
    """The generated spine files, by name."""
    rng = random.Random("golden-spines")
    spines = {f"random{i}": random_spine(rng.randint(2, 12), rng) for i in range(6)}
    spines["banded48"] = banded_spine(48, rng)
    spines["spheres4"] = sphere_union(4)
    spines["isolated30"] = Spine(30, (), ())
    spines["spheres2500"] = sphere_union(MAX_COMPONENTS // 2)
    clique = [f"edge {i} {j} {j}" for i in range(17) for j in range(i + 1, 17)]
    texts = {name: spine.render() for name, spine in spines.items()}
    texts["clique17"] = "\n".join(["spine", "components 17", *clique, "end"]) + "\n"
    return texts


def _cases() -> list[list[str]]:
    """Every argument list, with placeholder paths."""
    spine_files = ["{spines}/sphere.txt", "{spines}/t3.txt",
                   *(f"{{tmp}}/random{i}.txt" for i in range(6)),
                   "{tmp}/banded48.txt", "{tmp}/spheres4.txt", "{tmp}/isolated30.txt"]
    per_theory = []
    for name in LINKS:
        for command in ("eval-link", "tr-link", "tr-manifold"):
            per_theory.append([command, f"{{links}}/{name}"])
    for path in spine_files:
        for command in ("tv-spine", "t-spine"):
            per_theory.append([command, "--no-euler-check", path])
    per_theory += [["hopf", "1"], ["hopf", "3"], ["hopf", "2", "--framings=1,-2"],
                   ["hopf", "3", "--framings=0,3,-1"], ["lens", "7", "2"],
                   ["lens", "30", "29"], ["lens", "--framings=2,-3,4"],
                   *(["compare-rt-tv", f"--link={{links}}/{name}.txt",
                      "--spine={spines}/sphere.txt"] for name in ("empty", "unknot")),
                   ["compare-rt-tv", "--link={links}/borromean0.txt",
                    "--spine={spines}/t3.txt"]]
    once = [["check-axioms"], ["c-function", "1,3,4"],
            ["tv-spine", "--no-euler-check", "{tmp}/spheres2500.txt"],
            ["tv-spine", "--no-euler-check", "{tmp}/clique17.txt"]]
    cases = [[*theory, *params, *argv]
             for theory in THEORIES for params in PARAMETERS for argv in per_theory]
    cases += [[*theory, *argv] for theory in THEORIES for argv in once]
    return cases


def _digest(argv: list[str], tmp: Path) -> str:
    """The truncated SHA-256 of ``run``'s exit code, stdout and stderr."""
    places = {"{links}": str(FIXTURES / "links"), "{spines}": str(FIXTURES / "spines"),
              "{tmp}": str(tmp)}
    real = []
    for arg in argv:
        for placeholder, path in places.items():
            arg = arg.replace(placeholder, path)
        real.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(real)
    texts = out.getvalue(), err.getvalue()
    for path in places.values():
        assert all(path not in text for text in texts), (argv, texts)
    blob = f"{code}\0{texts[0]}\0{texts[1]}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def golden_digests(tmp: Path) -> dict[str, str]:
    """Every case's digest, keyed by its argument list joined with spaces;
    the spine files are written to ``tmp`` first."""
    for name, text in _spines().items():
        (tmp / f"{name}.txt").write_text(text, encoding="utf-8")
    return {" ".join(argv): _digest(argv, tmp) for argv in _cases()}


def test_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = golden_digests(tmp_path)
    assert actual.keys() == expected.keys()
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed
