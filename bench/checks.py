"""Checks of fibcat's outputs against the oracles, and output digests."""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache

import oracles as o

FLOAT_TOL = 1e-9


@lru_cache(maxsize=None)
def _constants(theory) -> o.Constants:
    return o.Constants(*theory)


@lru_cache(maxsize=None)
def _bracket(events: tuple, theory) -> tuple:
    return o.bracket(events, _constants(theory))


@lru_cache(maxsize=None)
def _trace(events: tuple) -> dict:
    return o.strand_trace(events)


def _tr_link(events: tuple, theory) -> tuple:
    return o.tr_link(_trace(events)["writhe"], _bracket(events, theory), _constants(theory))


@lru_cache(maxsize=None)
def _chain_tr(framings: tuple, theory) -> tuple:
    return o.chain_tr(framings, _constants(theory))


def _lines(stdout: str, count: int) -> list[str]:
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) != count:
        raise ValueError(f"expected {count} output lines, got {stdout!r}")
    return lines


def _expect_equal(what: str, got: tuple, want: tuple) -> None:
    if not o.same(got, want):
        raise ValueError(f"{what}: got {got}, oracle says {want}")


def _check_float(what: str, text: str, theory, want: complex, magnitude: float) -> None:
    zpart, spart = o.parse_rendering(text)
    got = o.embed(zpart, spart, _constants(theory).eps_float)
    if abs(got - want) > FLOAT_TOL * max(1.0, magnitude):
        raise ValueError(f"{what}: {text} ~ {got}, float state sum gives {want}")


def _writhe_line(line: str, events: tuple) -> None:
    trace = _trace(events)
    m = re.match(r"components: (\d+), writhe: (-?\d+) \[", line)
    if not m or int(m.group(1)) != trace["components"] or int(m.group(2)) != trace["writhe"]:
        raise ValueError(f"{line!r}: strand trace gives {trace['components']} "
                         f"components, writhe {trace['writhe']}")


def verify(expect: tuple, code: int, stdout: str) -> str | None:
    """None when the output satisfies its oracle, else what is wrong."""
    try:
        _verify(expect, code, stdout)
    except (ValueError, ArithmeticError) as exc:
        return str(exc)
    return None


def _verify(expect: tuple, code: int, stdout: str) -> None:
    kind = expect[0]
    if code != 0:
        raise ValueError(f"exit code {code}")
    if kind == "eval":
        _, events, theory = expect
        head, value = _lines(stdout, 2)
        if head != f"components: {_trace(tuple(events))['components']}":
            raise ValueError(f"{head!r}: wrong component count")
        _expect_equal("evaluation", o.as_cyclotomic(o.exact_field(value, "evaluation")),
                      _bracket(tuple(events), theory))
    elif kind == "tr-link-moved":
        # tr of the edited diagram must equal the oracle's tr of the original
        _, edited, original, theory = expect
        head, value = _lines(stdout, 2)
        _writhe_line(head, tuple(edited))
        _expect_equal("tr", o.as_cyclotomic(o.exact_field(value, "tr")),
                      _tr_link(tuple(original), theory))
    elif kind == "chain":
        _, framings, theory = expect
        head, value = _lines(stdout, 2)
        sigma = o.chain_signature(framings)
        if head != f"framings: {list(framings)}, signature: {sigma}":
            raise ValueError(f"{head!r}: expected framings {list(framings)}, "
                             f"signature {sigma}")
        _expect_equal("tr", o.as_cyclotomic(o.exact_field(value, "tr")),
                      _chain_tr(tuple(framings), theory))
    elif kind == "hopf":
        _, framings, theory = expect
        (value,) = _lines(stdout, 1)
        _expect_equal("tr", o.as_cyclotomic(o.exact_field(value, "tr (manifold)")),
                      _chain_tr(tuple(framings), theory))
    elif kind == "lens":
        _, p, q, theory = expect
        framings = o.minus_cf(p, q)
        head, value = _lines(stdout, 2)
        if head != f"framings: {framings}":
            raise ValueError(f"{head!r}: continued fraction gives {framings}")
        _expect_equal("tr", o.as_cyclotomic(o.exact_field(value, "tr")),
                      _chain_tr(tuple(framings), theory))
    elif kind == "lens-framings":
        _, framings, theory = expect
        (value,) = _lines(stdout, 1)
        _expect_equal("tr", o.as_cyclotomic(o.exact_field(value, "tr")),
                      _chain_tr(tuple(framings), theory))
    elif kind in ("tv", "t"):
        spine, theory = expect[1], expect[2]
        xyz = expect[3] if kind == "tv" else (1, 1, 1)
        want, magnitude, _ = o.spine_tv_float(*spine, theory[0], xyz,
                                              edge_factors=kind == "tv")
        (value,) = _lines(stdout, 1)
        _check_float(kind, o.exact_field(value, kind), theory, want, magnitude)
    elif kind == "one":
        (value,) = _lines(stdout, 1)
        if o.exact_field(value, expect[1]) != "1":
            raise ValueError(f"{value!r}: a union of 3-sphere spines has value 1")
    elif kind == "axioms":
        lines = stdout.rstrip("\n").split("\n")
        if not (re.fullmatch(r"all \d+ identities passed \(\d+ cases\)", lines[-2])
                and lines[-1].startswith("module-swap identities passed")):
            raise ValueError(f"axiom suite did not pass: {lines[-2:]}")
    else:
        raise ValueError(f"unknown oracle {kind!r}")


def value_of(stdout: str) -> tuple:
    """The exact value on the last output line, as (z-part, s-part)."""
    last = stdout.rstrip("\n").split("\n")[-1]
    return o.parse_rendering(last.split(":", 1)[1].split("   ~ ", 1)[0])


def related(kind: str, outputs: list[str]) -> str | None:
    """None when the outputs agree as the relation demands."""
    if kind == "equal":
        exact = {exact_rendering(out).rstrip("\n").split("\n")[-1].split(":", 1)[-1]
                 for out in outputs}
        return None if len(exact) == 1 else f"values differ: {sorted(exact)}"
    values = [value_of(out) for out in outputs]
    if any(any(s) for _, s in values):
        return "|tr|^2 relation needs values in Q(z20)"
    norms = [o.mul(v, o.conj(v)) for v, _ in values]
    return None if all(o.same(n, norms[0]) for n in norms) else \
        f"|value|^2 differ: {norms}"


def exact_rendering(stdout: str) -> str:
    """The output with every floating display part removed."""
    return re.sub(r"   ~ \([^)]*\)", "", stdout)


def digest(stdout: str) -> str:
    return hashlib.sha256(exact_rendering(stdout).encode()).hexdigest()
