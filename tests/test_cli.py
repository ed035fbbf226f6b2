from __future__ import annotations

import os
import random
import re
import shlex
import subprocess
import sys
from decimal import Context, Decimal, localcontext

import pytest
from conftest import FIXTURES, PARAMETER_THEORIES, random_morse_word, theory_id
from fibcat import Scalar, Theory
from fibcat import category as cat
from fibcat import invariants as inv
from fibcat import spines as sp
from fibcat import tangles as tg
from fibcat import cli
from fibcat.cli import run
from fibcat.tangles import LinkDiagram

SRC = FIXTURES.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def link(name: str) -> str:
    return str(FIXTURES / "links" / name)


def spine(name: str) -> str:
    return str(FIXTURES / "spines" / name)


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """The ``$ fibcat ...`` examples of the README's "Command line"
    section: each command's arguments and the output lines after it, up
    to the next blank line."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ fibcat "), command
        examples.append((shlex.split(command)[2:], output))
    return examples


def test_readme_examples(capsys, monkeypatch):
    # every example of the README's command-line block prints what the
    # README shows, run from the repository root as written there
    monkeypatch.chdir(FIXTURES.parent)
    examples = _readme_examples()
    assert len(examples) == 4
    for argv, expected in examples:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines() == expected, argv


def test_hopf_two(capsys):
    code, out, _ = invoke(capsys, "hopf", "2")
    assert code == 0
    assert "-0.6180339887" in out
    assert "z20^4" in out


def test_lens_4_1(capsys):
    code, out, _ = invoke(capsys, "lens", "4", "1")
    assert code == 0
    assert "framings: [4]" in out
    code2, out2, _ = invoke(capsys, "lens", "--framings", "4")
    assert code2 == 0
    assert out.splitlines()[-1] == out2.splitlines()[-1]


def test_lens_long_chain(capsys):
    code, out, _ = invoke(capsys, "lens", "30", "29")
    assert code == 0
    assert f"framings: {[2] * 29}" in out


def test_lens_very_long_chain(capsys):
    code, out, _ = invoke(capsys, "lens", "20001", "20000", "--output", "float")
    assert code == 0
    assert out.startswith(f"framings: {[2] * 20000}\ntr: (")


def test_lens_framing_limit(capsys, monkeypatch):
    # (n + 1)/n expands to n twos; past the bound the expansion stops, and
    # a framing list is refused before any scalar work
    def refuse(*_):
        raise AssertionError("the work bound reached past the framing limit")

    monkeypatch.setattr(inv, "_check_work", refuse)
    over = inv.MAX_LENS_FRAMINGS + 1
    for argv in (["lens", str(over + 1), str(over)],
                 ["lens", str(10 ** 12 + 1), str(10 ** 12)],
                 ["lens", "--framings=" + ",".join(["2"] * over)]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert err.startswith("error:") and str(inv.MAX_LENS_FRAMINGS) in err, err


def test_one_signature_per_command(capsys, monkeypatch):
    # tr-manifold prints the signature its value used, and hopf
    # --framings checks the surgery's against the lens walk's count: one
    # elimination each; lens counts its signature on the continuants
    calls = []
    signature = inv.signature

    def counted(*args):
        calls.append(args)
        return signature(*args)

    monkeypatch.setattr(inv, "signature", counted)
    for argv, expected in ((["tr-manifold", link("trefoil_framed1.txt")], 1),
                           (["lens", "5", "2"], 0), (["lens", "--framings=3,2"], 0),
                           (["hopf", "2", "--framings=3,2"], 1), (["hopf", "2"], 0)):
        calls.clear()
        code, _, err = invoke(capsys, *argv)
        assert (code, err, len(calls)) == (0, "", expected), argv


def test_hopf_checks_the_chain_signature(capsys, monkeypatch):
    # hopf --framings takes the surgery's signature by elimination and the
    # closed form's by the continuants, so a wrong one is caught: sigma + 2
    # turns the phase; L(3, 2) has a nonzero tr, which shows it
    signature = inv.signature
    monkeypatch.setattr(inv, "signature", lambda *args: signature(*args) + 2)
    code, out, err = invoke(capsys, "hopf", "2", "--framings=2,2")
    assert (code, out) == (1, "")
    assert err == "error: diagram value disagrees with the closed form\n"


def test_signature_work_bound(capsys, monkeypatch, tmp_path):
    # chains just over inv.MAX_SIGNATURE_WORK are refused before any
    # elimination or sweep: 19,999 fives and a six (20,000 fives are
    # admitted), and 1,553 framings of 10^100 (1,552 are admitted)
    def refuse(*_):
        raise AssertionError("work started past the signature bound")

    monkeypatch.setattr(inv, "_pivot", refuse)
    monkeypatch.setattr(tg, "_sweep", refuse)
    big = [10 ** 100] * 1553
    path = tmp_path / "chain.txt"
    path.write_text(tg.build_hopf_chain(len(big)).with_framings(big).render())
    for argv in (["lens", "--framings=" + ",".join(["5"] * 19999 + ["6"])],
                 ["lens", "--framings=" + ",".join(map(str, big))],
                 ["hopf", str(len(big)), "--framings=" + ",".join(map(str, big))],
                 ["tr-manifold", str(path)]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), argv[0]
        assert err.startswith("error: signature of this ") \
            and err.endswith(f"exceeds {inv.MAX_SIGNATURE_WORK}\n"), err


def test_closed_stdout_exits_without_traceback():
    # stdout is a pipe whose reader has already gone, so the first write
    # fails however much of the output the pipe could have held
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fibcat.cli", "lens", "3001", "3000"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_tr_manifold_huge_framing(capsys, tmp_path):
    lines = []
    for framing in (1000000, 10):
        path = tmp_path / "unknot.txt"
        path.write_text(f"link\ncup 0\ncap 0\nend\nframing 0={framing}\n")
        code, out, _ = invoke(capsys, "tr-manifold", str(path))
        assert code == 0
        lines.append(out.splitlines())
    assert lines[0][0] == "framings: [1000000], signature: 1"
    assert lines[0][1] == lines[1][1]


def test_hopf_long_framed_chain(capsys):
    # the CLI checks the surgery sweep against the lens closed form
    framings = ",".join(str(i % 7 - 3) for i in range(40))
    code, out, err = invoke(capsys, "hopf", "40", f"--framings={framings}")
    assert code == 0, err
    assert out.startswith("tr (manifold): ")


@pytest.mark.parametrize("framed", [False, True], ids=["unframed", "framed"])
def test_hopf_chain_length_bound(capsys, monkeypatch, framed):
    # refused before any event of the chain is built
    def no_events(*args):
        raise AssertionError("a chain event was built")

    monkeypatch.setattr(tg, "LinkEvent", no_events)
    k = tg.MAX_COMPONENTS + 1
    argv = ["hopf", str(k)] + ([f"--framings={','.join(['1'] * k)}"] if framed else [])
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: chain of {k} components exceeds {tg.MAX_COMPONENTS}\n"
    with pytest.raises(ValueError, match="exceeds"):
        tg.build_hopf_chain(k)


def _disjoint_unknots(tmp_path, n):
    path = tmp_path / f"unknots{n}.txt"
    path.write_text("link\n" + "cup 0\ncap 0\n" * n + "end\n")
    return str(path)


@pytest.mark.parametrize("argv", [["tr-link"], ["eval-link"], ["tr-manifold"],
                                  ["compare-rt-tv", f"--spine={spine('sphere.txt')}", "--link"]],
                         ids=["tr-link", "eval-link", "tr-manifold", "compare-rt-tv"])
def test_link_component_bound(capsys, monkeypatch, tmp_path, argv):
    # refused when the file is read, before any output or any sweep
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(tg, "_sweep", no_sweep)
    k = tg.MAX_COMPONENTS + 1
    assert invoke(capsys, *argv, _disjoint_unknots(tmp_path, k)) \
        == (1, "", f"error: link of {k} components exceeds {tg.MAX_COMPONENTS}\n")


def test_link_component_bound_admits_its_bound(capsys, tmp_path):
    # k disjoint unknots: tr = eps^(k - 1), rendered exactly
    k = tg.MAX_COMPONENTS
    code, out, err = invoke(capsys, "tr-link", "--output", "exact",
                            _disjoint_unknots(tmp_path, k))
    assert (code, err) == (0, "")
    assert out == (f"components: {k}, writhe: 0 {[0] * k}\n"
                   f"tr: {(Theory().epsilon ** (k - 1)).render()}\n")


def _side_by_side_unknots(tmp_path, n):
    path = tmp_path / f"side_by_side{n}.txt"
    path.write_text("link\n" + "cup 0\n" * n + "cap 0\n" * n + "end\n")
    return str(path)


def test_tr_manifold_open_component_bound(capsys, tmp_path):
    # refused from the event analysis, before any branch
    code, out, err = invoke(capsys, "tr-manifold", _side_by_side_unknots(tmp_path, 17))
    assert code == 1
    assert "error: 17 components open at once exceeds 16" in err
    assert out == ""


BAD_FRAMINGS = [("framing 5=1", "framing for unknown component 5"),
                ("framing 0=1\nframing 0=3", "repeated framing for component 0")]


@pytest.mark.parametrize("command", ["tr-link", "eval-link", "tr-manifold"])
@pytest.mark.parametrize("framing, message", BAD_FRAMINGS, ids=["unknown", "repeated"])
def test_bad_framing_refused(capsys, tmp_path, command, framing, message):
    path = tmp_path / "unknot.txt"
    path.write_text(f"link\ncup 0\ncap 0\nend\n{framing}\n")
    assert invoke(capsys, command, str(path)) == (1, "", f"error: {message}\n")


def test_hopf_framing_count(capsys):
    assert invoke(capsys, "hopf", "3", "--framings=1,2") \
        == (1, "", "error: expected 3 framings, got 2\n")


EMPTY_FRAMINGS = [(["hopf", "2", "--framings="], "--framings needs at least one framing"),
                  (["lens", "--framings="], "--framings needs at least one framing"),
                  (["lens", "5", "2", "--framings=1"],
                   "lens takes either P Q or --framings, not both"),
                  (["lens", "5", "--framings=1,2"],
                   "lens takes either P Q or --framings, not both"),
                  (["hopf", "2", "--framings=,,1,"], "bad integer list: entry 1 is ''")]


@pytest.mark.parametrize("argv, message", EMPTY_FRAMINGS,
                         ids=["hopf-empty", "lens-empty", "lens-p-q-and-framings",
                              "lens-p-and-framings", "hopf-empty-entries"])
def test_empty_framings_refused(capsys, argv, message):
    assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


def test_bad_list_entry_is_named_not_echoed(capsys):
    # the first bad entry, by position and at most 40 characters, and
    # not the 40 KB list it came in
    framings = ",".join(["5"] * 19999 + ["x"])
    code, out, err = invoke(capsys, "lens", "--framings=" + framings)
    assert (code, out) == (1, "")
    assert err == "error: bad integer list: entry 20000 is 'x'\n" and len(err) < 200
    code, out, err = invoke(capsys, "c-function", "1,2," + "9" * 50 + "y,3")
    assert (code, out, err) == (1, "", f"error: bad integer list: entry 3 is {'9' * 40!r}\n")


# A value that starts with '-' and is not a plain integer must be joined
# to its option with '='.
_UNLINK2 = "link\ncup 0\ncap 0\ncup 0\ncap 0\nend\n"
_SPHERE_SPINE = "spine\ncomponents 2\nedge 0 1 1\nedge 1 1 {}\nvertex 0 1 1 1 1 1\nend\n"

# Every place a number is read: the argv, with "{}" in a file's text or an
# argument, and the ASCII value there that runs; and the object letters.
NUMBER_SITES = {
    "framings-list": (["lens", "--framings={},3"], None, "1"),
    "c-function": (["c-function", "1,2,{}"], None, "3"),
    "hopf-k": (["hopf", "{}"], None, "2"),
    "lens-p": (["lens", "{}", "3"], None, "5"),
    "lens-q": (["lens", "5", "{}"], None, "2"),
    "seed": (["hopf", "2", "--seed={}"], None, "1"),
    "rational": (["hopf", "2", "-x={}/2"], None, "1"),
    "link-position": (["tr-manifold"], "link\ncup 0\ncup {}\ncap 1\ncap 0\nend\n", "1"),
    "link-framed-component": (["tr-manifold"], _UNLINK2 + "framing {}=3\n", "1"),
    "link-framing": (["tr-manifold"], "link\ncup 0\ncap 0\nend\nframing 0=+{}\n", "3"),
    "spine-count": (["tv-spine", "--no-euler-check"], "spine\ncomponents {}\nend\n", "1"),
    "spine-slot": (["tv-spine"], _SPHERE_SPINE, "1"),
    # not a number, but the one refusal of ``parse_word``
    "colors": (["eval-link", link("hopf.txt"), "--colors=1{}"], None, "A"),
}


def _number_argv(tmp_path, site: str, number: str) -> list[str]:
    argv, text, _ = NUMBER_SITES[site]
    if text is None:
        return [arg.format(number) for arg in argv]
    path = tmp_path / "input.txt"
    path.write_text(text.format(number), encoding="utf-8")
    return argv + [str(path)]


@pytest.mark.parametrize("site", NUMBER_SITES)
def test_numbers_are_ascii(capsys, tmp_path, site):
    # int and Fraction also read underscores and other scripts' digits;
    # every site takes only ASCII digits with an optional sign
    code, out, err = invoke(capsys, *_number_argv(tmp_path, site, NUMBER_SITES[site][2]))
    assert (code, err) == (0, "") and out
    for number in ("1_0", "١", "１"):
        code, out, err = invoke(capsys, *_number_argv(tmp_path, site, number))
        assert (code, out) == (1, ""), number
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


def test_ascii_number_spellings(capsys, tmp_path):
    # a sign, a negative zero and the spaces int skips read as before
    assert invoke(capsys, "lens", "--framings=+3,-0, 3") \
        == invoke(capsys, "lens", "--framings=3,0,3")
    assert invoke(capsys, "hopf", "+3") == invoke(capsys, "hopf", "3")
    signed = invoke(capsys, *_number_argv(tmp_path, "link-framing", "3"))
    (tmp_path / "input.txt").write_text("link\ncup 0\ncap 0\nend\nframing 0=3\n")
    assert signed == invoke(capsys, "tr-manifold", str(tmp_path / "input.txt"))


NEGATIVE_VALUES = [(["-y", "-5/7", "hopf", "2"], "argument -y: expected one argument"),
                   (["-y=-5/7", "hopf", "2"], None),
                   (["hopf", "2", "--framings", "-1,2"],
                    "argument --framings: expected one argument"),
                   (["hopf", "2", "--framings=-1,2"], None)]


@pytest.mark.parametrize("argv, message", NEGATIVE_VALUES,
                         ids=["y-apart", "y-joined", "framings-apart", "framings-joined"])
def test_negative_option_values(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    if message is None:
        assert (code, err) == (0, "")
        assert out.startswith("tr (")
    else:
        assert (code, out) == (1, "")
        assert err.endswith(f"error: {message}\n")


def test_large_exponent_refused(capsys, monkeypatch):
    # Fraction('1e100000000') would build 10^(10^8); the exponent is read
    # first, and a value past cli.MAX_EXPONENT is never built
    fraction = cli.Fraction

    def guarded(value, *rest):
        if isinstance(value, str) and "e" in value:
            raise AssertionError(f"Fraction({value!r}) was built")
        return fraction(value, *rest)

    monkeypatch.setattr(cli, "Fraction", guarded)
    for option in ("-x=1e100000000", "-y=1e-100000000", "-z=-2.5e4301"):
        code, out, err = invoke(capsys, option, "hopf", "2")
        assert (code, out) == (1, ""), option
        assert err.endswith(f"exceeds {cli.MAX_EXPONENT} in magnitude\n"), err
    monkeypatch.setattr(cli, "Fraction", fraction)
    assert invoke(capsys, "-x=2e3", "hopf", "2") == invoke(capsys, "-x=2000", "hopf", "2")
    assert invoke(capsys, "-y=-5e-4300", "hopf", "2")[0] == 0


def _float_parts(out: str) -> tuple[Decimal, Decimal]:
    re_text, im_text = out.rsplit("(", 1)[1].rstrip(")\n").split(", ")
    return Decimal(re_text), Decimal(im_text)


@pytest.mark.parametrize("k", [2, 100, 2000])
@pytest.mark.parametrize("eps", ["pos", "neg"])
def test_hopf_float_value(capsys, eps, k):
    # |tr| = |eps|^(1 - k) has k-digit coordinates that cancel to a value
    # far outside float range; the display still gets it right
    code, out, err = invoke(capsys, "hopf", str(k), "--epsilon", eps, "--output", "float")
    assert (code, err) == (0, "")
    re, im = _float_parts(out)
    assert im == 0
    with localcontext(Context(prec=40)):
        root5 = Decimal(5).sqrt()
        modulus = (abs(1 + root5 if eps == "pos" else 1 - root5) / 2) ** (1 - k)
        assert abs(abs(re) / modulus - 1) < Decimal("1e-9")


def test_lens_requires_arguments(capsys):
    code, _, err = invoke(capsys, "lens")
    assert code == 1
    assert "lens needs" in err


def test_c_function(capsys):
    code, out, _ = invoke(capsys, "c-function", "1,3")
    assert code == 0
    assert "c(1, 3)" in out
    # a blank index list is the empty sequence, whose value is 1
    assert invoke(capsys, "c-function", "") == (0, "c(): 1   ~ (1, 0)\n", "")


def test_eval_link_colors(capsys):
    code, out, _ = invoke(capsys, "eval-link", link("hopf.txt"),
                          "--colors", "1A")
    assert code == 0
    assert "components: 2" in out
    code2, _, err = invoke(capsys, "eval-link", link("hopf.txt"),
                           "--colors", "AAA")
    assert code2 == 1
    assert "components" in err


def test_tr_link(capsys):
    code, out, _ = invoke(capsys, "tr-link", link("trefoil.txt"))
    assert code == 0
    assert "writhe: 3" in out


def test_tr_manifold(capsys):
    code, out, _ = invoke(capsys, "tr-manifold", link("trefoil_framed1.txt"))
    assert code == 0
    assert "signature: 1" in out
    assert "-0.4253254042" in out


def test_tv_and_t_spine(capsys):
    code, out, _ = invoke(capsys, "tv-spine", spine("sphere.txt"))
    assert code == 0
    assert "tv: 1" in out
    code2, out2, _ = invoke(capsys, "t-spine", spine("sphere.txt"))
    assert code2 == 0
    assert "t: 1" in out2


def test_compare_rt_tv(capsys):
    code, out, _ = invoke(capsys, "compare-rt-tv",
                          "--link", link("empty.txt"),
                          "--spine", spine("sphere.txt"))
    assert code == 0
    assert "match: yes" in out


def test_compare_rt_tv_mismatch(capsys):
    code, out, _ = invoke(capsys, "compare-rt-tv",
                          "--link", link("trefoil_framed1.txt"),
                          "--spine", spine("sphere.txt"))
    assert code == 2
    assert "match: NO" in out


def test_compare_rt_tv_cannot_separate_lens_from_sphere(capsys):
    # tv(L_{4,1}) = tv(S^3) = 1, so the squared invariant of the 4-framed
    # unknot agrees with the sphere spine even though the manifolds differ
    code, out, _ = invoke(capsys, "compare-rt-tv",
                          "--link", link("unknot_framed4.txt"),
                          "--spine", spine("sphere.txt"))
    assert code == 0
    assert "match: yes" in out


def test_compare_rt_tv_refuses_the_spine_before_the_link_work(tmp_path, capsys,
                                                              monkeypatch):
    def refuse(*_):
        raise AssertionError("tr_manifold ran before the spine was read")

    monkeypatch.setattr(inv, "tr_manifold", refuse)
    header, over = tmp_path / "header.txt", tmp_path / "over.txt"
    header.write_text("link\nend\n")
    over.write_text(f"spine\ncomponents {sp.MAX_COMPONENTS + 1}\nend\n")
    for path, flags in ((header, []), (over, ["--no-euler-check"])):
        code, out, err = invoke(capsys, "compare-rt-tv", "--link", link("hopf.txt"),
                                "--spine", str(path), *flags)
        assert (code, out) == (1, ""), path
        assert err.startswith("error:"), err


def test_values_past_the_digit_limit_are_refused_before_any_output(tmp_path, capsys):
    # 1,500 components, each with one triple line (c, c, c): at these x, y,
    # z the exact value's integers pass Python's int-to-text limit, and so
    # do those of c on 21,000 indices; each command exits 1 with nothing on
    # stdout, compare-rt-tv too, which prints two values
    lines = tmp_path / "lines.txt"
    lines.write_text(sp.Spine(1500, tuple((c, c, c) for c in range(1500)), ()).render())
    xyz = ["-x=2/3", "-y=-5/7", "-z=3", "--no-euler-check"]
    message = (f"error: the exact value has an integer of more than "
               f"{sys.get_int_max_str_digits()} digits, Python's limit for converting "
               f"an integer to text; --output float prints the value\n")
    for argv in ([*xyz, "--output", "exact", "tv-spine", str(lines)],
                 [*xyz, "tv-spine", str(lines)],
                 ["c-function", ",".join(map(str, range(21000)))],
                 [*xyz, "compare-rt-tv", "--link", link("empty.txt"), "--spine", str(lines)]):
        assert invoke(capsys, *argv) == (1, "", message), argv[-1][:40]
    code, out, err = invoke(capsys, *xyz, "--output", "float", "tv-spine", str(lines))
    assert (code, err) == (0, ""), err
    assert out.startswith("tv: (")


def test_hopf_framed_matches_lens_closed_form(capsys):
    for framings in ("1,2", "0,-1,3", "4"):
        k = str(framings.count(",") + 1)
        code, out, _ = invoke(capsys, "hopf", k, "--framings", framings)
        assert code == 0
        code2, out2, _ = invoke(capsys, "lens", "--framings", framings)
        assert code2 == 0
        assert out.split(":", 1)[1] == out2.split(":", 1)[1]


def test_check_axioms(capsys):
    code, out, _ = invoke(capsys, "check-axioms", "--seed", "5")
    assert code == 0
    assert "all 11 identities passed" in out
    assert "seed 5" in out


def test_check_axioms_reports_failures(capsys, monkeypatch):
    # the twist with its sign flipped breaks the three identities it
    # enters; the module swap does not use it
    twist = cat.twist
    monkeypatch.setattr(cat, "twist", lambda word, theory, sign=1: twist(word, theory, -sign))
    code, out, err = invoke(capsys, "check-axioms")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("  FAIL  ")] \
        == ["twist-braiding", "duality-twist", "twist-unit-matrix"]
    assert lines[-2:] == ["3 of 11 identities FAILED",
                          "module-swap identities passed on 5 triples"]
    monkeypatch.setattr(cat, "twist", twist)
    failure = [(("A", "A", "A"), "swap-12")]
    monkeypatch.setattr(sp, "module_iso_check", lambda theory: sp.ModuleIsoReport(failure, 5))
    code, out, err = invoke(capsys, "check-axioms")
    assert (code, err) == (2, "")
    assert out.splitlines()[-2:] == ["all 11 identities passed (230 cases)",
                                     f"module-swap identities FAILED: {failure}"]


# one call of every subcommand, hopf and lens in both of their forms
EVERY_COMMAND = [
    ["eval-link", link("trefoil.txt")], ["tr-link", link("trefoil.txt")],
    ["tr-manifold", link("trefoil_framed1.txt")], ["hopf", "3"],
    ["hopf", "3", "--framings=0,3,-1"], ["lens", "7", "2"], ["lens", "--framings=2,-3,4"],
    ["c-function", "1,3,4"], ["tv-spine", spine("sphere.txt")],
    ["t-spine", spine("sphere.txt")],
    ["compare-rt-tv", "--link", link("unknot_framed4.txt"), "--spine", spine("sphere.txt")],
    ["check-axioms"]]


def test_no_command_inverts_a_field_element(any_theory, capsys, monkeypatch):
    # eps, s and D have closed-form inverses, kept on the theory, so the
    # norm tower of Scalar.invert serves only its callers outside fibcat
    # (and a rational, which it inverts directly); the sweep's tables are
    # rebuilt, so they are checked too
    invert = Scalar.invert

    def guarded(self: Scalar) -> Scalar:
        assert self.is_rational, f"inverted {self}"
        return invert(self)

    monkeypatch.setattr(Scalar, "invert", guarded)
    tg._table.cache_clear()
    theory = ["--epsilon", any_theory.epsilon_sign, "--beta", any_theory.beta_sign,
              "-x=2/3", "-y=-5/7", "-z=3"]
    for argv in EVERY_COMMAND:
        code, _, err = invoke(capsys, *theory, *argv)
        assert (code, err) == (0, ""), argv


# the fibcat modules a fresh process loads to run each command: category
# and scalars with the cli, then only what the command calls; invariants
# imports spines and tangles
SPINE_MODULES = ["fibcat.category", "fibcat.cli", "fibcat.scalars", "fibcat.spines"]
LINK_MODULES = ["fibcat.category", "fibcat.cli", "fibcat.scalars", "fibcat.tangles"]
ALL_MODULES = sorted({*SPINE_MODULES, *LINK_MODULES, "fibcat.invariants"})
LOADS = {"check-axioms": SPINE_MODULES, "tv-spine": SPINE_MODULES,
         "t-spine": SPINE_MODULES, "eval-link": LINK_MODULES}

RUN_AND_LIST_MODULES = """
import sys
from fibcat.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
print(sorted(m for m in sys.modules if m.startswith("fibcat.")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[argv[0] for argv in EVERY_COMMAND])
def test_command_loads_only_its_modules(capsys, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST_MODULES, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{LOADS.get(argv[0], ALL_MODULES)}\n"
    assert proc.stdout == invoke(capsys, *argv)[1]


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_borromean_fixture_is_the_three_torus(capsys, theory):
    # 0-surgery on the Borromean rings is T^3, whose tr is dim V(T^2) = 2
    code, out, err = invoke(capsys, "--epsilon", theory.epsilon_sign,
                            "--beta", theory.beta_sign, f"-x={theory.x}",
                            f"-y={theory.y}", f"-z={theory.z}", "--output", "exact",
                            "tr-manifold", link("borromean0.txt"))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["framings: [0, 0, 0], signature: 0", "tr: 2"]


@pytest.mark.parametrize("theory", PARAMETER_THEORIES, ids=theory_id)
def test_compare_rt_tv_on_the_three_torus(capsys, theory):
    # T^3 on both sides of the paper's identity: 0-surgery on the
    # Borromean rings against the cube's dual spine; S^3 is told apart
    flags = ["--epsilon", theory.epsilon_sign, "--beta", theory.beta_sign,
             f"-x={theory.x}", f"-y={theory.y}", f"-z={theory.z}"]
    for name, expected, verdict in (("borromean0.txt", 0, "match: yes"),
                                    ("empty.txt", 2, "match: NO")):
        code, out, err = invoke(capsys, *flags, "compare-rt-tv",
                                "--link", link(name), "--spine", spine("t3.txt"))
        assert (code, err) == (expected, ""), name
        assert out.splitlines()[-1] == verdict, out


def test_unknown_command(capsys):
    code, _, err = invoke(capsys, "definitely-not-a-command")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("argv", [[], ["--epsilon", "neg"]])
def test_no_command_is_a_usage_error(capsys, argv):
    # like every other usage failure: nothing on stdout, the error on stderr
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert "error:" in err and "COMMAND" in err


def test_missing_file(capsys):
    code, _, err = invoke(capsys, "tr-link", "/nonexistent/path.txt")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("link\ncup 0\ncap 5\nend\n")
    code, _, err = invoke(capsys, "tr-link", str(bad))
    assert code == 1
    assert "cap at 5" in err


def test_theory_flags_after_subcommand(capsys):
    _, out_pos, _ = invoke(capsys, "hopf", "2", "--output", "float")
    _, out_neg, _ = invoke(capsys, "hopf", "2", "--output", "float",
                           "--epsilon", "neg")
    assert out_pos != out_neg


def _loose_spine(tmp_path) -> str:
    # fails the Euler check unless --no-euler-check is given
    path = tmp_path / "loose.txt"
    path.write_text("spine\ncomponents 2\nedge 0 1 1\nend\n")
    return str(path)


# Each global option with a value whose effect shows on the given command
# (x, y, z leave every invariant unchanged, but 0 is refused).
GLOBAL_OPTIONS = [
    (["--epsilon", "neg"], ["hopf", "2"]),
    (["--beta", "minus"], ["tr-link", link("trefoil.txt")]),
    (["-x", "0"], ["hopf", "2"]),
    (["-y", "0"], ["hopf", "2"]),
    (["-z", "0"], ["hopf", "2"]),
    (["--output", "exact"], ["hopf", "2"]),
    (["--seed", "5"], ["check-axioms"]),
    (["--no-euler-check"], ["tv-spine", "LOOSE"]),
]


@pytest.mark.parametrize("option, command", GLOBAL_OPTIONS,
                         ids=[option[0] for option, _ in GLOBAL_OPTIONS])
def test_global_option_before_or_after_subcommand(capsys, tmp_path, option, command):
    command = [_loose_spine(tmp_path) if a == "LOOSE" else a for a in command]
    default = invoke(capsys, *command)
    before = invoke(capsys, *option, *command)
    after = invoke(capsys, *command, *option)
    assert before == after
    assert before != default


@pytest.mark.parametrize("side", ["before", "after"])
def test_global_options_do_not_leak_between_calls(capsys, tmp_path, side):
    every = ["--epsilon", "neg", "--beta", "minus", "-x", "0", "-y", "0",
             "-z", "0", "--output", "float", "--seed", "5", "--no-euler-check"]
    for command in (["hopf", "2"], ["tr-link", link("trefoil.txt")],
                    ["check-axioms"], ["tv-spine", _loose_spine(tmp_path)]):
        default = invoke(capsys, *command)
        if side == "before":
            invoke(capsys, *every, *command)
        else:
            invoke(capsys, *command, *every)
        assert invoke(capsys, *command) == default


@pytest.mark.parametrize("argv", [["--help"], ["hopf", "--help"], ["lens", "--help"]])
def test_help_lists_global_options(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    for flag in ("--epsilon pos|neg", "--beta plus|minus", "-x X", "-y Y",
                 "-z Z", "--output {exact,float,both}", "--seed SEED",
                 "--no-euler-check"):
        assert flag in out
    # and how to give a negative value
    assert "joined to its option with '=': -y=-5/7, --framings=-1,2" in " ".join(out.split())


def test_environment_does_not_select_the_theory(capsys, monkeypatch):
    # only --epsilon and --beta choose the signs
    commands = [["hopf", "2"], ["tr-link", link("trefoil.txt")]]
    default = [invoke(capsys, *command) for command in commands]
    monkeypatch.setenv("FIBCAT_EPSILON", "neg")
    monkeypatch.setenv("FIBCAT_BETA", "minus")
    assert [invoke(capsys, *command) for command in commands] == default


def test_output_reproducible(capsys):
    first = invoke(capsys, "check-axioms", "--seed", "9")
    second = invoke(capsys, "check-axioms", "--seed", "9")
    assert first == second
    one = invoke(capsys, "tr-manifold", link("unknot_framed4.txt"))
    two = invoke(capsys, "tr-manifold", link("unknot_framed4.txt"))
    assert one == two


def test_negative_component_count(tmp_path, capsys):
    bad = tmp_path / "negative.txt"
    bad.write_text("spine\ncomponents -1\nend\n")
    code, out, err = invoke(capsys, "tv-spine", str(bad), "--no-euler-check")
    assert code == 1
    assert out == ""
    assert "component count must be non-negative" in err


def test_euler_override(tmp_path, capsys):
    loose = tmp_path / "loose.txt"
    loose.write_text("spine\ncomponents 2\nedge 0 1 1\nend\n")
    code, _, err = invoke(capsys, "tv-spine", str(loose))
    assert code == 1
    code2, out, _ = invoke(capsys, "tv-spine", str(loose), "--no-euler-check")
    assert code2 == 0
    assert "tv:" in out


def test_many_components_without_vertices(tmp_path, capsys):
    # 2^26 colorings, but no factor joins two components
    empty = tmp_path / "empty26.txt"
    empty.write_text("spine\ncomponents 26\nend\n")
    code, out, err = invoke(capsys, "tv-spine", str(empty), "--no-euler-check")
    assert code == 0, err
    assert out.startswith("tv:")


def test_elimination_width_limit(tmp_path, capsys):
    # a triple line on every pair of 17 components makes them one clique,
    # so any elimination order joins all 17
    lines = ["spine", "components 17"]
    lines += [f"edge {i} {j} {j}" for i in range(17) for j in range(i + 1, 17)]
    dense = tmp_path / "clique17.txt"
    dense.write_text("\n".join(lines + ["end"]) + "\n")
    code, out, err = invoke(capsys, "tv-spine", str(dense), "--no-euler-check")
    assert code == 1
    assert out == ""
    assert "elimination width 17 exceeds 16" in err


def test_component_count_limit(tmp_path, capsys):
    # each empty component multiplies the sum by 1 + eps, so the count
    # alone sets the cost and the size of the coordinates
    at, over = tmp_path / "at.txt", tmp_path / "over.txt"
    at.write_text(f"spine\ncomponents {sp.MAX_COMPONENTS}\nend\n")
    over.write_text(f"spine\ncomponents {sp.MAX_COMPONENTS + 1}\nend\n")
    code, out, err = invoke(capsys, "tv-spine", str(at), "--no-euler-check")
    assert code == 0, err
    assert out.startswith("tv:")
    for command in ("tv-spine", "t-spine"):
        code, out, err = invoke(capsys, command, str(over), "--no-euler-check")
        assert (code, out) == (1, "")
        assert err == (f"error: component count {sp.MAX_COMPONENTS + 1} "
                       f"exceeds {sp.MAX_COMPONENTS}\n")


# -- every mutated input exits 0 or 1 -----------------------------------------

_BAD_LINES = ["zap 0", "cup", "cup x", "cap 0 1", "xp -1", "tp 9", "framing",
              "framing 0", "framing 0=x", "link", "end", "spine", "components x",
              "edge 0 1", "edge 0 x 1", "vertex 0 0 0", "= = ="]


def _mutant(lines: list[str], rng: random.Random) -> str:
    """``lines`` after one to three random edits: drop, duplicate or swap
    a line, change one number to a small one, insert a bad line, or add
    a framing line."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6) if lines else 4
        i = rng.randrange(len(lines)) if lines else 0
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:
            numbers = list(re.finditer(r"-?\d+", lines[i]))
            if numbers:
                m = rng.choice(numbers)
                lines[i] = f"{lines[i][:m.start()]}{rng.randint(-1, 5)}{lines[i][m.end():]}"
        elif edit == 4:
            lines.insert(i, rng.choice(_BAD_LINES))
        else:
            lines.append(f"framing {rng.randint(-1, 4)}={rng.randint(-3, 3)}")
    return "\n".join(lines) + "\n"


def test_mutated_inputs_exit_cleanly(capsys, tmp_path):
    # seeded edits of small link and spine files; the inputs stay small
    # (width <= 6, numbers <= 5), so no call needs a size bound
    rng = random.Random("cli-contract")
    links = [path.read_text() for path in sorted((FIXTURES / "links").iterdir())]
    for _ in range(8):
        diagram = LinkDiagram(tuple(random_morse_word(rng, width=6)))
        framings = [rng.randint(-3, 3) for _ in range(diagram.n_components)]
        links.append(diagram.with_framings(framings).render())
    spines = [(FIXTURES / "spines" / "sphere.txt").read_text(),
              "spine\ncomponents 2\nedge 0 1 1\nend\n",
              "spine\ncomponents 4\nedge 0 1 1\nedge 1 1 1\nvertex 0 1 1 1 1 1\n"
              "edge 2 3 3\nedge 3 3 3\nvertex 2 3 3 3 3 3\nend\n"]
    path = tmp_path / "input.txt"
    cases = [(links, ["tr-link"], ["eval-link"], ["tr-manifold"]),
             (spines, ["tv-spine"], ["t-spine"], ["tv-spine", "--no-euler-check"],
              ["t-spine", "--no-euler-check"])]
    for bases, *commands in cases:
        for _ in range(200):
            text = _mutant(rng.choice(bases).splitlines(), rng)
            path.write_text(text)
            for command in commands:
                code, _, err = invoke(capsys, *command, str(path))
                assert code in (0, 1), (command, text, err)


# -- seeded argument fuzz: every argv exits 0, 1 or 2 --------------------------

_BIG = "123456789012345678901234567890"     # a 30-digit part of a rational
_MALFORMED = ["", "x", "1.5e", "--", "=", "1/0", "0x10"]


def _fuzz_value(rng: random.Random, kind: str, over_bound: tuple[str, ...] = ()) -> str:
    """A value for an option or argument: a plain one, zero, a negative
    one or a malformed one.  Sizes that would do work stay small: hopf
    K <= 40, lens P and Q within +-50, at most eight framings or indices.
    Sizes past a bound are refused before any work: hopf K over
    ``tangles.MAX_COMPONENTS`` (up to 10^30), a lens framing list one over
    ``MAX_LENS_FRAMINGS``, and the spine files ``over_bound``."""
    if rng.random() < 0.1:
        return rng.choice(_MALFORMED)
    if kind == "rational":
        return rng.choice(["0", "1", "-1", "2/3", "-5/7", "3", _BIG, f"-{_BIG}",
                           f"{_BIG}/{_BIG[::-1]}", f"-1/{_BIG}", f"{_BIG}/7"])
    if kind == "k":
        if rng.random() < 0.6:
            return str(rng.randint(-3, 40))
        over = tg.MAX_COMPONENTS + 1
        return str(rng.choice([over, rng.randint(over, 10 ** 9), 10 ** 30]))
    if kind == "pq":
        return str(rng.randint(-50, 50))
    if kind == "framings" and rng.random() < 0.4:
        return ",".join(["2"] * (inv.MAX_LENS_FRAMINGS + 1))
    if kind in ("list", "framings"):
        return ",".join(str(rng.randint(-9, 9)) for _ in range(rng.randint(0, 8)))
    if kind == "colors":
        return "".join(rng.choice("1Aax ") for _ in range(rng.randint(0, 4)))
    if kind == "link":
        return rng.choice([link("hopf.txt"), link("trefoil_framed1.txt"),
                           link("unknot.txt"), link("unlink2.txt"), link("empty.txt"),
                           spine("sphere.txt"), link("missing.txt")])
    if kind == "spine":
        return rng.choice([spine("sphere.txt")] * 3
                          + [link("hopf.txt"), spine("missing.txt"), *over_bound])
    return rng.choice({"epsilon": ["pos", "neg", "positive", "negative", "zero"],
                       "beta": ["plus", "minus", "neither"],
                       "output": ["exact", "float", "both", "json"],
                       "seed": ["0", "1", "-7", "12345"]}[kind])


_GLOBAL = {"--epsilon": "epsilon", "--beta": "beta", "-x": "rational",
           "-y": "rational", "-z": "rational", "--output": "output", "--seed": "seed",
           "--no-euler-check": None}

# per command: its arguments (a required option as its name and kind),
# then its own options
_COMMANDS = {
    "check-axioms": ([], {}),
    "eval-link": (["link"], {"--colors": "colors"}),
    "tr-link": (["link"], {}),
    "tr-manifold": (["link"], {}),
    "hopf": (["k"], {"--framings": "list"}),
    "lens": (["pq", "pq"], {"--framings": "framings"}),
    "c-function": (["list"], {}),
    "tv-spine": (["spine"], {}),
    "t-spine": (["spine"], {}),
    "compare-rt-tv": ([("--link", "link"), ("--spine", "spine")], {}),
}


def _fuzz_options(rng: random.Random, options: dict, most: int) -> list[str]:
    """At most ``most`` of ``options``, each missing its value, written
    apart, joined with '=', or repeated."""
    out: list[str] = []
    for name in rng.sample(sorted(options), rng.randint(0, min(most, len(options)))):
        kind = options[name]
        for _ in range(2 if rng.random() < 0.15 else 1):
            if kind is None:
                out.append(name)
                continue
            value = _fuzz_value(rng, kind)
            form = rng.randrange(10)
            if form == 0:
                out.append(name)                    # its value missing
            elif form < 4:
                out.append(f"{name}={value}")
            else:
                out += [name, value]
    return out


def _fuzz_argv(rng: random.Random, over_bound: tuple[str, ...]) -> list[str]:
    command = rng.choice(sorted(_COMMANDS) + ["frobnicate"])
    positional, options = _COMMANDS.get(command, ([], {}))
    args = [[kind[0], _fuzz_value(rng, kind[1], over_bound)] if isinstance(kind, tuple)
            else [_fuzz_value(rng, kind, over_bound)] for kind in positional]
    if command == "lens" and rng.random() < 0.3:
        # P = Q + 1 expands to Q twos, past MAX_LENS_FRAMINGS
        over = inv.MAX_LENS_FRAMINGS + 1
        q = rng.choice([over, rng.randint(over, 10 ** 9), 10 ** 30])
        args = [[str(q + 1)], [str(q)]]
    if args and rng.random() < 0.2:
        del args[rng.randrange(len(args))]          # a missing argument
    if rng.random() < 0.1:
        args.append([_fuzz_value(rng, "pq")])       # one too many
    args.append(_fuzz_options(rng, options, 2))
    rng.shuffle(args)
    before, after = _fuzz_options(rng, _GLOBAL, 2), _fuzz_options(rng, _GLOBAL, 2)
    return before + [command] + [token for group in args for token in group] + after


@pytest.mark.parametrize("argv", [
    ["-x=--", "hopf", "2"], ["--epsilon=--", "hopf", "2"], ["--output=--", "hopf", "2"],
    ["--seed=--", "check-axioms"], ["hopf", "2", "--framings=--"],
    ["lens", "--framings=--"], ["eval-link", link("hopf.txt"), "--colors=--"],
    ["compare-rt-tv", "--link=--", f"--spine={spine('sphere.txt')}"]])
def test_option_value_double_dash_is_refused(capsys, argv):
    # argparse before 3.13 reads "--opt=--" as an empty list, unconverted
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(("error:", "usage:")) and "Traceback" not in err, err


def test_seeded_argument_fuzz_exits_cleanly(tmp_path, capsys):
    over_bound = []
    for count in (sp.MAX_COMPONENTS + 1, 10 ** 30):
        path = tmp_path / f"components{count}.txt"
        path.write_text(f"spine\ncomponents {count}\nend\n")
        over_bound.append(str(path))
    rng = random.Random("cli-argv-fuzz")
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        argv = _fuzz_argv(rng, tuple(over_bound))
        code, _, err = invoke(capsys, *argv)
        assert code in codes, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes[code] += 1
    # the draw reaches both the working and the refusing paths
    assert codes[0] > 20 and codes[1] > 20, codes
