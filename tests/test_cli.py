from __future__ import annotations

from conftest import FIXTURES
from fibcat.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def link(name: str) -> str:
    return str(FIXTURES / "links" / name)


def spine(name: str) -> str:
    return str(FIXTURES / "spines" / name)


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


def test_lens_requires_arguments(capsys):
    code, _, err = invoke(capsys, "lens")
    assert code == 1
    assert "lens needs" in err


def test_c_function(capsys):
    code, out, _ = invoke(capsys, "c-function", "1,3")
    assert code == 0
    assert "c(1, 3)" in out


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


def test_unknown_command(capsys):
    code, _, err = invoke(capsys, "definitely-not-a-command")
    assert code == 1
    assert "usage" in err


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


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("FIBCAT_EPSILON", "neg")
    _, out_env, _ = invoke(capsys, "hopf", "2", "--output", "float")
    monkeypatch.delenv("FIBCAT_EPSILON")
    _, out_flag, _ = invoke(capsys, "hopf", "2", "--output", "float",
                            "--epsilon", "neg")
    assert out_env == out_flag


def test_output_reproducible(capsys):
    first = invoke(capsys, "check-axioms", "--seed", "9")
    second = invoke(capsys, "check-axioms", "--seed", "9")
    assert first == second
    one = invoke(capsys, "tr-manifold", link("unknot_framed4.txt"))
    two = invoke(capsys, "tr-manifold", link("unknot_framed4.txt"))
    assert one == two


def test_euler_override(tmp_path, capsys):
    loose = tmp_path / "loose.txt"
    loose.write_text("spine\ncomponents 2\nedge 0 1 1\nend\n")
    code, _, err = invoke(capsys, "tv-spine", str(loose))
    assert code == 1
    code2, out, _ = invoke(capsys, "tv-spine", str(loose), "--no-euler-check")
    assert code2 == 0
    assert "tv:" in out
