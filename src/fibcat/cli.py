"""Command-line front end: parse link/spine files, check the category
axioms, and print every invariant in exact and floating form."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import category as cat
from . import invariants as inv
from . import spines as sp
from . import tangles as tg
from .scalars import Scalar, Theory

_EPS_CHOICES = {"pos": "positive", "positive": "positive",
                "neg": "negative", "negative": "negative"}
_BETA_CHOICES = {"plus": "plus", "minus": "minus"}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _add_globals(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same options hang off the main parser (with real defaults) and
    # off every subcommand (defaulting to SUPPRESS so they override)
    d = argparse.SUPPRESS if suppress else None

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--epsilon", default=d, metavar="pos|neg",
                        help="sign of eps (default positive; env FIBCAT_EPSILON)")
    parser.add_argument("--beta", default=d, metavar="plus|minus",
                        help="choice of braiding constant (env FIBCAT_BETA)")
    parser.add_argument("-x", type=_fraction, default=default(Fraction(1)),
                        help="associator parameter (nonzero rational)")
    parser.add_argument("-y", type=_fraction, default=default(Fraction(1)),
                        help="duality parameter (nonzero rational)")
    parser.add_argument("-z", type=_fraction, default=default(Fraction(1)),
                        help="pairing parameter (nonzero rational)")
    parser.add_argument("--output", choices=("exact", "float", "both"),
                        default=default("both"), help="value rendering mode")
    parser.add_argument("--seed", type=int, default=default(0),
                        help="seed for the randomized checks")
    parser.add_argument("--no-euler-check", action="store_true",
                        default=default(False),
                        help="skip spine validation identities")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fibcat",
        description="Exact link and 3-manifold invariants from the "
                    "two-simple-object modular category.")
    _add_globals(parser, suppress=False)
    common = _Parser(add_help=False)
    _add_globals(common, suppress=True)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    sub.add_parser("check-axioms", parents=[common],
                   help="run the category axiom suite")

    p = sub.add_parser("eval-link", parents=[common],
                       help="colored evaluation of a link diagram")
    p.add_argument("file")
    p.add_argument("--colors", default=None,
                   help="string over {1,A}, one letter per component "
                        "in order of first appearance (default: all A)")

    p = sub.add_parser("tr-link", parents=[common],
                       help="link invariant of a diagram")
    p.add_argument("file")

    p = sub.add_parser("tr-manifold", parents=[common],
                       help="surgery invariant of a framed-link file")
    p.add_argument("file")

    p = sub.add_parser("hopf", parents=[common],
                       help="chain of k linked circles")
    p.add_argument("k", type=int)
    p.add_argument("--framings", default=None, metavar="F1,F2,..")

    p = sub.add_parser("lens", parents=[common], help="lens space invariant")
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--framings", default=None, metavar="F1,F2,..")

    p = sub.add_parser("c-function", parents=[common],
                       help="run-product function on indices")
    p.add_argument("indices", metavar="I1,I2,..")

    p = sub.add_parser("tv-spine", parents=[common],
                       help="state-sum invariant of a spine file")
    p.add_argument("file")

    p = sub.add_parser("t-spine", parents=[common],
                       help="golden-ratio state sum of a spine file")
    p.add_argument("file")

    p = sub.add_parser("compare-rt-tv", parents=[common],
                       help="check |tr|^2 (eps+2) against the spine state sum")
    p.add_argument("--link", required=True)
    p.add_argument("--spine", required=True)

    return parser


def _theory_from_args(args) -> Theory:
    eps = args.epsilon or os.environ.get("FIBCAT_EPSILON", "pos")
    beta = args.beta or os.environ.get("FIBCAT_BETA", "plus")
    if eps not in _EPS_CHOICES:
        raise CliError(f"bad epsilon sign {eps!r} (want pos or neg)")
    if beta not in _BETA_CHOICES:
        raise CliError(f"bad beta sign {beta!r} (want plus or minus)")
    try:
        return Theory(epsilon_sign=_EPS_CHOICES[eps],
                      beta_sign=_BETA_CHOICES[beta],
                      x=args.x, y=args.y, z=args.z)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _render(value: Scalar, mode: str) -> str:
    if mode == "exact":
        return value.render()
    if mode == "float":
        return value.render_float()
    return f"{value.render()}   ~ {value.render_float()}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise CliError(f"bad integer list {text!r}") from None


def _coloring(diagram: tg.LinkDiagram, spec: str | None):
    if spec is None:
        return tg.all_a_coloring(diagram)
    try:
        colors = cat.parse_word(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if len(colors) != diagram.n_components:
        raise CliError(f"coloring {spec!r} names {len(colors)} of "
                       f"{diagram.n_components} components")
    return colors


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage()
            return 1
        theory = _theory_from_args(args)
        return _dispatch(args, theory)
    except (CliError, tg.LinkParseError, tg.LinkValidationError,
            sp.SpineParseError, sp.SpineValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, theory: Theory) -> int:
    mode = args.output

    if args.command == "check-axioms":
        report = cat.axiom_suite(theory, seed=args.seed)
        iso = sp.module_iso_check(theory)
        print(report.summary())
        if iso.all_identities:
            print(f"module-swap identities passed on {iso.checked} triples")
        else:
            print(f"module-swap identities FAILED: {iso.failures}")
        return 0 if report.all_passed and iso.all_identities else 2

    if args.command == "eval-link":
        diagram = tg.parse_link(_read(args.file))
        colors = _coloring(diagram, args.colors)
        value = tg.evaluate(diagram, colors, theory)
        print(f"components: {diagram.n_components}")
        print(f"evaluation: {_render(value, mode)}")
        return 0

    if args.command == "tr-link":
        diagram = tg.parse_link(_read(args.file))
        per = diagram.self_writhes()
        print(f"components: {diagram.n_components}, writhe: {sum(per)} {per}")
        print(f"tr: {_render(inv.tr_link(diagram, theory), mode)}")
        return 0

    if args.command == "tr-manifold":
        diagram = tg.parse_link(_read(args.file))
        framed = inv.FramedLink.from_diagram(diagram)
        matrix = inv.linking_matrix(framed)
        print(f"framings: {list(framed.framings)}, "
              f"signature: {inv.signature(matrix)}")
        print(f"tr: {_render(inv.tr_manifold(framed, theory), mode)}")
        return 0

    if args.command == "hopf":
        framings = _parse_int_list(args.framings) if args.framings else None
        diagram = tg.build_hopf_chain(args.k)
        if framings is None:
            value = inv.tr_link(diagram, theory)
            closed = inv.hopf_tr_closed_form(args.k, theory)
            label = "tr (link)"
        else:
            framed = inv.FramedLink.from_diagram(diagram, framings)
            value = inv.tr_manifold(framed, theory)
            closed = inv.lens_tr_closed_form(framings, theory)
            label = "tr (manifold)"
        if value != closed:
            raise CliError("diagram value disagrees with the closed form")
        print(f"{label}: {_render(value, mode)}")
        return 0

    if args.command == "lens":
        if args.framings is not None:
            framings = _parse_int_list(args.framings)
        elif args.p is not None and args.q is not None:
            framings = inv.continued_fraction_framings(args.p, args.q)
            print(f"framings: {list(framings)}")
        else:
            raise CliError("lens needs either P Q or --framings")
        print(f"tr: {_render(inv.lens_tr_closed_form(framings, theory), mode)}")
        return 0

    if args.command == "c-function":
        indices = _parse_int_list(args.indices)
        print(f"c{indices}: {_render(inv.c_function(indices, theory), mode)}")
        return 0

    if args.command in ("tv-spine", "t-spine"):
        spine = sp.parse_spine(_read(args.file),
                               euler_check=not args.no_euler_check)
        if args.command == "tv-spine":
            value = sp.tv(spine, theory)
            print(f"tv: {_render(value, mode)}")
        else:
            value = sp.t_epsilon(spine, theory)
            print(f"t: {_render(value, mode)}")
        return 0

    if args.command == "compare-rt-tv":
        diagram = tg.parse_link(_read(args.link))
        framed = inv.FramedLink.from_diagram(diagram)
        tr = inv.tr_manifold(framed, theory)
        spine = sp.parse_spine(_read(args.spine),
                               euler_check=not args.no_euler_check)
        tv_value = sp.tv(spine, theory)
        squared = tr.conjugate() * tr * (theory.epsilon + 2)
        print(f"|tr|^2 (eps+2): {_render(squared, mode)}")
        print(f"tv:             {_render(tv_value, mode)}")
        if squared == tv_value:
            print("match: yes")
            return 0
        print("match: NO")
        return 2

    raise CliError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
