"""Command-line front end: parse link/spine files, check the category
axioms, and print every invariant in exact and floating form.

Each global option is declared once, with a SUPPRESS default, on a parent
parser that the main parser and every subcommand share; each call parses
into a fresh namespace filled from ``_DEFAULTS``, so an option may come
before or after the subcommand.  The parser is built once per process."""

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


_DEFAULTS = {"epsilon": "pos", "beta": "plus", "x": Fraction(1), "y": Fraction(1),
             "z": Fraction(1), "output": "both", "seed": 0,
             "no_euler_check": False}


_NEGATIVE_VALUES = ("A value that starts with '-' and is not a plain integer "
                    "must be joined to its option with '=': -y=-5/7, "
                    "--framings=-1,2.  Written apart (-y -5/7) it is read as "
                    "an option, and the command fails.")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--epsilon", metavar="pos|neg", choices=tuple(_EPS_CHOICES),
                        help="sign of eps (default pos; also positive, negative)")
    common.add_argument("--beta", metavar="plus|minus", choices=("plus", "minus"),
                        help="choice of braiding constant (default plus)")
    common.add_argument("-x", type=_fraction,
                        help="associator parameter (nonzero rational)")
    common.add_argument("-y", type=_fraction,
                        help="duality parameter (nonzero rational)")
    common.add_argument("-z", type=_fraction,
                        help="pairing parameter (nonzero rational)")
    common.add_argument("--output", choices=("exact", "float", "both"),
                        help="value rendering mode")
    common.add_argument("--seed", type=int,
                        help="seed for the randomized checks")
    common.add_argument("--no-euler-check", action="store_true",
                        help="skip spine validation identities")
    parser = _Parser(
        prog="fibcat", parents=[common],
        description="Exact link and 3-manifold invariants from the "
                    "two-simple-object modular category.",
        epilog=_NEGATIVE_VALUES)
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

    framings_help = "one integer per circle of the chain"
    p = sub.add_parser("hopf", parents=[common],
                       help="chain of k linked circles", epilog=_NEGATIVE_VALUES)
    p.add_argument("k", type=int)
    p.add_argument("--framings", default=None, metavar="F1,F2,..", help=framings_help)

    p = sub.add_parser("lens", parents=[common], help="lens space invariant",
                       epilog=_NEGATIVE_VALUES)
    p.add_argument("p", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--framings", default=None, metavar="F1,F2,..", help=framings_help)

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
    """Comma-separated integers; a blank text is the empty list, and an
    empty entry is refused."""
    if not text.strip():
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad integer list {text!r}") from None


def _parse_framings(text: str) -> tuple[int, ...]:
    framings = _parse_int_list(text)
    if not framings:
        raise CliError("--framings needs at least one framing")
    return framings


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


_PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv, argparse.Namespace(**_DEFAULTS))
        if args.command is None:
            _PARSER.print_usage()
            return 1
        # argparse before 3.13 reads the value of "--opt=--" as an empty
        # list, which no type or choice check sees
        for name, value in vars(args).items():
            if value == []:
                raise CliError(f"option {name!r} needs a value")
        theory = Theory(epsilon_sign=_EPS_CHOICES[args.epsilon], beta_sign=args.beta,
                        x=args.x, y=args.y, z=args.z)
        return _dispatch(args, theory)
    # the link and spine parse and validation errors are ValueErrors
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits only after printing help (``error`` is overridden)
        return exc.code


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
        sigma = inv.signature(inv.linking_matrix(diagram))
        # before any output, since it may refuse the diagram
        value = inv.tr_manifold(diagram, theory)
        print(f"framings: {diagram.framings()}, signature: {sigma}")
        print(f"tr: {_render(value, mode)}")
        return 0

    if args.command == "hopf":
        framings = None if args.framings is None else _parse_framings(args.framings)
        diagram = tg.build_hopf_chain(args.k)
        if framings is None:
            value = inv.tr_link(diagram, theory)
            closed = inv.hopf_tr_closed_form(args.k, theory)
            label = "tr (link)"
        else:
            value = inv.tr_manifold(diagram.with_framings(framings), theory)
            closed = inv.lens_tr_closed_form(framings, theory)
            label = "tr (manifold)"
        if value != closed:
            raise CliError("diagram value disagrees with the closed form")
        print(f"{label}: {_render(value, mode)}")
        return 0

    if args.command == "lens":
        if args.framings is not None:
            framings = _parse_framings(args.framings)
        elif args.p is not None and args.q is not None:
            framings = inv.continued_fraction_framings(args.p, args.q)
        else:
            raise CliError("lens needs either P Q or --framings")
        # before any output, since it may refuse the framings
        value = inv.lens_tr_closed_form(framings, theory)
        if args.framings is None:
            print(f"framings: {list(framings)}")
        print(f"tr: {_render(value, mode)}")
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
        # the spine first: refusing it costs far less than tr_manifold
        spine = sp.parse_spine(_read(args.spine),
                               euler_check=not args.no_euler_check)
        tv_value = sp.tv(spine, theory)
        tr = inv.tr_manifold(diagram, theory)
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``fibcat ... | head``): send what
        # is still buffered to devnull so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
