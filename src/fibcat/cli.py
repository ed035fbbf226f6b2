"""Command-line front end: parse link/spine files, check the category
axioms, and print every invariant in exact and floating form.

Each global option is declared once, with a SUPPRESS default, on a parent
parser that the main parser and every subcommand share; each call parses
into a fresh namespace filled from ``_DEFAULTS``, so an option may come
before or after the subcommand.  The parser is built once per process.

A fresh process loads only the modules its command runs.  ``category`` and
``scalars`` load with this module, as ``_int`` reads integers with
``category`` while the arguments are parsed.  Each branch of ``_dispatch``
imports the rest: ``check-axioms``, ``tv-spine`` and ``t-spine`` load
``spines``, ``eval-link`` loads ``tangles``, and every command that calls
``invariants`` loads all three, since ``invariants`` imports the other two."""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import category as cat
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


# The largest exponent a rational option may carry, in magnitude: Python's
# default cap on the digits of an int, which bounds the digit strings
# already.  ``Fraction('1e10000000')`` alone builds 10^(10^7), for 10 s.
MAX_EXPONENT = 4300


def _fraction(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    try:
        # Fraction, like int, also reads underscores and other scripts' digits
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int(text: str) -> int:
    try:
        return cat.parse_int(text)
    except ValueError:
        # the message argparse gives for ``type=int``
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
    common.add_argument("--seed", type=_int,
                        help="seed for the randomized checks")
    common.add_argument("--no-euler-check", action="store_true",
                        help="skip spine validation identities")
    parser = _Parser(
        prog="fibcat", parents=[common],
        description="Exact link and 3-manifold invariants from the "
                    "two-simple-object modular category.",
        epilog=_NEGATIVE_VALUES)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True,
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
    p.add_argument("k", type=_int)
    p.add_argument("--framings", default=None, metavar="F1,F2,..", help=framings_help)

    p = sub.add_parser("lens", parents=[common], help="lens space invariant",
                       epilog=_NEGATIVE_VALUES)
    p.add_argument("p", type=_int, nargs="?")
    p.add_argument("q", type=_int, nargs="?")
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
    """The value in the output mode.  Each command renders its values
    before its first print, so a refused rendering prints nothing."""
    if mode == "float":
        return value.render_float()
    try:
        exact = value.render()
    except ValueError:
        # str of an int longer than Python's limit; float output needs none
        raise CliError(f"the exact value has an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                       f"converting an integer to text; --output float prints "
                       f"the value") from None
    return exact if mode == "exact" else f"{exact}   ~ {value.render_float()}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a blank text is the empty list.  The
    first bad (or empty) entry is named by its position and 40 characters."""
    if not text.strip():
        return ()
    values = []
    for i, token in enumerate(text.split(","), 1):
        try:
            values.append(cat.parse_int(token))
        except ValueError:
            raise CliError(f"bad integer list: entry {i} is {token[:40]!r}") from None
    return tuple(values)


def _parse_framings(text: str) -> tuple[int, ...]:
    framings = _parse_int_list(text)
    if not framings:
        raise CliError("--framings needs at least one framing")
    return framings


_PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv, argparse.Namespace(**_DEFAULTS))
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
        from . import spines as sp
        report = cat.axiom_suite(theory, seed=args.seed)
        iso = sp.module_iso_check(theory)
        print(report.summary())
        if iso.all_identities:
            print(f"module-swap identities passed on {iso.checked} triples")
        else:
            print(f"module-swap identities FAILED: {iso.failures}")
        return 0 if report.all_passed and iso.all_identities else 2

    if args.command == "eval-link":
        from . import tangles as tg
        diagram = tg.parse_link(_read(args.file))
        colors = (tg.all_a_coloring(diagram) if args.colors is None
                  else cat.parse_word(args.colors))
        value = _render(tg.evaluate(diagram, colors, theory), mode)
        print(f"components: {diagram.n_components}")
        print(f"evaluation: {value}")
        return 0

    if args.command == "tr-link":
        from . import invariants as inv, tangles as tg
        diagram = tg.parse_link(_read(args.file))
        per = diagram.self_writhes()
        value = _render(inv.tr_link(diagram, theory), mode)
        print(f"components: {diagram.n_components}, writhe: {sum(per)} {per}")
        print(f"tr: {value}")
        return 0

    if args.command == "tr-manifold":
        from . import invariants as inv, tangles as tg
        diagram = tg.parse_link(_read(args.file))
        # before any output, since it may refuse the diagram
        sigma, value = inv.surgery(diagram, theory)
        value = _render(value, mode)
        print(f"framings: {diagram.framings()}, signature: {sigma}")
        print(f"tr: {value}")
        return 0

    if args.command == "hopf":
        from . import invariants as inv, tangles as tg
        framings = None if args.framings is None else _parse_framings(args.framings)
        diagram = tg.build_hopf_chain(args.k)
        if framings is None:
            value = inv.tr_link(diagram, theory)
            closed = inv.hopf_tr_closed_form(args.k, theory)
            label = "tr (link)"
        else:
            # the sum and the signature, each by two routes
            value = inv.tr_manifold(diagram.with_framings(framings), theory)
            closed = inv.lens_tr_closed_form(framings, theory)
            label = "tr (manifold)"
        if value != closed:
            raise CliError("diagram value disagrees with the closed form")
        print(f"{label}: {_render(value, mode)}")
        return 0

    if args.command == "lens":
        from . import invariants as inv
        if args.framings is not None:
            if args.p is not None:
                raise CliError("lens takes either P Q or --framings, not both")
            framings = _parse_framings(args.framings)
        elif args.p is not None and args.q is not None:
            framings = inv.continued_fraction_framings(args.p, args.q)
        else:
            raise CliError("lens needs either P Q or --framings")
        # before any output, since it may refuse the framings
        value = _render(inv.lens_tr_closed_form(framings, theory), mode)
        if args.framings is None:
            print(f"framings: {list(framings)}")
        print(f"tr: {value}")
        return 0

    if args.command == "c-function":
        from . import invariants as inv
        indices = _parse_int_list(args.indices)
        print(f"c{indices}: {_render(inv.c_function(indices, theory), mode)}")
        return 0

    if args.command in ("tv-spine", "t-spine"):
        from . import spines as sp
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
        from . import invariants as inv, spines as sp, tangles as tg
        diagram = tg.parse_link(_read(args.link))
        # the spine first: refusing it costs far less than tr_manifold
        spine = sp.parse_spine(_read(args.spine),
                               euler_check=not args.no_euler_check)
        tv_value = sp.tv(spine, theory)
        tr = inv.tr_manifold(diagram, theory)
        squared = tr.conjugate() * tr * (theory.epsilon + 2)
        squared_text, tv_text = _render(squared, mode), _render(tv_value, mode)
        print(f"|tr|^2 (eps+2): {squared_text}")
        print(f"tv:             {tv_text}")
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
