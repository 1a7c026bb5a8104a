"""Command-line interface.

Subcommands: curve, spectrum, g, embed, maxpoint, verify.  curve writes CSV,
or JSON with --format json; the others write JSON (rationals serialized as
"num/den" strings).  spectrum always prints the complete spectrum, g always
answers exactly, and verify always runs each suite's full fixed sweep.
Errors, argument errors included, leave as machine-readable JSON on stderr
with exit code 2, and verify exits 1 when any suite fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import curves, verify
from .crg import crg_from_json, k_rs
from .embed import DEFAULT_TIMEOUT, find_embedding
from .errors import EdcyclesError, ParameterDomainError
from .gfunction import g_endpoint, g_value
from .graphs import EXACT_SEARCH_BOUND, PowerCycleParams, graph_from_json, power_cycle
from .rationals import number_str, to_fraction
from .spectrum import clique_spectrum, gamma, power_cycle_spectrum


def _rational(text: str) -> Fraction:
    """A rational from its text.  Like _load_json, it refuses a number past
    Python's int-to-string digit limit; to_fraction refuses an exponent past
    that limit before 10**exponent is built."""
    try:
        value = to_fraction(text)
        number_str(value)  # raises SizeExceededError, a ValueError, past the limit
        return value
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a printable rational number: {text!r}") from exc


class _JsonErrorParser(argparse.ArgumentParser):
    """Argument errors raise, so they leave through main's JSON error path.

    A negative ratio such as -1/2 reads as a value, like -1 and -0.5, so an
    out-of-range p gets the range refusal, not a missing-argument error.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d+/\d+$"
        )

    def error(self, message):
        raise ParameterDomainError(message)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _emit_json(obj, path: str | None) -> None:
    _write_output(json.dumps(obj, indent=2) + "\n", path)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError:
        raise
    except (UnicodeDecodeError, RecursionError, ValueError) as exc:
        # undecodable bytes, nesting too deep, an integer past the digit limit
        raise ParameterDomainError(f"unreadable JSON in {path}: {exc}") from exc


def _graph_from_args(args):
    cycle = (args.h, args.t)
    if args.graph is not None and cycle == (None, None):
        return graph_from_json(_load_json(args.graph))
    if args.graph is None and None not in cycle:
        return power_cycle(args.h, args.t)
    raise ParameterDomainError("give either --graph FILE or both --h and --t")


def _add_common(sub, graph_input=False):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if graph_input:
        sub.add_argument("--h", type=int, default=None, help="cycle length")
        sub.add_argument("--t", type=int, default=None, help="cycle power")
        sub.add_argument("--graph", default=None, help="graph JSON file")


def cmd_curve(args) -> int:
    params = PowerCycleParams(args.h, args.t)
    if args.p:
        grid = list(args.p)
    elif args.samples is not None:
        grid = curves.uniform_p_grid(args.samples)
    else:
        # default grid: 201 uniform samples enriched with p0, 1/2, and the
        # exact branch crossings, where the curve kinks
        grid = curves.default_p_grid(params)
    samples = curves.curve_samples(params, grid)
    search = None
    if args.search and args.h <= EXACT_SEARCH_BOUND:
        spec = power_cycle_spectrum(params)
        search = [gamma(spec, p) for p in grid]
    if args.format == "csv":
        _write_output(curves.curve_csv(samples, search), args.out)
    else:
        rows = [s.to_json() for s in samples]
        if search is not None:
            for row, value in zip(rows, search):
                row["gamma_search"] = number_str(value)
        _emit_json(rows, args.out)
    return 0


def cmd_spectrum(args) -> int:
    spec = clique_spectrum(_graph_from_args(args))
    _emit_json(spec.to_json(), args.out)
    return 0


def cmd_g(args) -> int:
    K = crg_from_json(_load_json(args.crg)) if args.crg is not None else k_rs(*args.krs)
    p = args.p
    if p in (0, 1):
        value = g_endpoint(K, int(p))
        _emit_json({"p": number_str(p), "g": number_str(value), "mode": "endpoint"}, args.out)
        return 0
    _emit_json(g_value(K, p).to_json(p), args.out)
    return 0


def cmd_embed(args) -> int:
    graph = _graph_from_args(args)
    K = crg_from_json(_load_json(args.crg))
    phi = find_embedding(graph, K, timeout=args.timeout)
    result = {"embeds": phi is not None}
    if phi is not None:
        result["phi"] = list(phi)
    _emit_json(result, args.out)
    return 0


def cmd_maxpoint(args) -> int:
    _emit_json(curves.curve_peak(PowerCycleParams(args.h, args.t)).to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite.replace("-", "_"),)
    report = verify.run_suites(names)
    _emit_json(report, args.out)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="edcycles",
        description="Edit distance curves, spectra, and verification for forbidden cycle powers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_curve = subs.add_parser("curve", help="emit the closed-form curve on a p-grid")
    p_curve.add_argument("--h", type=int, required=True)
    p_curve.add_argument("--t", type=int, required=True)
    grid_flags = p_curve.add_mutually_exclusive_group()
    grid_flags.add_argument("--samples", type=int, default=None,
                            help="uniform grid size; default 201 plus special points")
    grid_flags.add_argument("--p", type=_rational, action="append", default=None,
                            help="explicit grid point; repeatable")
    p_curve.add_argument("--no-search", dest="search", action="store_false",
                         help="omit the search-based gamma column (omitted anyway above "
                         "the exact-search bound on h)")
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_spec = subs.add_parser("spectrum", help="clique spectrum and extreme points")
    _add_common(p_spec, graph_input=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_g = subs.add_parser("g", help="g-function value of a CRG")
    crg_input = p_g.add_mutually_exclusive_group(required=True)
    crg_input.add_argument("--crg", default=None, help="CRG JSON file")
    crg_input.add_argument("--krs", type=int, nargs=2, default=None, metavar=("R", "S"),
                           help="all-gray CRG with R white and S black vertices")
    p_g.add_argument("--p", type=_rational, required=True)
    _add_common(p_g)
    p_g.set_defaults(func=cmd_g)

    p_embed = subs.add_parser("embed", help="decide graph-into-CRG embedding")
    p_embed.add_argument("--crg", required=True, help="CRG JSON file")
    p_embed.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    _add_common(p_embed, graph_input=True)
    p_embed.set_defaults(func=cmd_embed)

    p_max = subs.add_parser("maxpoint", help="peak of the closed-form curve")
    p_max.add_argument("--h", type=int, required=True)
    p_max.add_argument("--t", type=int, required=True)
    _add_common(p_max)
    p_max.set_defaults(func=cmd_maxpoint)

    p_verify = subs.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        choices=("all", *(name.replace("_", "-") for name in verify.SUITES)),
        default="all",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (EdcyclesError, OSError, json.JSONDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
