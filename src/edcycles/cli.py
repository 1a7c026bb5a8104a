"""Command-line interface.

Subcommands: curve, spectrum, g, embed, maxpoint, verify.  curve writes CSV,
or JSON with --format json; the others write JSON (rationals serialized as
"num/den" strings).  Errors leave as machine-readable JSON on stderr with
exit code 2, and verify exits 1 when any suite fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import curves, verify
from .crg import crg_from_json, k_rs
from .embed import find_embedding
from .errors import EdcyclesError, ParameterDomainError
from .gfunction import g_endpoint, g_value
from .graphs import EXACT_SEARCH_BOUND, PowerCycleParams, graph_from_json, power_cycle
from .rationals import number_str
from .spectrum import clique_spectrum, gamma, power_cycle_spectrum


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _emit_json(obj, path: str | None) -> None:
    _write_output(json.dumps(obj, indent=2) + "\n", path)


def _load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _graph_from_args(args):
    if args.graph is not None:
        return graph_from_json(_load_json(args.graph))
    if args.h is None or args.t is None:
        raise ParameterDomainError("give either --graph FILE or both --h and --t")
    return power_cycle(args.h, args.t)


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
    else:
        if args.samples is None:
            # default grid: 201 uniform samples enriched with p0, 1/2, and
            # the exact branch crossings, where the curve kinks
            grid = curves.default_p_grid(params)
        else:
            grid = curves.uniform_p_grid(args.samples)
        lo, hi = min(args.p_min, args.p_max), max(args.p_min, args.p_max)
        grid = [p for p in grid if lo <= p <= hi]
        if not grid:
            raise ParameterDomainError(f"no grid point in [{lo}, {hi}]")
    samples = curves.curve_samples(params, grid)
    search = None
    want_search = args.search
    if want_search is None:  # auto: only when the exact oracle can handle h
        want_search = args.h <= EXACT_SEARCH_BOUND
    if want_search:
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
    spec = clique_spectrum(_graph_from_args(args), r_max=args.r_max, s_max=args.s_max)
    _emit_json(spec.to_json(), args.out)
    return 0


def cmd_g(args) -> int:
    if args.crg is not None:
        K = crg_from_json(_load_json(args.crg))
    elif args.krs is not None:
        K = k_rs(*args.krs)
    else:
        raise ParameterDomainError("give either --crg FILE or --krs R S")
    p = args.p
    if p in (0, 1) and args.mode == "exact":
        value = g_endpoint(K, int(p))
        _emit_json({"p": number_str(p), "g": number_str(value), "mode": "endpoint"}, args.out)
        return 0
    gv = g_value(K, p if args.mode == "exact" else float(p), mode=args.mode)
    _emit_json(gv.to_json(p), args.out)
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
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite.replace("-", "_"),)
    report = verify.run_suites(
        names,
        seed=args.seed,
        h_max=args.h_max,
        t_max=args.t_max,
        xy_max=args.xy_max,
        p_denominator=args.p_denominator,
        corpus_count=args.count,
    )
    _emit_json(report, args.out)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcycles",
        description="Edit distance curves, spectra, and verification for forbidden cycle powers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_curve = subs.add_parser("curve", help="emit the closed-form curve on a p-grid")
    p_curve.add_argument("--h", type=int, required=True)
    p_curve.add_argument("--t", type=int, required=True)
    p_curve.add_argument("--samples", type=int, default=None,
                         help="uniform grid size; default 201 plus special points")
    p_curve.add_argument("--p", type=_rational, action="append", default=None,
                         help="explicit grid point; repeatable")
    p_curve.add_argument("--p-min", type=_rational, default=Fraction(0))
    p_curve.add_argument("--p-max", type=_rational, default=Fraction(1))
    p_curve.add_argument("--search", dest="search", action="store_true", default=None,
                         help="force the search-based gamma column (default: auto)")
    p_curve.add_argument("--no-search", dest="search", action="store_false")
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_spec = subs.add_parser("spectrum", help="clique spectrum and extreme points")
    p_spec.add_argument("--r-max", type=int, default=None)
    p_spec.add_argument("--s-max", type=int, default=None)
    _add_common(p_spec, graph_input=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_g = subs.add_parser("g", help="g-function value of a CRG")
    p_g.add_argument("--crg", default=None, help="CRG JSON file")
    p_g.add_argument("--krs", type=int, nargs=2, default=None, metavar=("R", "S"),
                     help="all-gray CRG with R white and S black vertices")
    p_g.add_argument("--p", type=_rational, required=True)
    p_g.add_argument("--mode", choices=("exact", "numeric"), default="exact")
    p_g.add_argument("--exact", dest="mode", action="store_const", const="exact")
    p_g.add_argument("--numeric", dest="mode", action="store_const", const="numeric")
    _add_common(p_g)
    p_g.set_defaults(func=cmd_g)

    p_embed = subs.add_parser("embed", help="decide graph-into-CRG embedding")
    p_embed.add_argument("--crg", required=True, help="CRG JSON file")
    p_embed.add_argument("--timeout", type=float, default=10.0)
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
        choices=("all", *(name.replace("_", "-") for name in verify.SUITE_NAMES)),
        default="all",
    )
    p_verify.add_argument("--h-max", type=int, default=400)
    p_verify.add_argument("--t-max", type=int, default=8)
    p_verify.add_argument("--xy-max", type=int, default=60)
    p_verify.add_argument("--p-denominator", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--count", type=int, default=200)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdcyclesError, OSError, json.JSONDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
