"""Command-line surface: integrals, hulls, barycenters, conversions, and the
law suites.

Document flags accept either a path to a JSON file or inline JSON (anything
starting with '{' or '[').  Exit codes: 0 success, 1 law or computation
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .capacities import (
    capacity_from_profile,
    maxplus_integral,
    possibility_integral,
)
from .convexity import as_point, certify_members, combine, hull_member
from .documents import (
    capacity_from_doc,
    decode_number,
    density_from_doc,
    density_to_doc,
    dump_json,
    function_from_doc,
    generators_from_doc,
    load_json,
    parse_json,
    possibility_from_doc,
    possibility_to_doc,
    space_from_doc,
    weights_from_doc,
)
from .isomorphism import density_exp, density_log
from .laws import MUTATIONS, SUITES, run_all, run_suite
from .measures import MAXPLUS
from .semiring import default_tolerance, format_score

DENSITY_KINDS = ("maxplus", "maxtimes", "possibility")


def _load_doc(arg: str):
    text = arg.lstrip()
    if text.startswith("{") or text.startswith("["):
        return parse_json(arg)
    return load_json(arg)


def _weights_arg(arg: str):
    doc = _load_doc(arg)
    if isinstance(doc, list):
        doc = {"weights": doc}
    return weights_from_doc(doc)


def _format_point(point) -> str:
    return "[" + ",".join(format_score(float(v)) for v in point) + "]"


def cmd_integrate(args) -> int:
    space = space_from_doc(_load_doc(args.space))
    cdoc = _load_doc(args.capacity)
    kind = cdoc.get("kind") if isinstance(cdoc, dict) else None
    if kind == "possibility":
        profile = possibility_from_doc(cdoc, space)
        cap = capacity_from_profile(profile)
    elif kind == "capacity":
        if args.both:  # refused before anything is computed or printed
            raise ValueError("--both applies to possibility documents only")
        cap = capacity_from_doc(cdoc, space)
    else:
        raise ValueError(f"capacity document must have kind 'capacity' or 'possibility', got {kind!r}")
    phi = function_from_doc(_load_doc(args.function), space)
    value = maxplus_integral(cap, phi)
    print(format_score(value))
    if args.both:
        pointwise = possibility_integral(profile, phi)
        print(f"pointwise {format_score(pointwise)}")
        print(f"diff {format_score(abs(value - pointwise))}")
    return 0


def _explain_member(point, gens) -> list[str]:
    """The verdict on one point and its certificate: the weights that reach
    a point that is in; for a point that is out, rho, q and the coordinate
    of p beyond the half-space max(-rho, max_t(z_t - q_t)) <= max(0,
    max_t(z_t - p_t)), or the constant term -rho when that is larger."""
    p = as_point(point, gens.dimension)
    verdicts = certify_members(p[None, :], gens)
    if verdicts.member[0]:
        return ["true", f"weights {_format_point(verdicts.weights[0])}"]
    rho = float(verdicts.peak[0])
    q = verdicts.projection[0]
    gaps = p - q
    t = int(gaps.argmax())
    if gaps[t] >= -rho:
        broken = f"coordinate {t}: p - q = {format_score(float(gaps[t]))}"
    else:
        broken = f"constant term: -rho = {format_score(-rho)}"
    return ["false", f"rho {format_score(rho)}", f"q {_format_point(q)}", f"broken at {broken}"]


def cmd_hull_member(args) -> int:
    gens = generators_from_doc(_load_doc(args.generators))
    doc = _load_doc(args.point)
    if not isinstance(doc, list):
        raise ValueError("a point is a JSON array of coordinates")
    point = [decode_number(v) for v in doc]
    if args.explain:
        print("\n".join(_explain_member(point, gens)))
    else:
        print("true" if hull_member(point, gens) else "false")
    return 0


def cmd_hull_combine(args) -> int:
    # also `barycenter`, which is the combination under its weight density
    gens = generators_from_doc(_load_doc(args.generators))
    weights = _weights_arg(args.weights)
    print(_format_point(combine(gens, weights)))
    return 0


def _convert_value(src: str, dst: str, doc):
    # a possibility profile is a max-times density, so a profile needs no copy
    if src == "possibility":
        dens = possibility_from_doc(doc)
    else:
        dens = density_from_doc(doc)
        if dens.side.kind != src:
            raise ValueError(f"input document has kind {dens.side.kind!r}, not {src!r}")
    if dst == "maxplus":
        return density_to_doc(dens if dens.side is MAXPLUS else density_log(dens))
    times = density_exp(dens) if dens.side is MAXPLUS else dens
    if dst == "maxtimes":
        return density_to_doc(times)
    return possibility_to_doc(times)


def cmd_convert(args) -> int:
    doc = _load_doc(args.input)
    out = _convert_value(args.src, args.dst, doc)
    text = dump_json(out, args.output)
    if args.output is None:
        print(text)
    return 0


def cmd_laws(args) -> int:
    if args.list:
        for spec in SUITES.values():
            print(f"{spec.name}: {spec.law}")
        return 0
    if args.suite == "all":
        reports = run_all(args.trials, args.seed, args.max_space, args.mutate)
    else:
        reports = [run_suite(args.suite, args.trials, args.seed, args.max_space, args.mutate)]
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(
            f"{report.suite}: {status} trials={report.trials} "
            f"failures={len(report.failures)} seed={report.seed} "
            f"elapsed={report.elapsed:.2f}s"
        )
        for failure in report.failures[:5]:
            print(f"  trial {failure.trial}: {failure.description}")
            print(f"  witness: {json.dumps(failure.witness, sort_keys=True)}")
        if len(report.failures) > 5:
            print(f"  ... {len(report.failures) - 5} more failures")
    if args.json:
        dump_json({"reports": [r.to_doc() for r in reports]}, args.json)
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemkit",
        description="max-plus measures, fuzzy integrals, and tropical hulls on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="max-plus integral of a function against a capacity")
    p.add_argument("--space", required=True, help="space document (path or inline JSON)")
    p.add_argument("--capacity", required=True, help="capacity or possibility document")
    p.add_argument("--function", required=True, help="function document")
    p.add_argument(
        "--both",
        action="store_true",
        help="also print the pointwise singleton form and the absolute difference "
        "(possibility input only)",
    )
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("hull", help="tropical hull membership and combinations")
    hull_sub = p.add_subparsers(dest="hull_command", required=True)
    m = hull_sub.add_parser("member", help="is a point in the generated hull?")
    m.add_argument("--generators", required=True, help="points document")
    m.add_argument("--point", required=True, help="coordinate array (path or inline JSON)")
    m.add_argument(
        "--explain",
        action="store_true",
        help="also print the certificate: the weights that reach a point that is in, or the "
        "half-space (rho, q) that excludes a point that is out and the coordinate beyond it",
    )
    m.set_defaults(func=cmd_hull_member)
    c = hull_sub.add_parser("combine", help="max-plus combination of the generators")
    c.add_argument("--generators", required=True, help="points document")
    c.add_argument("--weights", required=True, help="weights document or array")
    c.set_defaults(func=cmd_hull_combine)

    p = sub.add_parser("barycenter", help="idempotent barycenter of a weight density")
    p.add_argument("--generators", required=True, help="points document")
    p.add_argument(
        "--density", dest="weights", metavar="DENSITY", required=True,
        help="weights document or array, peak 0",
    )
    p.set_defaults(func=cmd_hull_combine)

    p = sub.add_parser("laws", help="run randomized law suites")
    p.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-space", type=int, default=5, dest="max_space")
    p.add_argument("--json", metavar="PATH", help="write the machine-readable report here")
    p.add_argument(
        "--mutate",
        choices=MUTATIONS,
        help="corrupt the multiplication to demonstrate the harness catches it "
        "(effective in the unit and assoc suites)",
    )
    p.add_argument("--list", action="store_true", help="list suites and the laws they check")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("convert", help="convert between density and possibility documents")
    p.add_argument("--from", required=True, dest="src", choices=DENSITY_KINDS)
    p.add_argument("--to", required=True, dest="dst", choices=DENSITY_KINDS)
    p.add_argument("--input", required=True, help="document to convert (path or inline JSON)")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked up front for every command, also those that never compare
        default_tolerance()
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
