"""Command-line front end: JSON in, exact JSON out.

Every number crossing this boundary is a "p/q" string (quadratic scalars
are {"a","b"} objects); the only exception is the --euclidean float mode,
whose output is flagged approximate.  Exit codes: 0 success, 1 schema
violation, 2 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import congruence as cg
from . import convex as cx
from . import spectrum as sp
from . import valuation as vl
from .errors import PreconditionError, SchemaError
from .laws import SUITES, run_suite
from .paf import PAF
from .scalars import fmt_rat, parse_rat


def emit_plot(f: PAF, samples: int) -> str:
    """CSV rows (t, f(t)): evenly spaced samples plus every breakpoint."""
    if samples < 2:
        raise PreconditionError("plotting needs at least 2 samples")
    pts = {f.lo + (f.hi - f.lo) * Fraction(i, samples - 1) for i in range(samples)}
    pts |= set(f.breakpoints)
    return "".join(f"{fmt_rat(t)},{fmt_rat(f.eval(t))}\n" for t in sorted(pts))


def _unit_body(payload) -> cx.Polygon:
    if "E" in payload:
        return cx.Polygon.from_json(payload["E"])
    return cx.DEFAULT_UNIT


def _cmd_paf_eval(payload, args):
    f = PAF.from_json(payload["f"])
    return {"value": fmt_rat(f.eval(parse_rat(payload["t"])))}


def _cmd_paf_oplus(payload, args):
    f, g = PAF.from_json(payload["f"]), PAF.from_json(payload["g"])
    return {"result": f.oplus(g).to_json()}


def _cmd_paf_norm(payload, args):
    return {"r": fmt_rat(PAF.from_json(payload["f"]).r_norm())}


def _cmd_paf_clamp(payload, args):
    f = PAF.from_json(payload["f"])
    return {"result": f.clamp(parse_rat(payload["c"])).to_json()}


def _cmd_paf_plot(payload, args):
    return emit_plot(PAF.from_json(payload["f"]), args.samples)


def _cmd_poly_hull_union(payload, args):
    a, b = cx.Polygon.from_json(payload["A"]), cx.Polygon.from_json(payload["B"])
    return {"result": cx.hull_union(a, b).to_json()}


def _cmd_poly_minkowski(payload, args):
    a, b = cx.Polygon.from_json(payload["A"]), cx.Polygon.from_json(payload["B"])
    return {"result": cx.minkowski(a, b).to_json()}


def _cmd_poly_support(payload, args):
    a = cx.Polygon.from_json(payload["A"])
    psi = cx.Direction.from_json(payload["psi"])
    return {"value": fmt_rat(a.support(psi.as_pair()))}


def _cmd_poly_rnorm(payload, args):
    a = cx.Polygon.from_json(payload["A"])
    if args.euclidean:
        return {"r_euclidean": cx.r_norm_euclidean(a), "approximate": True}
    return {"r": fmt_rat(cx.r_norm_body(a, _unit_body(payload)))}


def _cmd_poly_polar(payload, args):
    return {"result": cx.polar(cx.Polygon.from_json(payload["E"])).to_json()}


def _cmd_spec_attain(payload, args):
    if "f" in payload:
        f = PAF.from_json(payload["f"])
        phi = sp.attain_norm(f)
        value = sp.apply_char(phi, f)
    else:
        a = cx.Polygon.from_json(payload["A"])
        phi = sp.attain_norm(a, _unit_body(payload))
        value = sp.apply_char(phi, a)
    return {"character": phi.to_json(), "value": fmt_rat(value)}


def _cmd_spec_classify(payload, args):
    verdict = sp.classify(PAF.from_json(payload["f"]))
    return {
        "nonneg": verdict.nonneg,
        "regular": verdict.regular,
        "absorbing": verdict.absorbing,
        "epsilon": fmt_rat(verdict.epsilon) if verdict.epsilon is not None else None,
    }


def _cmd_cong_qnorm(payload, args):
    f = PAF.from_json(payload["f"])
    k = cg.ClosedSet.from_json(payload["K1"])
    return {"r": fmt_rat(cg.quotient_norm(f, k))}


def _cmd_cong_minrep(payload, args):
    f = PAF.from_json(payload["f"])
    k = cg.ClosedSet.from_json(payload["K1"])
    rep = cg.min_representative(f, k)
    return {"result": rep.to_json(), "r": fmt_rat(rep.r_norm())}


def _cmd_cong_zariski(payload, args):
    r1 = cg.RestrictionCongruence(cg.ClosedSet.from_json(payload["K1"]))
    out = {"V": r1.k.to_json()}
    if "K2" in payload:
        r2 = cg.RestrictionCongruence(cg.ClosedSet.from_json(payload["K2"]))
        out["V_join"] = cg.join(r1, r2).k.to_json()
        out["V_meet"] = cg.meet(r1, r2).k.to_json()
        out["laws_ok"] = cg.zariski_laws(r1, r2)
    return out


def _cmd_val_kink(payload, args):
    f = PAF.from_json(payload["f"])
    return {"kink": fmt_rat(vl.kink(f, parse_rat(payload["x"])))}


def _cmd_val_convexity(payload, args):
    return {"convex": vl.convexity_criterion(PAF.from_json(payload["f"]))}


def _cmd_val_circle_check(payload, args):
    s = vl.CirclePAF.from_json(payload["s"])
    return {"valid": vl.circle_section_valid(s), "constant": s.is_constant()}


_VERBS = {
    "paf-eval": _cmd_paf_eval,
    "paf-oplus": _cmd_paf_oplus,
    "paf-norm": _cmd_paf_norm,
    "paf-clamp": _cmd_paf_clamp,
    "paf-plot": _cmd_paf_plot,
    "poly-hull-union": _cmd_poly_hull_union,
    "poly-minkowski": _cmd_poly_minkowski,
    "poly-support": _cmd_poly_support,
    "poly-rnorm": _cmd_poly_rnorm,
    "poly-polar": _cmd_poly_polar,
    "spec-attain": _cmd_spec_attain,
    "spec-classify": _cmd_spec_classify,
    "cong-qnorm": _cmd_cong_qnorm,
    "cong-minrep": _cmd_cong_minrep,
    "cong-zariski": _cmd_cong_zariski,
    "val-kink": _cmd_val_kink,
    "val-convexity": _cmd_val_convexity,
    "val-circle-check": _cmd_val_circle_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="char1",
        description="exact characteristic-1 semifield calculator",
    )
    parser.add_argument("verb", help="operation, or 'laws-run SUITE'")
    parser.add_argument("suite", nargs="?", help="suite name for laws-run")
    parser.add_argument("--input", help="JSON input path (default: stdin)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=None)
    parser.add_argument("--samples", type=int, default=17, help="paf-plot sample count")
    parser.add_argument("--euclidean", action="store_true",
                        help="approximate euclidean-unit mode (floats, ~1e-9)")
    return parser


def _read_payload(args) -> dict:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("input must be a JSON object")
    return payload


def _write(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if env_seed := os.environ.get("CHAR1_SEED"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"char1: bad CHAR1_SEED {env_seed!r}", file=sys.stderr)
            return 1

    if args.verb == "laws-run":
        if not args.suite or args.suite not in SUITES:
            print(f"char1: laws-run needs a suite from {sorted(SUITES)}", file=sys.stderr)
            return 1
        report = run_suite(args.suite, seed=args.seed, cases=args.cases)
        _write(args, json.dumps(report.to_json(), sort_keys=True) + "\n")
        return 0 if report.ok else 1

    handler = _VERBS.get(args.verb)
    if handler is None:
        print(f"char1: unknown verb {args.verb!r}", file=sys.stderr)
        return 1
    try:
        payload = _read_payload(args)
        result = handler(payload, args)
    except SchemaError as exc:
        print(f"char1: schema violation: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"char1: schema violation: missing field {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"char1: precondition violated: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        _write(args, result)
    else:
        _write(args, json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
