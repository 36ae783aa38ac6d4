"""Command-line front end: JSON in, exact JSON out.

Every number crossing this boundary is a "p/q" string (quadratic scalars
are {"a","b"} objects); the only exception is the --euclidean float mode,
whose output is flagged approximate.  Exit codes: 0 success, 1 schema
violation or an unreadable input / unwritable output file, 2 precondition
violation; each failure is one stderr line, and so is each warning.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

from . import congruence as cg
from . import convex as cx
from . import spectrum as sp
from . import valuation as vl
from .errors import PreconditionError, SchemaError
from .laws import SUITES, run_suite
from .paf import PAF
from .scalars import fmt_rat, parse_int_literal, parse_rat


MAX_PLOT_SAMPLES = 10_000
MAX_LAWS_CASES = 10_000  # ten times the largest default suite count


def emit_plot(f: PAF, samples: int) -> str:
    """CSV rows (t, f(t)): evenly spaced samples plus every breakpoint."""
    if not 2 <= samples <= MAX_PLOT_SAMPLES:
        raise PreconditionError(f"plotting needs 2 to {MAX_PLOT_SAMPLES} samples, got {samples}")
    pts = {f.lo + (f.hi - f.lo) * Fraction(i, samples - 1) for i in range(samples)}
    pts |= set(f.breakpoints)
    return "".join(f"{fmt_rat(t)},{fmt_rat(f.eval(t))}\n" for t in sorted(pts))


# Every payload field and its decoder.
_FIELDS = {
    "f": PAF.from_json, "g": PAF.from_json,
    "A": cx.Polygon.from_json, "B": cx.Polygon.from_json, "E": cx.Polygon.from_json,
    "psi": cx.Direction.from_json,
    "K1": cg.ClosedSet.from_json, "K2": cg.ClosedSet.from_json,
    "s": vl.CirclePAF.from_json,
    "t": parse_rat, "c": parse_rat, "x": parse_rat,
}


class _Payload(dict):
    """The request object.  Reading a field decodes it with its ``_FIELDS``
    decoder, so fields are decoded in the order a verb reads them, and a
    field the verb does not read is never decoded."""

    def __getitem__(self, key):
        if key not in self:
            raise SchemaError(f"missing field {key!r}")
        return _FIELDS[key](super().__getitem__(key))


def _unit_body(p) -> cx.Polygon:
    return p["E"] if "E" in p else cx.DEFAULT_UNIT


def _cmd_poly_rnorm(p, args):
    a = p["A"]
    if args.euclidean:
        return {"r_euclidean": cx.r_norm_euclidean(a), "approximate": True}
    return {"r": fmt_rat(cx.r_norm_body(a, _unit_body(p)))}


def _cmd_spec_attain(p, args):
    x = p["f"] if "f" in p else p["A"]
    phi = sp.attain_norm(x) if "f" in p else sp.attain_norm(x, _unit_body(p))
    return {"character": phi.to_json(), "value": fmt_rat(sp.apply_char(phi, x))}


def _cmd_spec_classify(p, args):
    v = sp.classify(p["f"])
    eps = fmt_rat(v.epsilon) if v.epsilon is not None else None
    return {"nonneg": v.nonneg, "regular": v.regular, "absorbing": v.absorbing, "epsilon": eps}


def _cmd_cong_minrep(p, args):
    rep = cg.min_representative(p["f"], p["K1"])
    return {"result": rep.to_json(), "r": fmt_rat(rep.r_norm())}


def _cmd_cong_zariski(p, args):
    r1 = cg.RestrictionCongruence(p["K1"])
    out = {"V": r1.k.to_json()}
    if "K2" in p:
        r2 = cg.RestrictionCongruence(p["K2"])
        out["V_join"] = cg.join(r1, r2).k.to_json()
        out["V_meet"] = cg.meet(r1, r2).k.to_json()
        out["laws_ok"] = cg.zariski_laws(r1, r2)
    return out


def _cmd_val_circle_check(p, args):
    s = p["s"]
    return {"valid": vl.circle_section_valid(s), "constant": s.is_constant()}


# verb -> handler(payload, args): a JSON-ready dict, or the text of paf-plot.
_VERBS = {
    "paf-eval": lambda p, args: {"value": fmt_rat(p["f"].eval(p["t"]))},
    "paf-oplus": lambda p, args: {"result": p["f"].oplus(p["g"]).to_json()},
    "paf-norm": lambda p, args: {"r": fmt_rat(p["f"].r_norm())},
    "paf-clamp": lambda p, args: {"result": p["f"].clamp(p["c"]).to_json()},
    "paf-plot": lambda p, args: emit_plot(p["f"], args.samples),
    "poly-hull-union": lambda p, args: {"result": cx.hull_union(p["A"], p["B"]).to_json()},
    "poly-minkowski": lambda p, args: {"result": cx.minkowski(p["A"], p["B"]).to_json()},
    "poly-support": lambda p, args: {"value": fmt_rat(p["A"].support(p["psi"].as_pair()))},
    "poly-rnorm": _cmd_poly_rnorm,
    "poly-polar": lambda p, args: {"result": cx.polar(p["E"]).to_json()},
    "spec-attain": _cmd_spec_attain,
    "spec-classify": _cmd_spec_classify,
    "cong-qnorm": lambda p, args: {"r": fmt_rat(cg.quotient_norm(p["f"], p["K1"]))},
    "cong-minrep": _cmd_cong_minrep,
    "cong-zariski": _cmd_cong_zariski,
    "val-kink": lambda p, args: {"kink": fmt_rat(vl.kink(p["f"], p["x"]))},
    "val-convexity": lambda p, args: {"convex": vl.convexity_criterion(p["f"])},
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
                        help="euclidean-unit mode: the correctly rounded largest vertex norm, "
                        "as a float")
    return parser


def _read_payload(args) -> _Payload:
    try:
        if args.input:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError:
        raise SchemaError("input is not UTF-8 text") from None
    try:
        payload = json.loads(text, parse_int=parse_int_literal)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("input must be a JSON object")
    return _Payload(payload)


def _write(args, text: str, code: int) -> int:
    """Write text to --output or stdout; return code, or 1 if that fails."""
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"char1: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return 1
    return code


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
        if args.cases is not None and not 1 <= args.cases <= MAX_LAWS_CASES:
            print(f"char1: precondition violated: laws-run needs 1 to {MAX_LAWS_CASES} cases,"
                  f" got {args.cases}", file=sys.stderr)
            return 2
        report = run_suite(args.suite, seed=args.seed, cases=args.cases)
        return _write(args, json.dumps(report.to_json(), sort_keys=True) + "\n",
                      0 if report.ok else 1)

    handler = _VERBS.get(args.verb)
    if handler is None:
        print(f"char1: unknown verb {args.verb!r}", file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            result = handler(_read_payload(args), args)
    except OSError as exc:
        print(f"char1: cannot read {args.input}: {exc.strerror}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"char1: schema violation: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"char1: precondition violated: {exc}", file=sys.stderr)
        return 2
    for w in caught:
        print(f"char1: warning: {w.message}", file=sys.stderr)
    if not isinstance(result, str):
        result = json.dumps(result, sort_keys=True) + "\n"
    return _write(args, result, 0)


if __name__ == "__main__":
    sys.exit(main())
