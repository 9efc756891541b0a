"""Command line front end.

    jordanaff catalog [list] [--desk]
    jordanaff build --family NAME [--params JSON] [-o FILE]
    jordanaff verify TARGET (--family NAME [--params JSON] | --file FILE
                             | --desk)
    jordanaff sample --family NAME [--l1 Q] [--count N] [-o CSV]
    jordanaff reconstruct (--family NAME ... | --file FILE) [--l1 Q]

Verification targets: jordan, fundamental, triple, semisimple,
detformula, decompose, pair, model, gauss, calabi.  `verify TARGET
--desk` sweeps every desk catalog instance.  --alg is accepted for
--file and --L1 for --l1.  Every verify invocation exits 0 only when all
of its checks pass; a failed check exits 1, and a bad argument, family,
parameter or algebra file exits 2 with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import catalog, serialization
from .calabi import check_composition, compose
from .hypersurface import (adapted_constants, build_model,
                           reconstruct_algebra, verify_model)
from .jordan import JordanError
from .reports import CheckResult, VerificationReport
from .structure import check_pair, restricted_pair


def _parse_params(text):
    """A JSON object of family parameters; lists become tuples."""
    try:
        params = json.loads(text) if text else {}
    except json.JSONDecodeError as err:
        raise argparse.ArgumentTypeError(f"{text!r} is not JSON: {err}")
    if not isinstance(params, dict):
        raise argparse.ArgumentTypeError(f"{text!r} is not a JSON object")
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in params.items()}


def _count(text):
    """A non-negative integer: a sample, point or step count."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _algebra_from_args(args):
    if getattr(args, "file", None):
        return serialization.load(args.file)
    if not getattr(args, "family", None):
        raise SystemExit("need --family or --file")
    return catalog.build(args.family, **args.params)


def _parse_factor(text):
    """'family' or 'family:{json params}'."""
    name, sep, rest = text.partition(":")
    return name, _parse_params(rest if sep else "")


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
        return
    print(f"target: {report.target}")
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        extra = f"  samples={c.samples}" if c.samples else ""
        print(f"  [{mark}] {c.name:32s} residual "
              f"{c.residual_float():.3e}{extra}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"RESULT: {verdict} ({len(report.checks)} checks, "
          f"{report.elapsed_ms:.0f} ms)")


def _cmd_catalog(args):
    if args.desk:
        print(f"{'instance':44s} {'dim':>4s} {'degree':>6s}")
        for name, params in catalog.desk_catalog():
            fam = catalog.CATALOG[name]
            print(f"{catalog._instance_name(name, params):44s} "
                  f"{fam.expected_dim(params):>4d} {fam.degree(params):>6d}")
    else:
        for name in catalog.family_names():
            print(name)
    return 0


def _cmd_build(args):
    j = catalog.build(args.family, **args.params)
    text = serialization.dumps(j, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {j.name} (dim {j.dim}) to {args.output}")
    else:
        print(text)
    return 0


def _cmd_verify(args):
    t0 = time.monotonic()
    if args.target == "calabi":
        if not args.factors:
            raise SystemExit("calabi verification needs --factors")
        if args.desk:
            raise SystemExit("--desk does not apply to calabi")
        models = [build_model(catalog.build(name, **params), args.l1)
                  for name, params in args.factors]
        comp = compose(models, args.l1)
        report = check_composition(comp, n_samples=args.samples,
                                   seed=args.seed)
        _print_report(report, args.json)
        return 0 if report.passed else 1

    if args.desk:
        if args.family or args.file:
            raise SystemExit("--desk sweeps the whole catalog; drop "
                             "--family/--file")
        reports = []
        for name, params in catalog.desk_catalog():
            t1 = time.monotonic()
            j = catalog.build(name, **params)
            reports.append(_verify_one(j, args, t1))
        if args.json:
            print(json.dumps([r.to_jsonable() for r in reports],
                             indent=2, sort_keys=True))
        else:
            for report in reports:
                _print_report(report, False)
        return 0 if all(r.passed for r in reports) else 1

    j = _algebra_from_args(args)
    report = _verify_one(j, args, t0)
    _print_report(report, args.json)
    return 0 if report.passed else 1


def _verify_one(j, args, t0):
    kw = {"n_samples": args.samples, "seed": args.seed}
    target = j.name
    if args.target == "jordan":
        checks = [j.check_jordan(**kw)]
    elif args.target == "fundamental":
        checks = [j.check_fundamental(**kw)]
    elif args.target == "triple":
        checks = [j.check_triple(**kw), j.check_self_adjoint(**kw),
                  j.check_inverse_identities(**kw)]
    elif args.target == "gauss":
        model = build_model(j, args.l1)
        checks = [model.check_gauss(), model.check_cubic_form(),
                  model.check_difference_tensor()]
        target = f"model({j.name}, l1={args.l1})"
    elif args.target == "semisimple":
        ok, inertia = j.is_semisimple()
        nd = j.is_nondegenerate()
        checks = [
            CheckResult(name="trace_form_nondegenerate", passed=ok,
                        max_residual=Fraction(inertia[2]),
                        details={"inertia": inertia}),
            CheckResult(name="no_trivial_multiplications", passed=nd,
                        max_residual=Fraction(0 if nd else 1)),
        ]
    elif args.target == "detformula":
        checks = [catalog.verify_det_formula(j, **kw)]
    elif args.target == "decompose":
        dims = [p.dim for p, _ in j.decompose(seed=args.seed)]
        checks = [CheckResult(
            name="ideal_decomposition", passed=sum(dims) == j.dim,
            max_residual=Fraction(abs(j.dim - sum(dims))),
            details={"ideal_dims": dims})]
    elif args.target == "pair":
        return check_pair(restricted_pair(j), **kw)
    elif args.target == "model":
        return verify_model(j, args.l1, n_float_samples=args.samples,
                            seed=args.seed)[1]
    else:
        raise SystemExit(f"unknown verification target {args.target!r}")
    report = VerificationReport(target=target, checks=checks)
    report.elapsed_ms = (time.monotonic() - t0) * 1000.0
    return report


def _cmd_sample(args):
    j = _algebra_from_args(args)
    model = build_model(j, args.l1)
    pts = model.sample_points(count=args.count, seed=args.seed,
                              steps=args.steps)
    lines = []
    header = ",".join(f"x{i}" for i in range(j.dim))
    lines.append(header)
    for p in pts:
        lines.append(",".join(f"{x:.17g}" for x in p))
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {len(pts)} points on the model over "
              f"{model.algebra.name} to {args.output}")
    else:
        print(text)
    return 0


def _cmd_reconstruct(args):
    j = _algebra_from_args(args)
    model = build_model(j, args.l1)
    rebuilt = reconstruct_algebra(model)
    same = rebuilt.c == adapted_constants(model)
    print(f"model on {j.name}: rebuilt product "
          f"{'matches' if same else 'DIFFERS from'} the original "
          f"multiplication table over the unit/trace-zero basis")
    return 0 if same else 1


def _add_algebra_opts(p, with_l1=False):
    p.add_argument("--family", help="catalog family name")
    p.add_argument("--params", type=_parse_params, default={},
                   help="family parameters as JSON")
    p.add_argument("--file", "--alg", dest="file",
                   help="algebra JSON file")
    if with_l1:
        p.add_argument("--l1", "--L1", dest="l1", type=Fraction,
                       default="-1",
                       help="affine mean curvature (rational, default -1)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jordanaff",
        description="simple real Jordan algebras, their reduced "
                    "structure pairs, and equiaffine hypersphere models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list families or desk instances")
    p.add_argument("action", nargs="?", choices=["list"], default="list",
                   help=argparse.SUPPRESS)
    p.add_argument("--desk", action="store_true",
                   help="list the standard instance of every family")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("build", help="build an algebra, print or save")
    p.add_argument("--family", required=True)
    p.add_argument("--params", type=_parse_params, default={})
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target", choices=["jordan", "fundamental", "triple",
                                      "semisimple", "detformula",
                                      "decompose", "pair", "model",
                                      "gauss", "calabi"])
    _add_algebra_opts(p, with_l1=True)
    p.add_argument("--desk", action="store_true",
                   help="sweep every desk catalog instance")
    p.add_argument("--factors", nargs="+", type=_parse_factor,
                   help="calabi factors, each 'family' or "
                        "'family:{\"m\": 2}'")
    p.add_argument("--samples", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="sample points on a model, CSV out")
    _add_algebra_opts(p, with_l1=True)
    p.add_argument("--count", type=_count, default=8)
    p.add_argument("--steps", type=_count, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("reconstruct",
                       help="rebuild the algebra from its model")
    _add_algebra_opts(p, with_l1=True)
    p.set_defaults(func=_cmd_reconstruct)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (JordanError, OSError, catalog.UnknownFamilyError,
            catalog.BadParameterError) as exc:
        msg = exc.args[0] if exc.args else exc
        if isinstance(exc, OSError):
            msg = exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
