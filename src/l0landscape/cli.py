"""Command-line front end: instance I/O, experiment orchestration, reports.

Exit codes: 0 on success, 2 on invalid input (bad flags, unreadable or
malformed instance files, violated instance invariants, a report path that
cannot be written), 1 on internal errors.  Output is deterministic
byte-for-byte for fixed inputs and seeds; pass ``--timestamp`` to include a
wall-clock field.  Every JSON report is ``writer.dumps(payload) + "\n"``,
which is exactly ``json.dumps(payload, indent=2, allow_nan=False) + "\n"``;
``analyze`` hands the writer its points as one object that writes them from
the support table's arrays, and ``sweep`` its intervals and transitions as
rows written from the sweep's columns, so neither builds a record;
``analyze --csv`` and ``probe`` read the report's records, built on demand,
and ``sweep --csv`` the sweep's intervals.
A non-finite number in a report is an internal error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import sys
from dataclasses import fields, replace

from . import writer
from .errors import ValidationError
from .model import ToleranceConfig, load_instance, support_to_json
from .enumeration import check_s_regularity, enumerate_stationary, run_genericity_experiment
from .levelsets import sweep_levels
from .stability import default_probe_epsilon, probe_strong_stability
from .iht import iht_solve


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="l0landscape",
        description="Landscape analysis for sparsity-constrained least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True, help="instance file (JSON or CSV)")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--zero-tol", type=float, dest="zero_tol")
        p.add_argument("--stat-tol", type=float, dest="stat_tol")
        p.add_argument("--rank-tol", type=float, dest="rank_tol")
        p.add_argument("--timestamp", action="store_true", help="include a timestamp field")

    p_analyze = sub.add_parser("analyze", help="enumerate and classify all stationary points")
    add_common(p_analyze)
    p_analyze.add_argument("--csv", action="store_true", help="emit a flat point table")

    p_reg = sub.add_parser("regularity", help="check s-regularity of the sensing matrix")
    add_common(p_reg)

    p_sweep = sub.add_parser("sweep", help="component counts across stationary levels")
    add_common(p_sweep)
    p_sweep.add_argument("--csv", action="store_true", help="emit a flat interval table")

    p_probe = sub.add_parser("probe", help="strong-stability probe for one stationary point")
    add_common(p_probe)
    p_probe.add_argument("--seed", type=int, required=True)
    p_probe.add_argument("--point", type=int, default=0, help="point index from analyze order")
    p_probe.add_argument("--epsilon", type=float, help="locality radius (default: data driven)")
    p_probe.add_argument("--delta", type=float,
                         help="data radius (default: 1e-3 times the locality radius epsilon)")
    p_probe.add_argument("--trials", type=int, default=50)
    p_probe.add_argument("--paper-mode", action="store_true", dest="paper_mode",
                         help="deterministic all-ones measurement perturbation")

    p_gen = sub.add_parser("generic", help="nondegeneracy statistics over Gaussian data")
    add_common(p_gen, instance=False)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--s", type=int, required=True)
    p_gen.add_argument("--trials", type=int, default=100)
    p_gen.add_argument("--seed", type=int, required=True)

    p_iht = sub.add_parser("iht", help="run iterative hard thresholding from zero")
    add_common(p_iht)

    return parser


def _tolerance_flags(args) -> dict:
    """The tolerance flags the user gave, by ``ToleranceConfig`` field name."""
    return {f.name: getattr(args, f.name) for f in fields(ToleranceConfig)
            if getattr(args, f.name) is not None}


def _load(args):
    """The instance file as written, with only the flagged tolerances replaced."""
    try:
        inst = load_instance(args.instance)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file: {exc}") from exc
    return replace(inst, tol=replace(inst.tol, **_tolerance_flags(args)))


def _points_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    n = len(report.points[0].x)
    writer.writerow(["index", "value", "kind", "support", "nd1", "nd2"] +
                    [f"x{i + 1}" for i in range(n)])
    for i, p in enumerate(report.points):
        writer.writerow(
            [i, repr(p.value), p.kind.value,
             ";".join(map(str, support_to_json(p.support))),
             p.nd1_holds, p.nd2_holds]
            + [repr(v) for v in p.x.tolist()]
        )
    return buf.getvalue()


def _intervals_csv(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lo", "hi", "q"])
    for iv in result.intervals:
        writer.writerow([repr(iv.lo), repr(iv.hi), iv.q])
    return buf.getvalue()


def _dispatch(args):
    """Return (payload_dict, csv_text_or_None) for the selected command."""
    if args.command == "analyze":
        report = enumerate_stationary(_load(args))
        morse = report.to_records()
        morse["morse_applicable"] = not report.hypothesis_violated
        return morse, _points_csv(report) if args.csv else None
    if args.command == "regularity":
        s_regular, witness = check_s_regularity(_load(args))
        return {"s_regular": s_regular, "witness": support_to_json(witness)}, None
    if args.command == "sweep":
        inst = _load(args)
        report = enumerate_stationary(inst)
        result = sweep_levels(inst, report)
        return result.to_records(), _intervals_csv(result) if args.csv else None
    if args.command == "probe":
        inst = _load(args)
        report = enumerate_stationary(inst)
        if not 0 <= args.point < len(report.points):
            raise ValidationError(
                f"point index {args.point} out of range (found {len(report.points)} points)"
            )
        target = report.points[args.point]
        epsilon = args.epsilon if args.epsilon is not None else default_probe_epsilon(report)
        delta = args.delta if args.delta is not None else 1e-3 * epsilon
        probe = probe_strong_stability(inst, target, epsilon=epsilon, delta=delta,
                                       trials=args.trials, seed=args.seed,
                                       paper_mode=args.paper_mode)
        payload = probe.to_dict()
        payload["point_index"] = args.point
        point = target.to_dict()
        payload["point"] = {key: point[key] for key in ("x", "support", "kind")}
        return payload, None
    if args.command == "generic":
        tol = ToleranceConfig(**_tolerance_flags(args))
        report = run_genericity_experiment(args.m, args.n, args.s, args.trials, args.seed, tol=tol)
        return report.to_dict(), None
    if args.command == "iht":
        inst = _load(args)
        result = iht_solve(inst, [0.0] * inst.n)
        payload = {f.name: getattr(result, f.name) for f in fields(result)}
        payload["x"] = result.x.tolist()
        payload["support"] = support_to_json(result.support)
        return payload, None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, csv_text = _dispatch(args)
        if csv_text is not None:
            text = csv_text
        else:
            if args.timestamp:
                payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            # A non-finite number is an internal error, never printed as NaN or Infinity.
            text = writer.dumps(payload) + "\n"
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
