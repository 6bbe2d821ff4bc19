"""Command-line front end: solve, simulate, check, plot-data, sweep.

Exit codes: 0 success, 1 invalid input, 2 infeasible rule or violated
simulation bands, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import io
import itertools
import json
import sys

import numpy as np

from .distributions import make_power, make_uniform
from .envelope import ProblemInstance, c_allo, c_aud, c_ic, envelope_value, partition
from .flows import DiscreteInstance, check_feasible, upper_set_report
from .interim import merit_with_guarantee
from .optimizer import solve
from .simulation import CalibrationError, epic_counterexample, simulate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


def _fmt(x) -> str:
    return f"{x:.12g}"


def _parse_dist(text: str):
    if text == "uniform":
        return make_uniform()
    if text.startswith("power:"):
        return make_power(float(text.split(":", 1)[1]))
    raise ValueError(f"unknown distribution {text!r}; use 'uniform' or 'power:<alpha>'")


def _instance(args) -> ProblemInstance:
    return ProblemInstance(args.n, args.m, args.k, _parse_dist(args.dist))


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows = []
    for key, value in sorted(record.items()):
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            rows.append((name, json.dumps(value, default=float)))
        else:
            rows.append((name, value))
    return rows


def _emit(record: dict, args, lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(record, indent=2, sort_keys=True, default=float)
    elif args.format == "csv":
        rows = ["key,value"]
        for key, value in _flatten(record):
            value = _fmt(value) if isinstance(value, float) else value
            rows.append(f"{key},{value}")
        text = "\n".join(rows)
    else:
        text = "\n".join(lines)
    _write(text, args)


def _write(text: str, args) -> None:
    """The output text, to the --out path if given, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_instance_args(p, with_dist=True):
    p.add_argument("--n", type=int, required=True, help="number of agents")
    p.add_argument("--m", type=int, required=True, help="number of objects")
    p.add_argument("--k", type=int, required=True, help="audit capacity")
    if with_dist:
        p.add_argument("--dist", default="uniform",
                       help="type distribution: uniform or power:<alpha>")


def _add_common(p):
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--out", default=None, help="write output to this path")


def cmd_solve(args) -> int:
    inst = _instance(args)
    report = solve(inst, grid=args.grid)
    part = report.partition
    lines = [
        f"phi_star        {_fmt(report.phi_star)}",
        f"payoff          {_fmt(report.payoff)}",
        f"foc_residual    {_fmt(report.foc_residual)}",
        f"case            {part.case_tag}",
        f"gamma1          {_fmt(part.gamma1)}",
        f"gamma2          {_fmt(part.gamma2)}",
        f"gamma3          {_fmt(part.gamma3)}",
        f"first_best      {_fmt(report.baselines['first_best'])}",
        f"random_lottery  {_fmt(report.baselines['random_lottery'])}",
        f"k_top           {_fmt(report.baselines['k_top'])}",
        "candidates:",
    ]
    for c in report.candidates:
        lines.append(f"  phi={_fmt(c.phi)}  U={_fmt(c.payoff)}  [{c.source}]")
    _emit(report.to_record(), args, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    inst = _instance(args)
    phi = args.phi if args.phi is not None else solve(inst).phi_star
    report = simulate(inst, phi, args.trials, args.seed, bins=args.bins)
    if args.epic_witness:
        w = epic_counterexample(inst, phi)
        print("ex-post IC failure witness:")
        print(f"  profile           {tuple(round(t, 6) for t in w.profile)}")
        print(f"  agent             {w.agent} (truthful report {_fmt(w.truthful_report)})")
        print(f"  deviation report  {_fmt(w.deviation_report)}")
        print(f"  truthful allocation at profile: {_fmt(w.truthful_allocation_prob)}")
        print(f"  audit-escape probability >= {_fmt(w.escape_probability_bound)}")
    lines = [
        f"trials                {report.trials}",
        f"seed                  {report.seed}",
        f"phi                   {_fmt(report.phi)}",
        f"payoff_total          {_fmt(report.payoff_total)}",
        f"capacity_violations   {report.capacity_violations}",
        f"max_dev_P (se units)  {_fmt(report.max_dev_p)}",
        f"max_dev_A (se units)  {_fmt(report.max_dev_a)}",
        f"bins within 3se       P: {report.bins_within_3se_p}/{report.bins}  "
        f"A: {report.bins_within_3se_a}/{report.bins}",
    ]
    _emit(report.to_record(), args, lines)
    if args.csv:
        report.to_csv(args.csv)
    bad_bins = max(2, report.bins // 32)
    bands_ok = (report.bins - report.bins_within_3se_p <= bad_bins
                and report.bins - report.bins_within_3se_a <= bad_bins)
    if report.capacity_violations > 0 or (report.trials > 0 and not bands_ok):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _bundled(name: str):
    return importlib.resources.files("verialloc.data").joinpath(name)


def _rules_P(data) -> list:
    """The key "P" of a rules file, checked to be a list of rows of numbers."""
    P = data.get("P") if isinstance(data, dict) else None
    if not (isinstance(P, list) and all(isinstance(row, list) and all(
            isinstance(x, (int, float)) for x in row) for row in P)):
        raise ValueError('a rules file needs the key "P": a list of rows of numbers')
    return P


def cmd_check(args) -> int:
    if args.instance:
        inst = DiscreteInstance.load(args.instance)
    else:
        inst = DiscreteInstance.from_json_dict(
            json.loads(_bundled("footnote_instance.json").read_text())
        )
    if args.rules:
        with open(args.rules) as fh:
            P = _rules_P(json.load(fh))
    else:
        P = _rules_P(json.loads(_bundled("footnote_rules.json").read_text()))

    if args.upper_sets_only:
        rep = upper_set_report(inst, P)
        record = {
            "upper_sets_hold": rep["all_hold"],
            "tightest_set": [sorted(s) for s in rep["tightest_set"]],
            "lhs": rep["lhs"], "rhs": rep["rhs"], "slack": rep["slack"],
        }
        lines = [
            f"upper sets hold  {rep['all_hold']}",
            f"tightest set     {[sorted(s) for s in rep['tightest_set']]}",
            f"lhs {_fmt(rep['lhs'])}  rhs {_fmt(rep['rhs'])}  slack {_fmt(rep['slack'])}",
        ]
        _emit(record, args, lines)
        return EXIT_OK if rep["all_hold"] else EXIT_INFEASIBLE

    verdict = check_feasible(inst, P)
    if verdict.feasible:
        expost = verdict.expost
        marg = expost.marginals()
        err = max(
            float(np.max(np.abs(mi - np.asarray(pi)))) for mi, pi in zip(marg, P)
        )
        record = {"feasible": True, "max_marginal_error": err}
        lines = [
            "feasible         True",
            f"marginal error   {_fmt(err)}",
            f"profiles         {inst.n_profiles}",
        ]
        _emit(record, args, lines)
        if args.expost_out:
            rows = [
                {"profile": list(prof),
                 "p": [float(x) for x in expost.alloc[pid]]}
                for pid, prof in enumerate(inst.profiles())
            ]
            with open(args.expost_out, "w") as fh:
                json.dump(rows, fh, indent=2)
        return EXIT_OK
    v = verdict.violating_set
    record = {
        "feasible": False,
        "violating_set": [sorted(s) for s in v.check_set],
        "lhs": v.lhs,
        "rhs": v.rhs,
    }
    lines = [
        "feasible         False",
        f"violating set    {[sorted(s) for s in v.check_set]}",
        f"lhs {_fmt(v.lhs)}  >  rhs {_fmt(v.rhs)}",
    ]
    _emit(record, args, lines)
    return EXIT_INFEASIBLE


def cmd_plotdata(args) -> int:
    inst = _instance(args)
    phi = args.phi if args.phi is not None else solve(inst).phi_star
    part = partition(phi, inst)
    rules = merit_with_guarantee(phi, inst, part)

    qs = np.linspace(0.0, 1.0, args.grid)
    value, tag = envelope_value(qs, phi, inst)
    columns = [qs, c_allo(qs, inst), c_aud(qs, phi, inst), c_ic(qs, phi, inst), value]
    constraints_path = f"{args.prefix}_constraints.csv"
    with open(constraints_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "c_allo", "c_aud", "c_ic", "envelope", "binding"])
        for *row, label in zip(*(c.tolist() for c in columns), tag.tolist()):
            writer.writerow([*map(_fmt, row), label])
    rules_path = f"{args.prefix}_rules.csv"
    rules.to_csv(rules_path, grid=args.grid)
    print(f"wrote {constraints_path} and {rules_path} (phi={_fmt(phi)})")
    return EXIT_OK


def cmd_sweep(args) -> int:
    ns, ms, ks = ([int(x) for x in text.split(",")] for text in (args.n, args.m, args.k))
    header = ["n", "m", "k", "dist", "phi_star", "payoff", "first_best",
              "random_lottery", "k_top", "error"]
    rows = []
    for n, m, k, d in itertools.product(ns, ms, ks, args.dist.split(",")):
        row = {"n": n, "m": m, "k": k, "dist": d}
        try:
            rep = solve(ProblemInstance(n, m, k, _parse_dist(d)))
            row.update(phi_star=rep.phi_star, payoff=rep.payoff, **rep.baselines, error="")
        except (ValueError, RuntimeError) as exc:
            row.update(dict.fromkeys(header[4:9], float("nan")), error=str(exc))
        rows.append(row)
    if args.format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, default=float)
    else:
        cells = [header] + [[row[h] if isinstance(row[h], (int, str)) else _fmt(row[h])
                             for h in header] for row in rows]
        if args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf).writerows(cells)
            text = buf.getvalue().rstrip("\n")
        else:
            text = "\n".join("  ".join(f"{c:>14}" for c in line) for line in cells)
    _write(text, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verialloc",
        description="Optimal allocation of identical objects under "
                    "capacity-constrained verification",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys override subcommand defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="optimal guarantee, payoff, and baselines")
    _add_instance_args(p)
    p.add_argument("--grid", type=int, default=200, help="first-order-condition scan grid")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo run of the ex-post mechanism")
    _add_instance_args(p)
    p.add_argument("--phi", type=float, default=None,
                   help="guarantee; defaults to the solved optimum")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--csv", default=None, help="write per-bin results to this CSV")
    p.add_argument("--epic-witness", action="store_true",
                   help="print an explicit ex-post IC violation")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="exact feasibility of a discrete interim rule")
    p.add_argument("--instance", default=None,
                   help="instance JSON (defaults to the bundled two-agent example)")
    p.add_argument("--rules", default=None,
                   help="rules JSON with key 'P' (defaults to the bundled example)")
    p.add_argument("--upper-sets-only", action="store_true",
                   help="check only per-agent upper sets")
    p.add_argument("--expost-out", default=None,
                   help="write the constructed ex-post rule to this JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plot-data", help="CSV data for the constraint and rule figures")
    _add_instance_args(p)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--prefix", default="verialloc")
    _add_common(p)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("sweep", help="solve a grid of instances")
    p.add_argument("--n", required=True, help="comma list, e.g. 3,5")
    p.add_argument("--m", required=True, help="comma list")
    p.add_argument("--k", required=True, help="comma list")
    p.add_argument("--dist", default="uniform", help="comma list of distributions")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        for key, value in overrides.items():
            setattr(args, key.replace("-", "_"), value)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
