"""Benchmark of verialloc's three pipelines: solve, simulate and the feasibility checks.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 26 --trace 0

One run builds the workload's inputs through the library (timed from the
process's start as ``setup_s``), runs one untimed warm-up operation, then
repeats the operation for ``--seconds`` seconds with ``gc.collect()``
outside the timer before each one, and checks every output independently
(``checks.py``).  While an operation runs, a fixed pure-Python loop is timed
every 20 ms (``hostspeed.py``); the operation's time net of these samples,
divided by the mean sample, is its cost in loop times.  With ``--trace 0``
it reports the end-to-end metrics ``setup_s``, ``op_loops`` (the mean of
that cost over the timed operations) and ``peak_rss_mb``; with ``--trace 1``
it wraps each layer's entry points (``tracer.py``) and reports the
per-layer metrics, sampling the loop only before and after each operation.
The last line of standard output is one JSON object; the full result, with
every operation's wall time, and the spans of the first timed operation of
a traced run, are written under ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve", "simulate", "check-symmetric", "check-audit")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import verialloc from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import verialloc
    except ImportError as exc:
        sys.exit(f"cannot import verialloc from {SRC}: {exc}")
    origin = Path(verialloc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"verialloc was imported from {origin}, not from {SRC}")
    return verialloc


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = import_library()
    import workloads

    setup_fn, op_fn = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    state = setup_fn(lib, args.seed)
    setup_s = time.perf_counter() - T0
    setup_trace = tracer.snapshot() if tracer else None

    import checks
    import hostspeed

    checker = checks.make_checker(args.workload, state)
    failures: list[str] = []
    attempted = failed = 0

    sampler = hostspeed.Sampler(None if tracer else hostspeed.INTERVAL_S)

    def run_op(j: int):
        """Run and check operation j; its (net wall time, mean loop sample), or None."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        try:
            out, elapsed, ref = sampler.run(lambda: op_fn(lib, state, j))
        except Exception:  # an operation that raises counts as failed; the run goes on
            failed += 1
            traceback.print_exc()
            return None
        try:
            found = checker(out)
        except Exception as exc:  # an output the checks cannot read is a wrong output
            found = [f"check raised {exc!r}"]
        failures.extend(f"op {j}: {msg}" for msg in found)
        return elapsed, ref

    run_op(0)  # warm-up, untimed
    times: list[float] = []
    refs: list[float] = []
    op_snapshots: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    j = 1
    while True:
        if tracer:
            tracer.reset()
            tracer.recording = j == 1
        timed = run_op(j)
        if tracer:
            tracer.recording = False
            op_snapshots.append(tracer.snapshot())
        if timed is not None:
            times.append(timed[0])
            refs.append(timed[1])
        j += 1
        guess = statistics.median(times) if times else 0.0
        if time.perf_counter() + guess > deadline:
            break

    if not times:
        print("no operation completed", file=sys.stderr)
        return 1
    op_s = statistics.median(times)
    op_loops = statistics.fmean(t / r for t, r in zip(times, refs))
    if tracer:
        groups = {g for snap in op_snapshots for g in snap["self_s"]}
        op_self = {g: statistics.median(s["self_s"].get(g, 0.0) for s in op_snapshots)
                   for g in groups}
        values = tracing.per_layer_values(setup_trace, op_snapshots[0], op_self,
                                          statistics.median(refs), op_s)
        absent = tracer.absent_metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        absent = set()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_loops": {"value": op_loops, "unit": "loops"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    for msg in failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times)} timed operations, attempted {attempted}, failed {failed}")
    print(f"  median operation {op_s:.6g} s, median loop sample {statistics.median(refs):.6g} s")
    for name, metric in metrics.items():
        note = "  (absent: entry points not found)" if name in absent else ""
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{note}")
    if tracer and tracer.absent:
        print("  absent entry points: " + ", ".join(tracer.absent))

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, op_times_s=times, loop_samples_s=refs, check_failures=failures,
                  absent_entry_points=tracer.absent if tracer else [])
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
