"""Benchmark of ldckit, end to end and layer by layer.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 15 \
        --trace 0 [--tiny]

Run from the root of a checkout; the program is imported from its `src/`.
One process runs one workload.  It sets up the workload several times
(import, input generation, one untimed warm-up operation of each kind),
then runs whole rounds of the workload's operations in a closed loop from
one caller, checks every output, and prints one JSON object as its last
line of output.  With `--trace 0` that object holds the end-to-end metrics;
with `--trace 1` ldckit's public functions are wrapped in spans and it holds
the per-layer metrics instead, and the spans are written to
`perfbench/_work/`.  `--tiny` runs small inputs for one round, in seconds.
"""
import os

# BLAS is pinned to one thread before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPS = 3

# Import time of ldckit in a fresh interpreter, interpreter start excluded.
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import ldckit; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


# The shared host runs at times 1.3-2x slower, in phases that last seconds.
# A fixed probe (pure Python and a small matrix product) runs before every
# timed operation; each operation's time is scaled by the probe's quiet-host
# time over the probe's running median around it, so that every time is
# reported at quiet-host speed.  PROBE_QUIET_S is the probe's time on a
# quiet host of the reference machine (see README).
PROBE_QUIET_S = 1.18e-3
PROBE_WINDOW = 7
_PROBE_N = 20000


def probe_seconds() -> float:
    import numpy as np
    a = np.ones((64, 64))
    t0 = time.perf_counter()
    s = 0
    for i in range(_PROBE_N):
        s += i * i
    a @ a
    return time.perf_counter() - t0


def host_speed(probes: list) -> list:
    """Per probe, quiet-host probe time over the running median of the
    probes around it: the factor that brings a time to quiet-host speed."""
    half = PROBE_WINDOW // 2
    return [PROBE_QUIET_S / statistics.median(
        probes[max(0, j - half):j + half + 1]) for j in range(len(probes))]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("validate", "check", "evaluate", "exp"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, one round")
    return p.parse_args(argv)


def run(args) -> dict:
    """Set up, run the timed rounds, check; return the result object."""
    import ldckit  # noqa: F401  (import cost is sampled in fresh processes)
    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads  # after install, so its imported names are wrapped

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            speed = PROBE_QUIET_S / statistics.median(
                probe_seconds() for _ in range(PROBE_WINDOW))
            t_import = import_seconds()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny,
                                                    workdir, ROOT)
            wl.build()
            for op in wl.warmup():
                op.run()
            setups.append((t_import + time.perf_counter() - t0) * speed)

        runs = []   # (operation index, latency, probe time), in order
        faults, failed, roots = [], 0, set()
        for _ in range(wl.rounds(args.seconds)):
            for i, op in enumerate(wl.ops):
                probe = probe_seconds()
                root = tracer.begin("bench.op") if tracer else None
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:
                    out = None
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                t1 = time.perf_counter()
                if tracer:
                    tracer.end(root)
                    roots.add(root)
                    tracer.enabled = False
                if out is not None:
                    runs.append((i, t1 - t0, probe))
                    fault = op.check(out)
                    if fault:
                        faults.append(f"{op.kind} {op.label}: {fault}")
                if tracer:
                    tracer.enabled = True

        for fault in faults[:10]:
            print(f"perfbench: wrong output: {fault}", file=sys.stderr)
        speed = host_speed([p for _, _, p in runs])
        times = [[] for _ in wl.ops]
        for (i, latency, _), s in zip(runs, speed):
            times[i].append(latency * s)
        per_op = [statistics.median(t) for t in times if t]
        wall = sum(map(sum, times))
        measured = sum(latency for _, latency, _ in runs)
        print(f"perfbench: {len(per_op)} operations x "
              f"{wl.rounds(args.seconds)} rounds; timed phase {measured:.4f} s "
              f"as measured, {wall:.4f} s at quiet-host speed",
              file=sys.stderr)
        if tracer:
            metrics = tracer.metrics()
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans)
            selfs = tracer.self_times(roots)
            layers = sum(v for k, v in selfs.items()
                         if k not in tracing.BENCH_SPANS)
            total = sum(selfs.values())
            print(f"perfbench: self time of the timed spans {total:.4f} s "
                  f"({total * wall / measured:.4f} s at quiet-host speed), "
                  f"of which program layers {layers:.4f} s, benchmark "
                  f"{total - layers:.4f} s; spans in {spans}",
                  file=sys.stderr)
        else:
            deciles = statistics.quantiles(per_op, n=10)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "op_p50_ms": {"value": statistics.median(per_op) * 1e3,
                              "unit": "ms"},
                "op_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
        return {"correct": not faults,
                "attempted": len(runs) + failed,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ldckit" / "__init__.py").is_file():
        print(f"perfbench: no ldckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
