"""curvlab benchmark: time to a checked curvature result.

Run from the repository root:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--workload all` runs every workload, each in a fresh process.  A single
workload prints a readable report, an `env` line, and last one JSON object
with the keys correct, attempted, failed and metrics: run_s, setup_s and
peak_rss_mb with `--trace 0`, the per-layer metrics of a traced run with
`--trace 1`.  Per-op percentiles (pointwise only), ops_failed_frac and the
pointwise-only layer metrics are printed in the report above it.  Workloads, metrics and the layer table are described in
perfbench/README.md.

Everything runs in this one process on one thread: the BLAS/OpenMP thread
variables are pinned to 1 here, before numpy is imported.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("gauss_bonnet", "tube_total", "pointwise")
SETUP_REPEATS = 21
MIN_PASSES = 2  # untraced passes per run at least, so run_s is a median and passes are compared
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this many seconds have gone by; untraced, two at least")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up in this fresh process and print "seconds digest"
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def probe_setups(args, count: int) -> tuple[list[float], set[str]]:
    """Set-up time of `count` fresh processes: import curvlab, then build the inputs."""
    times, digests = [], set()
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, digest = out.stdout.split()
        times.append(float(seconds))
        digests.add(digest)
    return times, digests


def environment(seed, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "curvlab" / "__init__.py").is_file():
        print(f"perfbench: no curvlab sources at {SRC / 'curvlab'}", file=sys.stderr)
        return 2
    # Byte-compile first, so the timed import reads the same cached code every run.
    if not compileall.compile_dir(str(SRC / "curvlab"), quiet=1):
        print("perfbench: curvlab does not compile", file=sys.stderr)
        return 2

    import numpy  # the benchmark's own dependency; not part of set-up time

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import curvlab
    import_s = time.perf_counter() - t0
    if Path(curvlab.__file__).resolve().parent != (SRC / "curvlab").resolve():
        print(f"perfbench: imported curvlab from {curvlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import tracing
    import workloads

    build = workloads.BUILDERS[args.workload]
    t0 = time.perf_counter()
    wl = build(args.seed)
    if args.setup_probe:
        print(f"{import_s + time.perf_counter() - t0!r} {wl.digest}")
        return 0

    problems = []
    if args.trace:
        # Half the time untraced, half traced; one pass of each at least, to compare.
        plain = harness.run_passes(wl.ops, args.seconds / 2)
        setup_tracer, pass_tracer = tracing.Tracer(), tracing.Tracer()
        with tracing.installed(setup_tracer):
            traced_wl = build(args.seed)
        with tracing.installed(pass_tracer):
            traced = harness.run_passes(traced_wl.ops, args.seconds / 2, tracer=pass_tracer)
        if traced_wl.digest != wl.digest:
            problems.append("traced set-up generated different inputs")
        runs = plain + traced
    else:
        # Half the cold set-ups before the passes and half after, so that they
        # sample the machine over the whole run, as run_s does.
        setup_times, digests = probe_setups(args, SETUP_REPEATS - SETUP_REPEATS // 2)
        plain = harness.run_passes(wl.ops, args.seconds, min_passes=MIN_PASSES)
        later_times, later_digests = probe_setups(args, SETUP_REPEATS // 2)
        setup_times += later_times
        if digests | later_digests != {wl.digest}:
            problems.append("set-ups from one seed generated different inputs")
        runs = plain
    reference = plain[0].fingerprints
    differing = sum(p.fingerprints != reference for p in runs[1:])
    if differing:
        problems.append(f"{differing} of {len(runs) - 1} later passes differ bit for bit from the first")

    classes = harness.tally(wl.ops, runs)
    attempted = sum(t.attempted for t in classes.values())
    failed = sum(t.failed for t in classes.values())
    unknown = sorted(c for c, t in classes.items() if t.failed and not t.known)
    if unknown:
        problems.append(f"unexpected failures in {', '.join(unknown)}")

    n_ops = len(wl.ops)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {n_ops}  "
          f"passes {len(plain)} untraced" + (f" + {len(traced)} traced" if args.trace else ""))
    if args.trace:
        layers = tracing.layer_metrics(setup_tracer, pass_tracer, len(traced), n_ops)
        plain_s = statistics.median(p.seconds for p in plain)
        traced_s = statistics.median(p.seconds for p in traced)
        layers["trace.overhead_s"] = (traced_s - plain_s, "s")
        print(f"  traced run_s {traced_s:.4f} s, untraced run_s {plain_s:.4f} s")
        print("  per-layer values are for one set-up plus one pass")
        for name, (value, unit) in layers.items():
            tag = "  (pointwise only; not in the result line)" if name in tracing.POINTWISE_ONLY else ""
            print(f"  {name:<36} {value:16.6f} {unit:<5}{tag}")
        metrics = {k: v for k, v in layers.items() if k not in tracing.POINTWISE_ONLY}
    else:
        metrics = {
            "run_s": (statistics.median(p.seconds for p in plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "run_s": f"median of {len(plain)} passes: " + " ".join(f"{p.seconds:.3f}" for p in plain),
            "setup_s": f"median of {SETUP_REPEATS} fresh processes: "
                       + " ".join(f"{t:.4f}" for t in sorted(setup_times)),
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:14.6f} {unit:<3}  {notes[name]}")
        # Per-op percentiles only where a pass has enough ops beyond p99 (pointwise).
        beyond99 = harness.percentile(plain[0].op_ms, 99)[1]
        if beyond99 >= harness.MIN_BEYOND:
            for q in (50, 99):
                value = statistics.median(harness.percentile(p.op_ms, q)[0] for p in plain)
                beyond = harness.percentile(plain[0].op_ms, q)[1]
                print(f"  {f'op_p{q}_ms':<16} {value:14.6f} ms   median over {len(plain)} passes "
                      f"of the pass's p{q} over {n_ops} ops, {beyond} beyond")
        else:
            print(f"  op_p50_ms, op_p99_ms not reported: {n_ops} ops per pass, "
                  f"fewer than {harness.MIN_BEYOND} beyond p99")
    print(f"  {'ops_failed_frac':<16} {failed / attempted:14.6f} 1    {failed} of {attempted} ops")
    for cls in sorted(classes):
        t = classes[cls]
        if t.failed:
            checks = ", ".join(sorted(c for _, c in t.checks))
            tag = "known defect" if t.known else "UNEXPECTED"
            print(f"  failed {cls}: {t.failed}/{t.attempted} ops ({checks}; {tag})")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    env = environment(args.seed, numpy)
    env["inputs_sha256"] = wl.digest
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
