"""casense benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload estimate_ca1 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics (see ``spans.py``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, op times, tail percentile used) go to
``perfbench/out/result_<workload>_seed<n>_trace<t>.json``, and the spans of
a traced run to ``perfbench/out/trace_<workload>_seed<n>.json``.

An op fails if it raises, or if its output differs from the panel recorded
at the reference commit (``panels/seed0.json``), or if at >= 0 dB it misses
the truth bins. ``setup_s`` is the median over fresh interpreters of the
time to import casense, build the config and finish one cold op. Times are
reported in nominal seconds: wall seconds scaled by a calibration kernel
timed around them, which cancels the host's speed drift (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PANEL = HERE / "panels" / "seed0.json"
WORKLOADS = ("estimate_ca1", "sweep_ca1_threshold", "sweep_ca3")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
STRETCH_S = 0.5  # ops between two calibration kernels run for at least this long


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_casense():
    """Import casense from this checkout's src/; exit with an error if it is not there."""
    src = ROOT / "src"
    if not (src / "casense" / "__init__.py").is_file():
        sys.exit(f"perfbench: no casense sources under {src}")
    sys.path.insert(0, str(src))
    import casense

    if Path(casense.__file__).resolve().parent != src / "casense":
        sys.exit(f"perfbench: imported casense from {casense.__file__}, not {src}")
    return casense


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def load_panel() -> dict:
    return json.loads(PANEL.read_text())


def attempt(workload, case, panel: dict, rec=None) -> tuple[bool, float]:
    """Run one op, inside an "op" span if a recorder is given, then check it.

    Returns (output correct, op wall seconds); the check is not timed.
    """
    t0 = time.perf_counter()
    root = rec.open("op") if rec else None
    try:
        raw = workload.run(case)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, time.perf_counter() - t0
    finally:
        if rec:
            rec.close(root)
    seconds = time.perf_counter() - t0
    try:
        return workload.check(case, workload.output(raw), panel[workload.name]), seconds
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, seconds


def setup_probe(args) -> int:
    """Child of ``measure_setup``: import, build config, one cold op."""
    pin_threads()
    import_casense()
    from workloads import make_workloads

    OUT.mkdir(exist_ok=True)
    workload = make_workloads(OUT)[args.workload]
    case = next(workload.schedule(args.seed))
    try:
        raw = workload.run(case)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raw = None
    print("ready", flush=True)
    ok = raw is not None and workload.check(case, workload.output(raw), load_panel()[workload.name])
    print("ok" if ok else "failed", flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float], int]:
    """Fresh-interpreter set-up times in nominal and in wall seconds, and how
    many probe cold ops failed. Each probe is bracketed by calibration kernels."""
    from calibrate import NOMINAL_S, calibrate

    nominal, wall, failed = [], [], 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    cal_before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            verdict = proc.stdout.readline().strip()
            rc = proc.wait(timeout=120)
        cal_after = calibrate()
        wall.append(seconds)
        nominal.append(seconds * NOMINAL_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
        failed += not (ready.strip() == "ready" and verdict == "ok" and rc == 0)
    return nominal, wall, failed


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples for that."""
    ordered = sorted(samples)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    pin_threads()
    import_casense()
    OUT.mkdir(exist_ok=True)
    env = environment()
    setup_times, setup_wall, failed = measure_setup(args)
    attempted = SETUP_PROBES

    from calibrate import NOMINAL_S, calibrate
    from workloads import make_workloads

    workload = make_workloads(OUT)[args.workload]
    panel = load_panel()
    schedule = workload.schedule(args.seed)
    ok, _ = attempt(workload, next(schedule), panel)  # warm-up, untimed
    attempted += 1
    failed += not ok

    rec = tracer = None
    if args.trace:
        from spans import SpanRecorder, Tracer

        rec = SpanRecorder()
        tracer = Tracer(rec)
    # Ops run in stretches of at least STRETCH_S wall seconds, each bracketed
    # by calibration kernels; op_s holds untraced op times in nominal seconds
    # (see calibrate.py), wall_op_s and traced_op_s wall seconds.
    op_s, wall_op_s, traced_op_s, cal_s = [], [], [], [calibrate()]
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not op_s
           or (args.trace and not traced_op_s)):
        stretch = []
        stretch_end = time.perf_counter() + STRETCH_S
        while True:
            case = next(schedule)
            traced = bool(args.trace) and len(wall_op_s) + len(stretch) > len(traced_op_s)
            if traced:
                rec.op = attempted
                tracer.install()
            try:
                ok, seconds = attempt(workload, case, panel, rec if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_op_s if traced else stretch).append(seconds)
            attempted += 1
            failed += not ok
            if time.perf_counter() >= stretch_end and stretch:
                break
        cal_s.append(calibrate())
        scale = NOMINAL_S / ((cal_s[-2] + cal_s[-1]) / 2)
        op_s += [seconds * scale for seconds in stretch]
        wall_op_s += stretch

    tail_s, tail_pct = tail(op_s)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "nominal_s": NOMINAL_S,
        "setup_s_samples": setup_times, "setup_wall_s_samples": setup_wall,
        "op_s": op_s, "wall_op_s": wall_op_s, "traced_op_s": traced_op_s,
        "calibration_s": cal_s, "op_samples": len(op_s),
        "wall_op_s_p50": statistics.median(wall_op_s),
        "tail_percentile": tail_pct, "trials_per_op": workload.trials_per_op,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
    }
    if args.trace:
        from spans import layer_metric_units, layer_metrics

        units = layer_metric_units()
        metrics = {name: {"value": value, "unit": units[name][0]}
                   for name, value in layer_metrics(rec, wall_op_s).items()}
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        trace_path.write_text(json.dumps(rec.to_json()))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s_p50": {"value": statistics.median(op_s), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "trials_per_s": {"value": workload.trials_per_op * len(op_s) / sum(op_s),
                             "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    detail["metrics"] = metrics
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(op_s)} untraced and {len(traced_op_s)} traced ops, tail = p{tail_pct:.1f}, "
          f"failed {failed}/{attempted} (failed_frac {failed / attempted:.4f}), "
          f"wall op_s_p50 {detail['wall_op_s_p50']:.6g} s, "
          f"calibration p50 {statistics.median(cal_s):.6g} s (nominal {NOMINAL_S} s)")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
