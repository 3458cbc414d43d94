"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/repeat.py --workload sweep_ca3 --runs 5 --first-seed 11
    python3 perfbench/repeat.py --runs 10 --record seed   # also write baseline.json

Each run is ``run.py`` in a fresh process with the ``run_seconds`` of
BENCHMARK.json. For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and their distance as a share of
the median, next to a third of the metric's bound. ``--record LABEL`` adds
one traced run per workload and appends the medians as a trajectory point
to ``perfbench/baseline.json``, with the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, environment, git_sha, import_casense, pin_threads

BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point = {"label": args.record, "git_sha": git_sha(), "run_seconds": args.seconds,
             "runs": args.runs, "workloads": {}}
    steady = True
    for workload in args.workload or WORKLOADS:
        results = [run_once(workload, seed, args.seconds, 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, failed {failed}/{attempted}, "
              f"correct {all(r['correct'] for r in results)}")
        entry = {"failed_frac": failed / attempted, "end_to_end": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            ok = s["spread"] < bounds[name] / 3
            steady &= ok or name == "setup_s"
            print(f"  {name:14s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f}){'' if ok else '  WIDE'}")
        if args.record:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry

    if args.record:
        pin_threads()
        import_casense()
        from spans import layer_map

        point["env"] = environment()
        baseline = (json.loads(BASELINE.read_text()) if BASELINE.exists()
                    else {"trajectory": []})
        baseline["layer_map"] = layer_map()
        baseline["trajectory"].append(point)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"appended {args.record!r} to {BASELINE}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
