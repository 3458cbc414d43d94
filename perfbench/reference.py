"""Record, or check, the reference panel that decides whether an op failed.

    python3 perfbench/reference.py --seed 0            # write panels/seed0.json
    python3 perfbench/reference.py --seed 0 --check    # compare this code with it

A panel holds the canonical output of every case of every workload: the
peak bins and printed line of each CLI estimate, and each sweep CSV row
(``%.16e`` floats, no wall time). Cases for panel seed S use casense seeds
1000*S .. 1000*S + 7. The benchmark reads ``panels/seed0.json``; a panel for
another seed checks a change on cases not used while it was written.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT, PANEL, git_sha, import_casense, pin_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="panel seed")
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored panel instead of writing it")
    args = parser.parse_args(argv)
    pin_threads()
    import_casense()
    from workloads import make_workloads

    OUT.mkdir(exist_ok=True)
    path = PANEL.with_name(f"seed{args.seed}.json")
    outputs = {}
    for name, workload in make_workloads(OUT).items():
        outputs[name] = {}
        for case in workload.cases(args.seed):
            outputs[name][case.key] = workload.output(workload.run(case))
            print(name, case.key, outputs[name][case.key], file=sys.stderr)
    if not args.check:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"commit": git_sha(), "panel_seed": args.seed, **outputs},
                                   indent=1) + "\n")
        print(f"wrote {path}")
        return 0
    stored = json.loads(path.read_text())
    diffs = [(name, key) for name, cases in outputs.items()
             for key, out in cases.items() if stored[name].get(key) != out]
    for name, key in diffs:
        print(f"{name} {key}: recorded {stored[name].get(key)!r}, now {outputs[name][key]!r}")
    print(f"{len(diffs)} of {sum(map(len, outputs.values()))} cases differ from {path.name}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
