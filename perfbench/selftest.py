"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that the recorded panel passes on this code; that a perturbed output
(one digit of a peak bin or of a CSV float changed, or a miss of the truth
bins at >= 0 dB) or a raising op is counted as failed; that span self times
subtract child spans; and that BENCHMARK.json names exactly the metrics the
traced run reports.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import OUT, ROOT, attempt, import_casense, load_panel, pin_threads


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def last_digit_changed(output: str) -> str:
    """The output with the last digit of its first number changed."""
    if output.startswith("bins "):
        _, r_bin, rest = output.split(" ", 2)
        return f"bins {r_bin[:-1]}{(int(r_bin[-1]) + 1) % 10} {rest}"
    fields = output.split(",")
    mantissa, exponent = fields[2].split("e")
    fields[2] = f"{mantissa[:-1]}{(int(mantissa[-1]) + 1) % 10}e{exponent}"
    return ",".join(fields)


def off_truth(output: str) -> str:
    """The output of an op that missed the range truth bin by one or more bins."""
    if output.startswith("bins "):
        _, r_bin, rest = output.split(" ", 2)
        return f"bins {int(r_bin) + 1} {rest}"
    fields = output.split(",")
    fields[2] = "%.16e" % (float(fields[2]) + 2.44140625)
    return ",".join(fields)


def check_workloads() -> None:
    from workloads import Case, make_workloads

    panel = load_panel()
    for name, workload in make_workloads(OUT).items():
        ref = panel[name]
        case = Case(10.0, 0)
        ok, _ = attempt(workload, case, panel)
        expect(ok, f"{name}: recorded output reproduced at {case.key}")

        real_output = workload.output
        workload.output = lambda raw: last_digit_changed(real_output(raw))
        ok, _ = attempt(workload, case, panel)
        workload.output = real_output
        expect(not ok, f"{name}: perturbed output counted as failed")

        wrong = off_truth(ref[case.key])
        expect(not workload.check(case, wrong, {case.key: wrong}),
               f"{name}: output off the truth bins at 10 dB fails even if recorded")
        threshold = Case(-20.0, 0)
        expect(workload.check(threshold, ref[threshold.key], ref),
               f"{name}: below 0 dB only the recorded output is required")

        real_run = workload.run
        workload.run = lambda case: 1 / 0
        with contextlib.redirect_stderr(io.StringIO()):
            ok, _ = attempt(workload, case, panel)
        workload.run = real_run
        expect(not ok, f"{name}: raising op counted as failed")


def check_spans() -> None:
    from spans import SpanRecorder, Tracer, layer_metric_units, layer_metrics
    import casense.harness

    rec = SpanRecorder(op=7)
    root = rec.open("op")
    outer = rec.open("harness.run_sweep")
    inner = rec.open("crlb.crlb_oracle")
    rec.close(inner)
    rec.close(outer)
    rec.close(root)
    rec.spans[root].start, rec.spans[root].end = 0.0, 10.0
    rec.spans[outer].start, rec.spans[outer].end = 1.0, 9.0
    rec.spans[inner].start, rec.spans[inner].end = 2.0, 5.0
    m = layer_metrics(rec, [8.0])
    expect(m["harness.run_sweep.self_s"] == 5.0 and m["crlb.crlb_oracle.s"] == 3.0,
           "self time is duration minus child spans")
    expect(m["trace.coverage_frac"] == 0.8 and m["trace.overhead_frac"] == 0.25,
           "coverage and overhead from the op span")

    original = casense.harness.run_sweep
    tracer = Tracer(SpanRecorder())
    tracer.install()
    installed = casense.harness.run_sweep is not original
    tracer.uninstall()
    expect(installed and casense.harness.run_sweep is original,
           "tracer installs wrappers and restores the originals")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in bench["per_layer"]] == list(layer_metric_units()),
           "BENCHMARK.json per_layer lists the traced run's metrics")


def main() -> int:
    pin_threads()
    import_casense()
    OUT.mkdir(exist_ok=True)
    check_workloads()
    check_spans()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
