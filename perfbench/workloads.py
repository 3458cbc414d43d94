"""The benchmark's workloads: what one op is, which inputs it gets, how its
output is checked.

Every workload is a closed loop with one client on the canonical
``make_table3_config()`` and a target at 117 m / 30 m/s. An op's inputs are
one case, an (SNR, casense seed) pair drawn from a fixed pool, so that every
op has an output recorded at the reference commit (``panels/seed<S>.json``).
The benchmark seed picks the order in which cases are drawn; op ``i`` takes
SNR point ``i mod len(snrs)``.

The ops call ``casense.cli.main`` and ``casense.harness.run_sweep`` through
their module attributes at call time, so that the traced run's wrappers on
those attributes are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import casense.cli
import casense.harness
from casense import ExperimentSpec, Scheme, Target, make_table3_config

TARGET = Target(117.0, 30.0)
TRUTH_BINS = (48, 3)  # range bin, velocity bin of TARGET on the fused grid
POOL_SIZE = 8  # casense seeds per SNR point in a panel
TRIALS_PER_OP = 2  # Monte-Carlo trials in one sweep op

ESTIMATE_SNRS = (10.0, -15.0, -20.0)
SWEEP_SNRS = tuple(float(s) for s in range(-26, -11, 2)) + (10.0,)


@dataclass(frozen=True)
class Case:
    snr_db: float
    seed: int

    @property
    def key(self) -> str:
        return f"{self.snr_db:g}/{self.seed}"


def pool_seeds(panel_seed: int) -> list[int]:
    return [panel_seed * 1000 + j for j in range(POOL_SIZE)]


class Workload:
    """One workload; subclasses define the op and its canonical output text."""

    name: str
    snrs: tuple[float, ...]
    trials_per_op: int

    def cases(self, panel_seed: int) -> list[Case]:
        """Every case of the panel, the inputs the reference covers."""
        return [Case(s, seed) for s in self.snrs for seed in pool_seeds(panel_seed)]

    def schedule(self, bench_seed: int):
        """Endless, deterministic case sequence over the seed-0 panel."""
        rng = np.random.default_rng(bench_seed)
        seeds = pool_seeds(0)
        for i in itertools.count():
            yield Case(self.snrs[i % len(self.snrs)], seeds[int(rng.integers(len(seeds)))])

    def check(self, case: Case, output: str, reference: dict) -> bool:
        """Output equals the recorded one, and at >= 0 dB hits the truth bins."""
        if reference.get(case.key) != output:
            return False
        return case.snr_db < 0 or self.on_truth(output)


class EstimateCli(Workload):
    name = "estimate_ca1"
    snrs = ESTIMATE_SNRS
    trials_per_op = 1

    def __init__(self, out_dir: Path):
        self.prefix = str(out_dir / "estimate")

    def run(self, case: Case) -> str:
        argv = ["estimate", "--out", self.prefix, "--snr", f"{case.snr_db:g}",
                "--seed", str(case.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = casense.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"casense {' '.join(argv)} exited with {rc}")
        return buf.getvalue()

    def output(self, printed: str) -> str:
        """Peak bins of the two spectrum CSVs plus the printed estimate line."""
        bins = [_peak_bin(f"{self.prefix}_{kind}.csv") for kind in ("range", "velocity")]
        return f"bins {bins[0]} {bins[1]} | {printed.strip()}"

    def on_truth(self, output: str) -> bool:
        _, r_bin, v_bin = output.split(" | ")[0].split()
        return (int(r_bin), int(v_bin)) == TRUTH_BINS


def _peak_bin(path: str) -> int:
    with open(path) as fh:
        next(fh)
        peaks = [line.split(",")[0] for line in fh if line.rstrip().endswith(",1")]
    if len(peaks) != 1:
        raise ValueError(f"{path}: expected one peak row, found {len(peaks)}")
    return int(peaks[0])


class Sweep(Workload):
    """``run_sweep`` over one (scheme, SNR) point with a few trials per op."""

    snrs = SWEEP_SNRS
    trials_per_op = TRIALS_PER_OP

    def __init__(self, name: str, scheme: Scheme, out_dir: Path):
        self.name = name
        self.scheme = scheme
        self.cfg = make_table3_config(scheme)
        self.csv_path = out_dir / f"{name}.csv"
        # CA3's two block bands also land on 117.1875 m and 3 velocity bins,
        # so both schemes' truth error is that of the fused CA1 grid.
        fused = make_table3_config()
        self.truth_error = (
            abs(TRUTH_BINS[0] * fused.range_bin_width - TARGET.range_m),
            abs(TRUTH_BINS[1] * fused.velocity_bin_width - TARGET.velocity_mps),
        )

    def run(self, case: Case):
        spec = ExperimentSpec(
            cfg=self.cfg,
            schemes=(self.scheme,),
            target=TARGET,
            snr_grid=(case.snr_db,),
            trials=self.trials_per_op,
            master_seed=case.seed,
        )
        return casense.harness.run_sweep(spec)

    def output(self, result) -> str:
        """The sweep CSV data row, as the library writes it (no wall time)."""
        casense.harness.write_sweep_csv(result, self.csv_path)
        lines = self.csv_path.read_text().splitlines()
        if len(lines) != 2:
            raise ValueError(f"expected one sweep row, got {len(lines) - 1}")
        return lines[1]

    def on_truth(self, output: str) -> bool:
        """Every trial on the truth bins: the RMSE is their quantisation error."""
        fields = output.split(",")
        rmse = (float(fields[2]), float(fields[3]))
        return all(np.isclose(got, want, rtol=1e-9, atol=0.0)
                   for got, want in zip(rmse, self.truth_error))


def make_workloads(out_dir: Path) -> dict[str, Workload]:
    """The workloads by name; why each was chosen is in BENCHMARK.json."""
    workloads = [
        EstimateCli(out_dir),
        Sweep("sweep_ca1_threshold", Scheme.CA1, out_dir),
        Sweep("sweep_ca3", Scheme.CA3, out_dir),
    ]
    return {w.name: w for w in workloads}
