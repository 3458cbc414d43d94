"""The demos print the same bytes: the sha256 of each demo's stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casense
from conftest import pin_mismatch

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's stdout, recorded with Python 3.11. They hold under
# numpy 2.4.6 on x86-64 with SIMD baseline X86_V2 and dispatch X86_V3 X86_V4
# AVX512_ICL AVX512_SPR; a failing pin names the running build.
PINNED_DEMO_OUTPUTS = {
    "01_pilot_grids_and_channel.py": "1af81921563b56a2f56c2eb7fd1dee9859521c81deed8ac229541350efa05127",
    "02_staggered_estimation.py": "e366b45d4f143d4b379a79e332f8052d0a028aae3fe961597f7ba123559dcb82",
    "03_sparse_recovery.py": "9c872a2adce31a9d4414dae59cb1eeb3dbf9279533bdbfe798319be28f453613",
    "04_crlb_analysis.py": "6d4d5a3447d889341a04b0e1c9d209acdc950a4b20801465744b7b0011c772e8",
    "05_rmse_sweep.py": "6a0ec280f5a73ce078aa2bb54d182de9faf6fbd9b08fe96eb7bd92647324666f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED_DEMO_OUTPUTS)


@pytest.mark.parametrize(
    "name, digest", PINNED_DEMO_OUTPUTS.items(), ids=[name[:2] for name in PINNED_DEMO_OUTPUTS]
)
def test_demo_prints_pinned_bytes(name, digest):
    src = str(Path(casense.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, env=env, timeout=300, check=True
    )
    assert hashlib.sha256(run.stdout).hexdigest() == digest, pin_mismatch()
