import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casense.cli
import casense.estimators
import casense.fusion
import casense
import casense.harness
from casense.channel import Target, sigma_for_snr
from casense.cli import MAX_SNR_POINTS, _parse_snr, main
from casense.config import config_to_dict, load_config, make_table3_config, save_config
from casense.errors import InvalidSnrGrid
from casense.estimators import estimate_any_scheme
from casense.grids import CSV_FLOAT_FMT, full_grid, pilot_mask
from casense.harness import simulate_trial_matrices
from casense.recovery import FORWARD
from conftest import pin_mismatch


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_parse_snr_forms():
    assert _parse_snr("-30:5:10") == [-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0]
    assert _parse_snr("0,3,7.5") == [0.0, 3.0, 7.5]
    with pytest.raises(ValueError):
        _parse_snr("0:-1:10")


@pytest.mark.parametrize(
    "text",
    [
        "nan:1:10",
        "0:nan:10",
        "0:1:inf",
        "-inf:1:0",
        "0,nan,3",
        "inf",
        "0:1e-3:10",  # 10001 points
        ",".join(["0"] * (MAX_SNR_POINTS + 1)),
        "0:1",
        "10:1:0",
        "abc",
    ],
)
def test_parse_snr_rejects_bad_grids(text):
    with pytest.raises(InvalidSnrGrid):
        _parse_snr(text)


def test_parse_snr_cap_is_inclusive():
    assert len(_parse_snr(f"1:1:{MAX_SNR_POINTS}")) == MAX_SNR_POINTS
    assert len(_parse_snr(",".join(["0"] * MAX_SNR_POINTS))) == MAX_SNR_POINTS


def test_bad_snr_grid_reaches_user_as_casense_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["crlb", "--out", str(tmp_path / "c.csv"), "--snr", "nan:1:10"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "casense: error: snr 'nan:1:10': every value must be finite"


SUBCOMMANDS = ["simulate", "estimate", "crlb", "sweep", "compare-pilots"]
NAN_SNR = "casense: error: snr 'nan': every value must be finite"
# (subcommand, flags, last stderr line); the bad --snr cases keep their
# subcommand as id, the others name the flag value
BAD_INPUTS = [pytest.param(c, ["--snr", "nan"], NAN_SNR, id=c) for c in SUBCOMMANDS] + [
    pytest.param(
        c, [f"--snr={snr}"], f"casense: error: snr '{snr}': expected a single point, got {n}",
        id=f"{c}-snr={snr}",
    )
    for c in ("simulate", "estimate")
    for snr, n in (("10,-30", 2), ("-30:5:10", 9))
] + [
    pytest.param(
        "crlb", [f"--delta-f={v}"],
        f"casense crlb: error: argument --delta-f: '{v}' is not a comma list of positive "
        "spacings (Hz)",
        id=f"crlb-delta-f={v}",
    )
    for v in ("0", "nan", "-120e3", "60e3,0")
] + [
    # a non-numeric value fails the converter's float(); argparse reports that itself
    pytest.param(
        "crlb", [f"--delta-f={v}"],
        f"casense crlb: error: argument --delta-f: invalid _spacings value: '{v}'",
        id=f"crlb-delta-f={v}",
    )
    for v in ("abc", "60e3,")
] + [
    pytest.param(
        c, ["--trials", v], f"casense {c}: error: argument --trials: '{v}' is not a positive integer",
        id=f"{c}-trials={v}",
    )
    for c in ("sweep", "compare-pilots")
    for v in ("0", "-1")
] + [
    pytest.param(
        c, ["--trials", v], f"casense {c}: error: argument --trials: invalid _positive_int value: '{v}'",
        id=f"{c}-trials={v}",
    )
    for c in ("sweep", "compare-pilots")
    for v in ("2.5", "abc")
] + [
    pytest.param(
        c, ["--seed", "-1"], f"casense {c}: error: argument --seed: '-1' is not an integer >= 0",
        id=f"{c}-seed=-1",
    )
    for c in ("simulate", "estimate", "sweep", "compare-pilots")
] + [
    # the bounds draw no noise, so crlb takes no seed
    pytest.param(
        "crlb", ["--seed", "0"], "casense: error: unrecognized arguments: --seed 0", id="crlb-seed",
    )
]


@pytest.mark.parametrize("command, flags, message", BAD_INPUTS)
def test_every_subcommand_reports_bad_snr_as_usage_error(tmp_path, capsys, command, flags, message):
    # bad --snr grids and the other bad flag values alike: exit status 2, one
    # error line, no traceback, nothing written
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path / "o"), *flags])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == message
    assert [line for line in err.splitlines() if "error:" in line] == [message]
    assert list(tmp_path.iterdir()) == []


BAD_SOLVER_OR_TARGET = [
    pytest.param(c, flags, id=f"{c}{''.join(flags)}")
    for c in ("estimate", "sweep", "compare-pilots")
    for flags in (
        ["--lambda-scale", "nan"],
        ["--lambda-scale", "-1"],
        ["--tol", "inf"],
        ["--tol", "-1"],
        ["--max-iters", "0"],
        ["--range", "-1"],
        ["--range", "nan"],
        ["--velocity", "inf"],
        ["--gain", "0"],
    )
] + [
    pytest.param(c, flags, id=f"{c}{''.join(flags)}")
    for c, flags in (
        ("simulate", ["--range", "-1"]),
        ("simulate", ["--gain", "0"]),
        ("simulate", ["--range", "5000"]),  # beyond the low band's unambiguous span
        ("estimate", ["--range", "5000"]),
    )
]
FIELD_IN_MESSAGE = {
    "--lambda-scale": "lambda_scale", "--tol": "tol", "--max-iters": "max_iters",
    "--range": "range", "--velocity": "velocity", "--gain": "gain",
}


@pytest.mark.parametrize("command, flags", BAD_SOLVER_OR_TARGET)
def test_bad_solver_or_target_flags_are_usage_errors(tmp_path, capsys, command, flags):
    # exit status 2, one error line naming the value, no traceback, nothing written
    trials = ["--trials", "1"] if command in ("sweep", "compare-pilots") else []
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path / "o"), "--snr", "10", *trials, *flags])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert err.splitlines()[-1].startswith(f"casense: error: {FIELD_IN_MESSAGE[flags[0]]} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_invalid_config_file_is_a_usage_error(tmp_path, capsys, command):
    doc = config_to_dict(make_table3_config())
    doc["high"]["delta_f"] = 100e3  # spacing ratio 10/3
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "c")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("casense: error: delta_f ratio 3.33")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]



def test_sweep_prints_each_warning_once(tmp_path):
    # trials run in helper processes too, which drop warnings: stderr holds what one
    # process prints for a fixed ambiguous target, one warning per band
    src = str(Path(casense.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["sweep", "--out", str(tmp_path / "s.csv"), "--snr", "10", "--trials", "8",
            "--scheme", "CA3", "--velocity", "400"]
    proc = subprocess.run([sys.executable, "-m", "casense.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines() if "VelocityAmbiguityWarning" in line]
    assert [line.rsplit(" at ", 1)[1] for line in warned] == ["fc=5.9e+09 Hz", "fc=2.4e+10 Hz"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_config_file_over_the_cell_ceiling_is_a_usage_error(tmp_path, capsys, command):
    doc = config_to_dict(make_table3_config())
    doc["low"]["n_subcarriers"] = 2**40  # about 1 PiB per band as complex128
    (tmp_path / "big.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(tmp_path / "big.json"), "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert err.splitlines()[-1] == "casense: error: n_subcarriers * n_symbols is over 4194304 per band"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_config_path_is_a_usage_error(tmp_path, capsys, command, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe{")
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert err.splitlines()[-1].startswith(f"casense: error: config {path} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if kind == "missing" else ["cfg.json"])

BAD_CONFIG_FIELDS = [
    ("low", "fc", -1.0),
    ("low", "fc", float("nan")),
    ("high", "fc", float("inf")),
    ("high", "delta_f", float("nan")),
    ("low", "t_cp", float("nan")),
    ("high", "t_cp", -1e-6),
    (None, "c0", float("nan")),
    (None, "c0", 0.0),
    (None, "c0", float("inf")),
]


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize(
    "band, key, value", BAD_CONFIG_FIELDS, ids=[f"{b or 'cfg'}.{k}={v}" for b, k, v in BAD_CONFIG_FIELDS]
)
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, command, band, key, value):
    # json writes nan and inf as NaN and Infinity, which json.load reads back
    doc = config_to_dict(make_table3_config())
    (doc[band] if band else doc)[key] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert err.splitlines()[-1].startswith(f"casense: error: {key} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


INEXACT_CONFIG_FILES = {
    "interval=4.7": (("low", "pilot", "interval"), 4.7),
    "interval=true": (("low", "pilot", "interval"), True),
    "n_subcarriers=512.9": (("high", "n_subcarriers"), 512.9),
    "missing low.t_cp": (("low", "t_cp"), None),
    "unknown high.offset": (("high", "offset"), 0),
}


@pytest.mark.parametrize("path, value", INEXACT_CONFIG_FILES.values(), ids=INEXACT_CONFIG_FILES)
def test_inexact_config_file_is_a_usage_error(tmp_path, capsys, path, value):
    # value None deletes the key
    doc = config_to_dict(make_table3_config())
    *parents, key = path
    section = doc
    for p in parents:
        section = section[p]
    if value is None:
        del section[key]
    else:
        section[key] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    assert key in err.splitlines()[-1]  # the message names the field, not a later symptom
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "command, snr, message",
    [
        ("estimate", "-7000", "snr -7000"),
        ("sweep", "-7000", "snr -7000"),
        ("crlb", "-7000", "snr -7000"),
        ("crlb", "7000", "sigma 0.0"),  # sigma underflows to 0: no finite bound
    ],
)
def test_snr_without_a_usable_noise_level_is_a_usage_error(tmp_path, capsys, command, snr, message):
    trials = ["--trials", "1"] if command == "sweep" else []
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path / "o"), f"--snr={snr}", *trials])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"casense: error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_estimate_subcommand(tmp_path, capsys):
    out = tmp_path / "shot"
    rc = main(
        [
            "estimate",
            "--out", str(out),
            "--range", "117", "--velocity", "30",
            "--snr", "10", "--seed", "3",
            "--max-iters", "60", "--tol", "1e-5",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "117.187500 m" in printed
    rows = read_csv(f"{out}_range.csv")
    assert rows[0] == ["bin", "range_m", "power", "is_peak"]
    assert len(rows) == 1 + 512
    peak_rows = [r for r in rows[1:] if r[3] == "1"]
    assert len(peak_rows) == 1
    assert float(peak_rows[0][1]) == pytest.approx(117.1875)
    v_rows = read_csv(f"{out}_velocity.csv")
    assert len(v_rows) == 1 + 64


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "chan"
    rc = main(["simulate", "--out", str(out), "--snr", "5", "--seed", "1"])
    assert rc == 0
    target = Target(117.0, 30.0)
    mats = simulate_trial_matrices(
        make_table3_config(), target, sigma_for_snr(5.0, target.gain), (1, 0, 0, 0)
    )
    for kind, mat in zip(("low", "high"), mats):
        rows = read_csv(f"{out}_{kind}.csv")
        assert rows[0] == ["n", "m", "re", "im", "mask"]
        assert len(rows) == 1 + 512 * 64
        cells = np.array([[float(r[2]), float(r[3])] for r in rows[1:]])  # plain floats
        values = (cells[:, 0] + 1j * cells[:, 1]).reshape(512, 64)
        expected = full_grid(mat.band, mat.pilots)
        assert values.view(np.int64).tobytes() == expected.view(np.int64).tobytes()
        mask = np.array([int(r[4]) for r in rows[1:]], dtype=bool).reshape(512, 64)
        assert np.array_equal(mask, pilot_mask(mat.band))


def test_crlb_subcommand(tmp_path):
    out = tmp_path / "crlb.csv"
    rc = main(["crlb", "--out", str(out), "--snr=-10,0", "--delta-f", "60e3,120e3"])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0][0] == "scheme"
    # 2 methods x 2 snr x 2 spacings
    assert len(rows) == 1 + 8
    assert {r[7] for r in rows[1:]} == {"closed-form", "oracle"}


def test_sweep_subcommand_deterministic(tmp_path):
    args = [
        "sweep",
        "--snr", "10",
        "--trials", "2",
        "--seed", "7",
        "--max-iters", "40", "--tol", "1e-4",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[1][0] == "CA1"
    assert float(rows[1][2]) == pytest.approx(0.1875, abs=1e-9)


def test_compare_pilots_subcommand(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(
        [
            "compare-pilots",
            "--out", str(out),
            "--snr", "10",
            "--trials", "1",
            "--max-iters", "40", "--tol", "1e-4",
        ]
    )
    assert rc == 0
    rows = read_csv(out)
    assert sorted({r[0] for r in rows[1:]}) == ["CA1", "CA2", "CA3", "CA4"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    """The bodies of README's fenced code blocks in lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def readme_commands():
    """README's `casense` command lines, each as the argument list after `casense`."""
    lines = (line for block in readme_blocks("sh") for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("casense ")]


def test_readme_config_block_loads_as_table3(tmp_path):
    (block,) = readme_blocks("json")
    path = tmp_path / "cfg.json"
    path.write_text(block)
    assert load_config(path) == make_table3_config()
    assert json.loads(block) == config_to_dict(make_table3_config())  # save_config's values


def test_readme_command_lines_parse(monkeypatch):
    parsed = []
    monkeypatch.setattr(casense.cli, "_run", parsed.append)
    for argv in readme_commands():
        assert main(argv) == 0
    commands = [args.command for args in parsed]
    assert commands == ["estimate", "simulate", "crlb", "sweep", "compare-pilots"]


@pytest.mark.parametrize(
    "command, files",
    [("estimate", ["shot_range.csv", "shot_velocity.csv"]),
     ("simulate", ["chan_high.csv", "chan_low.csv"]),
     ("crlb", ["crlb.csv"])],
)
def test_readme_single_shot_command_lines_run(tmp_path, command, files):
    # sweep and compare-pilots run for minutes; CI runs README's lines of them as written
    (argv,) = [argv for argv in readme_commands() if argv[0] == command]
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / Path(argv[out]).name)
    assert main(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == files


def test_config_file_and_scheme_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(make_table3_config(), cfg_path)
    out = tmp_path / "crlb.csv"
    rc = main(
        ["crlb", "--config", str(cfg_path), "--scheme", "CA4", "--out", str(out), "--snr", "0"]
    )
    assert rc == 0
    rows = read_csv(out)
    assert rows[1][0] == "CA4"


FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")
INT_COLUMNS = {"n", "m", "mask", "bin", "is_peak", "trials"}
STR_COLUMNS = {"scheme", "method"}


def test_every_csv_writes_floats_in_the_one_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fast = ["--max-iters", "5", "--tol", "1e-3"]
    for argv in (
        ["simulate", "--out", "sim", "--snr", "5"],
        ["estimate", "--out", "est", "--snr", "10", *fast],
        ["crlb", "--out", "crlb.csv", "--snr", "0", "--delta-f", "60e3,120e3"],
        ["sweep", "--out", "sweep.csv", "--snr", "10", "--trials", "1", *fast],
        ["compare-pilots", "--out", "cmp.csv", "--snr", "10", "--trials", "1", *fast],
    ):
        assert main(argv) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "cmp.csv", "crlb.csv", "est_range.csv", "est_velocity.csv",
        "sim_high.csv", "sim_low.csv", "sweep.csv",
    ]
    for name in names:
        header, *rows = read_csv(tmp_path / name)
        assert rows, name
        for col, label in enumerate(header):
            cells = [row[col] for row in rows]
            if label in STR_COLUMNS:
                continue
            if label in INT_COLUMNS:
                assert all(str(int(c)) == c for c in cells), (name, label)
                continue
            for c in cells:
                assert FLOAT_CELL.match(c), (name, label, c)
                assert CSV_FLOAT_FMT % float(c) == c, (name, label, c)


def patch_counter(monkeypatch, module, name, record):
    """Replace module.name, at every casense module attribute holding it,
    by a wrapper that appends its positional arguments to record."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        record.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("casense") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("snr", ["10", "-20"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ca1_estimate_simulates_and_solves_once(tmp_path, capsys, monkeypatch, seed, snr):
    target = Target(117.0, 30.0)
    cfg = make_table3_config()
    mats = simulate_trial_matrices(cfg, target, sigma_for_snr(float(snr), target.gain), (seed, 0, 0, 0))
    r_est, v_est = estimate_any_scheme(*mats, cfg)
    expected = f"scheme CA1: range {r_est.value:.6f} m, velocity {v_est.value:.6f} m/s\n"

    sims, solves = [], []
    patch_counter(monkeypatch, casense.harness, "simulate_trial_matrices", sims)
    patch_counter(monkeypatch, casense.estimators, "fista_iterations", solves)
    rc = main(["estimate", "--out", str(tmp_path / "shot"), f"--snr={snr}", "--seed", str(seed)])
    assert rc == 0
    assert len(sims) == 1
    # the comb band's range solve is the one iterative solve: the block band's
    # velocity spectrum is closed form
    assert [args[0].direction for args in solves] == [FORWARD]
    assert capsys.readouterr().out == expected


def test_ca1_estimate_runs_snapshot_spectra_and_rearranges_once(tmp_path, monkeypatch):
    snapshots, gathers = [], []
    patch_counter(monkeypatch, casense.harness, "snapshot_spectra", snapshots)
    patch_counter(monkeypatch, casense.fusion, "rearrange_low_band", gathers)
    assert main(["estimate", "--out", str(tmp_path / "shot"), "--max-iters", "5"]) == 0
    assert len(snapshots) == 1
    assert [args[0].band for args in gathers] == [make_table3_config().low]


@pytest.mark.parametrize(
    "scheme, seed, line",
    [
        ("CA1", 0, "scheme CA1: range 114.746094 m, velocity 384.022508 m/s"),
        ("CA1", 3, "scheme CA1: range 24.414062 m, velocity 192.011254 m/s"),
        ("CA2", 0, "scheme CA2: range 823.364258 m, velocity 171.799543 m/s"),
        ("CA2", 3, "scheme CA2: range 354.919434 m, velocity 353.704941 m/s"),
        ("CA3", 0, "scheme CA3: range 1151.123047 m, velocity 121.270266 m/s"),
        ("CA3", 3, "scheme CA3: range 441.894531 m, velocity 60.635133 m/s"),
        ("CA4", 0, "scheme CA4: range 158.081055 m, velocity 409.287146 m/s"),
        ("CA4", 3, "scheme CA4: range 15.563965 m, velocity 515.398629 m/s"),
    ],
)
def test_estimate_prints_recorded_line(tmp_path, capsys, scheme, seed, line):
    # lines recorded before the four schemes shared one estimation path;
    # at -30 dB they are off the truth bins, so a changed decision shows
    rc = main(
        ["estimate", "--scheme", scheme, "--out", str(tmp_path / "shot"), "--snr=-30", "--seed", str(seed)]
    )
    assert rc == 0
    assert capsys.readouterr().out == line + "\n"


# sha256 of each invocation's stdout followed by its output files, recorded
# before the four schemes shared one estimation path. They hold under numpy
# 2.4.6 on x86-64 with SIMD baseline X86_V2 and dispatch X86_V3 X86_V4
# AVX512_ICL AVX512_SPR; a failing pin names the running build.
PINNED_OUTPUTS = [
    (
        ["simulate", "--out", "sim", "--snr", "5", "--seed", "1"],
        ["sim_low.csv", "sim_high.csv"],
        "9309390bbbcac097389527a3fb34c1569133c04620d1a859f9cb0ad9e91c485b",
    ),
    (
        ["crlb", "--out", "crlb.csv"],
        ["crlb.csv"],
        "6485385e436f30d87132526816681ca6d4870a3e5afdaddeb46ab0009723ffe6",
    ),
    (
        ["crlb", "--out", "crlb.csv", "--snr=-10,0", "--delta-f", "60e3,120e3"],
        ["crlb.csv"],
        "7a8065f90560ada779d0ce64aae2f1feee3353ca774557a944aa302275fca055",
    ),
    (
        ["sweep", "--out", "sweep.csv", "--snr=-20,10", "--trials", "2"],
        ["sweep.csv"],
        "51b61f47cd974e670e61c2ac63fedefe84a48a1c519cf55e69dd6f4612ab3463",
    ),
    (
        ["compare-pilots", "--out", "cmp.csv", "--snr=-20", "--trials", "1"],
        ["cmp.csv"],
        "2e884447a9953364ff8ba1b13b6a813f50422a26c45c04323d1ad6415c447a00",
    ),
    # recorded before the block band's velocity spectrum became closed form
    (
        ["estimate", "--out", "est", "--snr=-20", "--seed", "1"],
        ["est_range.csv", "est_velocity.csv"],
        "18ddb72f222da8b2c1365fa3778cc77e73bae957c5d74f623d9e1b3fa1adafc1",
    ),
    (
        ["sweep", "--scheme", "CA3", "--out", "sweep3.csv", "--snr=-26:2:-12", "--trials", "2"],
        ["sweep3.csv"],
        "22f5852139b458f0057972ba72c9607231b71ec840d7d6a643279a49eb9466e3",
    ),
]


@pytest.mark.parametrize(
    "argv, files, digest",
    PINNED_OUTPUTS,
    ids=[
        "simulate", "crlb-default", "crlb-delta-f", "sweep", "compare-pilots",
        "estimate-ca1-csvs", "sweep-ca3",
    ],
)
def test_cli_output_bytes_pinned(tmp_path, capsys, monkeypatch, argv, files, digest):
    monkeypatch.chdir(tmp_path)  # relative --out paths keep stdout free of tmp_path
    assert main(argv) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for name in files:
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == digest, pin_mismatch()
