import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casense.config import (
    C0_EXACT,
    MAX_BAND_CELLS,
    BandConfig,
    Block,
    CaConfig,
    Comb,
    Scheme,
    config_from_dict,
    config_to_dict,
    load_config,
    make_table3_config,
    range_bin_width,
    save_config,
    velocity_bin_width,
    with_high_band_spacing,
    with_scheme,
)
from casense.errors import (
    CasenseError,
    InvalidConfig,
    NonIntegerSpacingRatio,
    PilotIntervalDoesNotDivide,
    SchemeMismatch,
    VelocityFusionConstraintViolated,
)
from conftest import lattice_config


def test_table3_config_is_valid():
    cfg = make_table3_config()
    assert cfg.scheme is Scheme.CA1
    assert cfg.k_ratio == 4
    assert cfg.low.fc == 5.9e9 and cfg.high.fc == 24e9
    assert cfg.low.delta_f == 30e3 and cfg.high.delta_f == 120e3
    assert cfg.low.n_subcarriers == 512 and cfg.low.n_symbols == 64
    assert isinstance(cfg.low.pilot, Comb) and cfg.low.pilot.interval == 4
    assert isinstance(cfg.high.pilot, Block) and cfg.high.pilot.interval == 4


def test_table3_symbol_durations():
    cfg = make_table3_config()
    t2 = cfg.high.symbol_duration
    assert t2 == pytest.approx(1.0 / 120e3 + 1.33e-6, rel=1e-15)
    # displays as 9.7 us after rounding to one decimal
    assert round(t2 * 1e6, 1) == 9.7
    # low-band duration is derived from the exact velocity-fusion constraint
    t1 = cfg.low.symbol_duration
    assert t1 * cfg.low.fc == pytest.approx(t2 * cfg.high.fc, rel=1e-15)
    assert t1 == pytest.approx(t2 * 24e9 / 5.9e9, rel=1e-12)
    assert cfg.low.t_cp >= 0


def test_table3_bin_widths():
    cfg = make_table3_config()
    # c0 / (2 delta_f2 N) with round c0
    assert cfg.range_bin_width == pytest.approx(2.44140625, abs=0)
    # 48 bins land exactly on the 117.1875 m reference point
    assert 48 * cfg.range_bin_width == 117.1875
    # c0 / (2 fc2 T2 M); T2*fc2 = 231920 for the 1.33 us CP
    assert cfg.velocity_bin_width == pytest.approx(3e8 / (2 * 231920.0 * 64), rel=1e-12)
    assert cfg.velocity_bin_width == pytest.approx(10.105855, abs=1e-5)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_bin_width_properties_use_the_high_band_grid(scheme):
    cfg = with_scheme(make_table3_config(), scheme)
    high = cfg.high
    assert cfg.range_bin_width == 3e8 / (2.0 * high.delta_f * high.n_subcarriers)
    assert cfg.velocity_bin_width == 3e8 / (2.0 * high.fc * high.symbol_duration * high.n_symbols)
    # a comb band's rearranged grid (K * delta_f_low) is the high band's grid in CA1
    low = make_table3_config().low
    assert range_bin_width(3e8, cfg.k_ratio * low.delta_f, low.n_subcarriers) == cfg.range_bin_width
    assert velocity_bin_width(3e8, low) == pytest.approx(cfg.velocity_bin_width, rel=1e-12)


def test_spacing_ratio_must_be_integer():
    cfg = make_table3_config()
    low = replace(cfg.low, delta_f=30e3)
    high = replace(cfg.high, delta_f=100e3)  # ratio 10/3
    with pytest.raises(NonIntegerSpacingRatio):
        CaConfig(low=low, high=high, scheme=Scheme.CA1, c0=cfg.c0)


def test_pilot_interval_must_divide():
    with pytest.raises(PilotIntervalDoesNotDivide):
        BandConfig(5.9e9, 30e3, 512, 64, 1e-6, Comb(5))
    with pytest.raises(PilotIntervalDoesNotDivide):
        BandConfig(5.9e9, 30e3, 512, 64, 1e-6, Block(7))


def test_velocity_fusion_constraint_reports_residual():
    cfg = make_table3_config()
    low = replace(cfg.low, t_cp=cfg.low.t_cp + 1e-6)
    with pytest.raises(VelocityFusionConstraintViolated) as err:
        CaConfig(low=low, high=cfg.high, scheme=Scheme.CA1, c0=cfg.c0)
    assert "T1*fc1" in str(err.value)


def test_comb_interval_tied_to_spacing_ratio_in_ca1():
    cfg = make_table3_config()
    low = replace(cfg.low, pilot=Comb(2))  # ratio is 4
    with pytest.raises(SchemeMismatch):
        CaConfig(low=low, high=cfg.high, scheme=Scheme.CA1, c0=cfg.c0)


def test_pattern_scheme_agreement():
    cfg = make_table3_config()
    with pytest.raises((SchemeMismatch, NonIntegerSpacingRatio)):
        CaConfig(low=cfg.high, high=cfg.low, scheme=Scheme.CA1, c0=cfg.c0)


# one broken invariant each: (field path in the JSON document, bad value, error, message start)
BROKEN_INVARIANTS = {
    "spacing-ratio": (("high", "delta_f"), 100e3, NonIntegerSpacingRatio, "delta_f ratio 3.33"),
    "T*fc": (("low", "t_cp"), 7e-6, VelocityFusionConstraintViolated, "|T1*fc1 - T2*fc2| = "),
    "pattern": (("low", "pilot"), {"kind": "block", "interval": 4}, SchemeMismatch,
                "scheme CA1 expects low=Comb, high=Block; got low=Block, high=Block"),
    "comb-interval": (("low", "pilot"), {"kind": "comb", "interval": 2}, SchemeMismatch,
                      "comb interval 2 must equal the spacing ratio 4 in scheme CA1"),
}


def _band_from_doc(band: dict) -> BandConfig:
    pilot = (Comb if band["pilot"]["kind"] == "comb" else Block)(band["pilot"]["interval"])
    return BandConfig(band["fc"], band["delta_f"], band["n_subcarriers"], band["n_symbols"],
                      band["t_cp"], pilot)


@pytest.mark.parametrize("case", list(BROKEN_INVARIANTS))
def test_each_aggregation_invariant_raises_when_built(case):
    (section, key), value, error, message = BROKEN_INVARIANTS[case]
    doc = config_to_dict(make_table3_config())
    doc[section][key] = value
    with pytest.raises(error) as from_dict:
        config_from_dict(doc)
    assert str(from_dict.value).startswith(message)
    low, high = (_band_from_doc(doc[name]) for name in ("low", "high"))
    with pytest.raises(error) as built:
        CaConfig(low=low, high=high, scheme=Scheme.CA1, c0=3e8)
    assert str(built.value) == str(from_dict.value)


def test_k_ratio_exact():
    cfg = make_table3_config()
    assert cfg.k_ratio * cfg.low.delta_f == cfg.high.delta_f


@pytest.mark.parametrize("scheme", list(Scheme))
def test_with_scheme_builds_each_structure(scheme):
    cfg = with_scheme(make_table3_config(), scheme)
    low_kind, high_kind = scheme.patterns
    assert isinstance(cfg.low.pilot, low_kind)
    assert isinstance(cfg.high.pilot, high_kind)
    assert cfg.low.pilot.interval == 4 and cfg.high.pilot.interval == 4


# the low-band CP recorded before make_table3_config was built from with_scheme
# and with_high_band_spacing; every other field is a literal of Table 3
T_CP_LOW_133 = 5.975141242937854e-06  # t_cp_high = 1.33 us


@pytest.mark.parametrize(
    "scheme, low_pilot, high_pilot",
    [
        (Scheme.CA1, Comb(4), Block(4)),
        (Scheme.CA2, Block(4), Comb(4)),
        (Scheme.CA3, Block(4), Block(4)),
        (Scheme.CA4, Comb(4), Comb(4)),
    ],
    ids=["CA1", "CA2", "CA3", "CA4"],
)
def test_table3_config_matches_recorded(scheme, low_pilot, high_pilot):
    expected = CaConfig(
        low=BandConfig(5.9e9, 30e3, 512, 64, T_CP_LOW_133, low_pilot),
        high=BandConfig(24e9, 120e3, 512, 64, 1.33e-6, high_pilot),
        scheme=scheme,
        c0=3e8,
    )
    assert make_table3_config(scheme) == expected  # dataclass equality: exact floats


def test_with_high_band_spacing_preserves_constraints():
    cfg = make_table3_config()
    scaled = with_high_band_spacing(cfg, 240e3)
    assert scaled.high.delta_f == 240e3
    assert scaled.low.delta_f == 60e3
    g1 = scaled.low.symbol_duration * scaled.low.fc
    g2 = scaled.high.symbol_duration * scaled.high.fc
    assert g1 == pytest.approx(g2, rel=1e-14)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("n, m, k, q", [(512, 64, 4, 4), (8, 6, 2, 3), (12, 10, 3, 5)])
def test_config_file_round_trip(tmp_path, scheme, n, m, k, q):
    cfg = lattice_config(n, m, k, q, scheme)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    # file is a readable nested key/value document with plain decimals
    doc = json.loads(path.read_text())
    assert doc["low"]["fc"] == 5.9e9
    assert doc["high"]["pilot"]["kind"] == ("comb" if scheme in (Scheme.CA2, Scheme.CA4) else "block")


# sha256 of save_config's file for each Table-3 scheme, recorded before the
# codec read a band's keys from BandConfig's fields
SAVED_TABLE3_SHA256 = {
    Scheme.CA1: "fa7d45f6b77e45dd0e834ff8f93dd3fa31d7c40d6562114aba1d8335981276a6",
    Scheme.CA2: "e01f75157996162178209f3ce6984e436b2a9390e97364dae11854c8c5ec2fcd",
    Scheme.CA3: "5b982d409114a8df9254906a11054c8718e4b5346cc522ff0a75617345ded223",
    Scheme.CA4: "926af0d74c385c91e3fffd157d56375e4d614733930b088c9f9120cc7dace691",
}


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_save_config_bytes_pinned(tmp_path, scheme):
    path = tmp_path / "cfg.json"
    save_config(make_table3_config(scheme), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_TABLE3_SHA256[scheme]


# lattice_config is valid for a spacing ratio k <= 4: above it the low-band CP is negative
@given(
    scheme=st.sampled_from(list(Scheme)),
    k=st.integers(1, 4),
    q=st.integers(1, 8),
    n_per_comb=st.integers(1, 64),
    m_per_block=st.integers(1, 16),
)
def test_config_dict_json_round_trip_property(scheme, k, q, n_per_comb, m_per_block):
    cfg = lattice_config(max(2, k * n_per_comb), max(2, q * m_per_block), k, q, scheme)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


NAN, INF = float("nan"), float("inf")
BAD_BANDS = {
    "fc=0": dict(fc=0.0),
    "fc=-1": dict(fc=-1.0),
    "fc=nan": dict(fc=NAN),
    "fc=inf": dict(fc=INF),
    "delta_f=0": dict(delta_f=0.0),
    "delta_f=nan": dict(delta_f=NAN),
    "delta_f=inf": dict(delta_f=INF),
    "t_cp=-1e-9": dict(t_cp=-1e-9),
    "t_cp=nan": dict(t_cp=NAN),
    "t_cp=inf": dict(t_cp=INF),
    "n_subcarriers=1": dict(n_subcarriers=1, pilot=Comb(1)),
    "n_symbols=1": dict(n_symbols=1, pilot=Comb(1)),
}


def test_band_config_rejects_bad_values():
    good = dict(fc=5.9e9, delta_f=30e3, n_subcarriers=512, n_symbols=64, t_cp=0.0, pilot=Comb(4))
    for case, fields in BAD_BANDS.items():
        with pytest.raises(InvalidConfig) as info:
            BandConfig(**{**good, **fields})
        assert isinstance(info.value, CasenseError) and isinstance(info.value, ValueError), case


def test_band_config_bounds_cells_per_band():
    good = dict(fc=5.9e9, delta_f=30e3, n_subcarriers=512, n_symbols=64, t_cp=0.0, pilot=Comb(4))
    assert 512 * 64 * 128 == MAX_BAND_CELLS  # 128 times Table 3's grid
    BandConfig(**{**good, "n_subcarriers": MAX_BAND_CELLS // 64})  # at the ceiling
    for n, m in ((MAX_BAND_CELLS // 64 + 4, 64), (2**40, 64), (512, 2**40)):
        with pytest.raises(InvalidConfig, match=f"over {MAX_BAND_CELLS} per band"):
            BandConfig(**{**good, "n_subcarriers": n, "n_symbols": m})
    doc = config_to_dict(make_table3_config())
    doc["high"]["n_symbols"] = 2**40
    with pytest.raises(InvalidConfig, match="n_subcarriers \\* n_symbols"):
        config_from_dict(doc)


@pytest.mark.parametrize("c0", [0.0, -3e8, NAN, INF])
def test_ca_config_rejects_bad_c0_where_built(c0):
    cfg = make_table3_config()
    with pytest.raises(InvalidConfig):
        CaConfig(low=cfg.low, high=cfg.high, scheme=cfg.scheme, c0=c0)
    with pytest.raises(InvalidConfig):
        config_from_dict({**config_to_dict(cfg), "c0": c0})


def test_high_band_spacing_needing_a_negative_cp_is_invalid_config():
    # fc ratio 2 < spacing ratio 4: T1 = 2 T2 needs T2 >= 2/delta_f_high, so the 1.33 us
    # high-band CP must cover 1/delta_f_high; it does at 1.2 MHz and not at 120 kHz
    high = BandConfig(24e9, 1.2e6, 512, 64, 1.33e-6, Block(4))
    t_cp_low = (1 / 1.2e6 + 1.33e-6) * 24e9 / 12e9 - 1 / 0.3e6
    assert t_cp_low > 0
    low = BandConfig(12e9, 0.3e6, 512, 64, t_cp_low, Comb(4))
    close = CaConfig(low=low, high=high, scheme=Scheme.CA1, c0=3e8)
    with pytest.raises(InvalidConfig, match="negative low-band CP"):
        with_high_band_spacing(close, 120e3)


def test_unknown_pilot_kind_is_invalid_config():
    doc = config_to_dict(make_table3_config())
    doc["low"]["pilot"]["kind"] = "diamond"
    with pytest.raises(InvalidConfig, match="unknown pilot kind 'diamond'"):
        config_from_dict(doc)


def _table3_doc():
    return config_to_dict(make_table3_config())


def _section_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# (path to the value, replacement): every value a JSON config can hold that is not the
# integer, number or string the field takes
INEXACT_CONFIG_VALUES = {
    "interval=4.7": (("low", "pilot", "interval"), 4.7),
    "interval=4.0": (("low", "pilot", "interval"), 4.0),
    "interval=true": (("high", "pilot", "interval"), True),
    "interval='4'": (("high", "pilot", "interval"), "4"),
    "n_subcarriers=512.9": (("low", "n_subcarriers"), 512.9),
    "n_subcarriers=2.5": (("high", "n_subcarriers"), 2.5),
    "n_symbols=null": (("high", "n_symbols"), None),
    "n_symbols=false": (("low", "n_symbols"), False),
    "fc='5.9e9'": (("low", "fc"), "5.9e9"),
    "delta_f=true": (("high", "delta_f"), True),
    "t_cp=null": (("low", "t_cp"), None),
    "c0='3e8'": (("c0",), "3e8"),
    "kind=1": (("low", "pilot", "kind"), 1),
    "scheme='CA9'": (("scheme",), "CA9"),
    "scheme=3": (("scheme",), 3),
    "low=[]": (("low",), []),
    "pilot='comb'": (("high", "pilot"), "comb"),
}


@pytest.mark.parametrize("path, value", INEXACT_CONFIG_VALUES.values(), ids=INEXACT_CONFIG_VALUES)
def test_config_from_dict_takes_values_exactly(path, value):
    doc = _table3_doc()
    _section_at(doc, path[:-1])[path[-1]] = value
    with pytest.raises(InvalidConfig) as info:
        config_from_dict(doc)
    assert isinstance(info.value, ValueError)


MISSING_CONFIG_KEYS = [
    ("scheme",), ("low",), ("high",),
    *[(band, key) for band in ("low", "high")
      for key in ("fc", "delta_f", "n_subcarriers", "n_symbols", "t_cp", "pilot")],
    ("low", "pilot", "kind"), ("high", "pilot", "interval"),
]


@pytest.mark.parametrize("path", MISSING_CONFIG_KEYS, ids=[".".join(p) for p in MISSING_CONFIG_KEYS])
def test_config_from_dict_requires_every_key_but_c0(path):
    doc = _table3_doc()
    del _section_at(doc, path[:-1])[path[-1]]
    with pytest.raises(InvalidConfig, match=f"missing {'.'.join(path)}"):
        config_from_dict(doc)


def test_config_from_dict_defaults_only_c0():
    doc = _table3_doc()
    del doc["c0"]
    assert config_from_dict(doc) == replace(make_table3_config(), c0=C0_EXACT)


@pytest.mark.parametrize("path", [(), ("low",), ("high", "pilot")], ids=["cfg", "low", "high.pilot"])
def test_config_from_dict_rejects_unknown_keys(path):
    doc = _table3_doc()
    _section_at(doc, path)["offset"] = 0
    with pytest.raises(InvalidConfig, match="unknown key"):
        config_from_dict(doc)


def test_load_config_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"scheme": "CA1",')
    with pytest.raises(InvalidConfig, match="is not JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "fields",
    [dict(n_subcarriers=512.0), dict(n_symbols=True), dict(pilot=Comb(4.0)), dict(pilot=Block(True))],
    ids=["n_subcarriers=512.0", "n_symbols=True", "Comb(4.0)", "Block(True)"],
)
def test_band_config_takes_integers_exactly(fields):
    good = dict(fc=5.9e9, delta_f=30e3, n_subcarriers=512, n_symbols=64, t_cp=0.0, pilot=Comb(4))
    with pytest.raises(InvalidConfig):
        BandConfig(**{**good, **fields})
    assert BandConfig(**{**good, "n_subcarriers": np.int64(512)}).n_subcarriers == 512
