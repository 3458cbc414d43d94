"""The checking rules of casense.errors, as every record's constructor and the public
functions apply them.

Each scalar field of each record takes one kind of value: a finite real
(maybe signed), an integer >= a bound, a complex gain or a bool. Built with a
value of another kind, the record raises a CasenseError, never numpy's or
Python's TypeError, AttributeError or ValueError.
"""

import math
import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casense import (
    BandConfig, CaConfig, ChannelInfoMatrix, Comb, CrlbInputs, ExperimentSpec, LassoProblem, Scheme,
    SensingOperator, SolverOptions, Target, TargetScene, TxGrid, build_range_selection, certify_kkt,
    crlb_sweep, default_lambda, generate_tx_grid, make_table3_config, sigma_for_snr,
    simulate_channel_info,
)
from casense import errors
from casense.recovery import fista_iterations
from casense.errors import (
    CasenseError, DimensionMismatch, InvalidConfig, InvalidNoiseLevel, InvalidSolverOptions,
    InvalidTarget, PilotIntervalDoesNotDivide,
)

CFG = make_table3_config()
BAND = dict(fc=5.9e9, delta_f=30e3, n_subcarriers=512, n_symbols=64, t_cp=0.0, pilot=Comb(4))
OPERATOR = SensingOperator(n=8, direction="forward", row_mask=np.ones(8, bool))

# each record built from good values, with keyword overrides
RECORDS = {
    "BandConfig": lambda **kw: BandConfig(**{**BAND, **kw}),
    "Comb": lambda interval: BandConfig(**{**BAND, "pilot": Comb(interval)}),
    "CaConfig": lambda **kw: CaConfig(**{"low": CFG.low, "high": CFG.high, "scheme": CFG.scheme,
                                         **kw}),
    "Target": lambda **kw: Target(**{"range_m": 117.0, "velocity_mps": 30.0, **kw}),
    "TargetScene": lambda **kw: TargetScene(targets=(Target(117.0, 30.0),), **kw),
    "CrlbInputs": lambda **kw: CrlbInputs(cfg=CFG, **kw),
    "SolverOptions": SolverOptions,
    "LassoProblem": lambda **kw: LassoProblem(**{"operator": OPERATOR, "observations": np.ones(8),
                                                 "lam": 0.1, **kw}),
    "ExperimentSpec": lambda **kw: ExperimentSpec(
        **{"cfg": CFG, "schemes": (Scheme.CA1,), "target": Target(117.0, 30.0), "snr_grid": (10.0,),
           **kw}),
}

# (record, field, kind): kind is "real", "positive" or "nonnegative" for a finite real,
# an int for an integer >= it, "complex" for a finite nonzero number, or "bool"
FIELDS = [
    ("BandConfig", "fc", "positive"),
    ("BandConfig", "delta_f", "positive"),
    ("BandConfig", "n_subcarriers", 2),
    ("BandConfig", "n_symbols", 2),
    ("BandConfig", "t_cp", "nonnegative"),
    ("Comb", "interval", 1),
    ("CaConfig", "c0", "positive"),
    ("Target", "range_m", "nonnegative"),
    ("Target", "velocity_mps", "real"),
    ("Target", "gain", "complex"),
    ("TargetScene", "noise_sigma", "nonnegative"),
    ("CrlbInputs", "h", "positive"),
    ("CrlbInputs", "sigma", "positive"),
    ("SolverOptions", "lambda_scale", "nonnegative"),
    ("SolverOptions", "max_iters", 1),
    ("SolverOptions", "tol", "nonnegative"),
    ("LassoProblem", "lam", "nonnegative"),
    ("LassoProblem", "max_iters", 1),
    ("LassoProblem", "tol", "nonnegative"),
    ("ExperimentSpec", "trials", 1),
    ("ExperimentSpec", "master_seed", 0),
    ("ExperimentSpec", "random_targets", "bool"),
]

NOT_NUMBERS = st.one_of(
    st.text(max_size=3), st.none(), st.just(()), st.just([1.0, 2.0]),
    st.sampled_from([np.array(8.0), np.array([8.0])]),  # arrays of one good value
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def bad_values(kind):
    """Values of another kind than `kind` (see FIELDS), or of its kind but out of range."""
    if kind == "bool":
        return st.one_of(NOT_NUMBERS, NON_FINITE, st.integers(), st.floats(), st.complex_numbers())
    bad = [NOT_NUMBERS, st.booleans(), NON_FINITE]
    if kind == "complex":
        return st.one_of(*bad, st.just(0), st.just(0j), st.complex_numbers().map(lambda z: z * math.inf))
    bad.append(st.complex_numbers().filter(lambda z: z.imag != 0))
    if isinstance(kind, int):
        bad += [st.integers(max_value=kind - 1), st.floats()]  # 4.0 is not an integer either
    elif kind == "positive":
        bad.append(st.floats(max_value=0.0))
    elif kind == "nonnegative":
        bad.append(st.floats(max_value=-5e-324))  # below 0, not -0.0
    return st.one_of(*bad)


@pytest.mark.parametrize("record, field, kind", FIELDS, ids=[f"{r}.{f}" for r, f, _ in FIELDS])
@given(data=st.data())
def test_each_scalar_field_rejects_a_bad_value_when_built(record, field, kind, data):
    value = data.draw(bad_values(kind), label=field)
    with pytest.raises(CasenseError):
        RECORDS[record](**{field: value})


CASES = {
    'Target("1", 30)': (lambda: Target("1", 30), InvalidTarget),
    'BandConfig(fc="x")': (lambda: RECORDS["BandConfig"](fc="x"), InvalidConfig),
    "BandConfig(t_cp=True)": (lambda: RECORDS["BandConfig"](t_cp=True), InvalidConfig),
    "BandConfig(pilot=None)": (lambda: RECORDS["BandConfig"](pilot=None), InvalidConfig),
    'CaConfig(c0="x")': (lambda: RECORDS["CaConfig"](c0="x"), InvalidConfig),
    'CaConfig(scheme="CA1")': (lambda: RECORDS["CaConfig"](scheme="CA1"), InvalidConfig),
    'SolverOptions(lambda_scale="x")': (lambda: SolverOptions(lambda_scale="x"), InvalidSolverOptions),
    "SolverOptions(tol=True)": (lambda: SolverOptions(tol=True), InvalidSolverOptions),
    'CrlbInputs(h="x")': (lambda: CrlbInputs(CFG, h="x"), InvalidTarget),
    'TargetScene(noise_sigma="x")': (lambda: RECORDS["TargetScene"](noise_sigma="x"), InvalidNoiseLevel),
    'Target(117, 30, gain="x")': (lambda: Target(117, 30, gain="x"), InvalidTarget),
    "ExperimentSpec(target=None)": (lambda: RECORDS["ExperimentSpec"](target=None), InvalidConfig),
    "ExperimentSpec(solver=None)": (lambda: RECORDS["ExperimentSpec"](solver=None), InvalidConfig),
    "Comb(0)": (lambda: RECORDS["Comb"](0), PilotIntervalDoesNotDivide),
    "Comb(4.7)": (lambda: RECORDS["Comb"](4.7), InvalidConfig),
    "BandConfig(fc=array)": (lambda: RECORDS["BandConfig"](fc=np.array([5.9e9])), InvalidConfig),
    "CaConfig(c0=array)": (lambda: RECORDS["CaConfig"](c0=np.array([3e8])), InvalidConfig),
    'sigma_for_snr(10.0, "x")': (lambda: sigma_for_snr(10.0, "x"), InvalidTarget),
    'sigma_for_snr("x")': (lambda: sigma_for_snr("x"), InvalidNoiseLevel),
    'crlb_sweep(cfg, ["x"])': (lambda: crlb_sweep(CFG, ["x"]), InvalidConfig),
    "TargetScene((None,))": (lambda: TargetScene((None,)), InvalidTarget),
    "TargetScene(seed=-1)": (lambda: RECORDS["TargetScene"](seed=-1), InvalidConfig),
    "generate_tx_grid(band, -1)": (lambda: generate_tx_grid(CFG.low, -1), InvalidConfig),
    "SensingOperator(row_mask=0.5)": (
        lambda: SensingOperator(n=8, direction="forward", row_mask=np.full(8, 0.5)), InvalidConfig),
    "LassoProblem(lam=array)": (lambda: RECORDS["LassoProblem"](lam=np.array([0.1])),
                                InvalidSolverOptions),
    # a band's records hold its pilot block: (N/K, M) = (128, 64) for Table 3's comb low
    # band, (N, M/Q) = (512, 16) for its block high band
    "TxGrid(full grid)": (lambda: TxGrid(np.zeros((512, 64), complex), CFG.low), DimensionMismatch),
    "TxGrid(band=None)": (lambda: TxGrid(np.zeros((128, 64), complex), None), InvalidConfig),
    "ChannelInfoMatrix(full grid)": (lambda: ChannelInfoMatrix(np.zeros((512, 64), complex),
                                                               CFG.high), DimensionMismatch),
    "ChannelInfoMatrix(comb block, block band)": (
        lambda: ChannelInfoMatrix(np.zeros((128, 64), complex), CFG.high), DimensionMismatch),
    "ChannelInfoMatrix(list)": (lambda: ChannelInfoMatrix([[0j] * 16] * 512, CFG.high),
                                DimensionMismatch),
    "ChannelInfoMatrix(band=cfg)": (lambda: ChannelInfoMatrix(np.zeros((512, 16), complex), CFG),
                                    InvalidConfig),
    "generate_tx_grid(None, 0)": (lambda: generate_tx_grid(None, 0), InvalidConfig),
    **{f"simulate_channel_info(c0={c0})": (lambda c0=c0: simulate_channel_info(
        generate_tx_grid(CFG.high, 0), RECORDS["TargetScene"](), c0), InvalidConfig)
       for c0 in (math.nan, math.inf, 0.0)},
    **{f"default_lambda(scale={scale})": (lambda scale=scale: default_lambda(
        OPERATOR, np.ones(8), scale), InvalidSolverOptions) for scale in (math.nan, math.inf, -1.0)},
    # a 0-d array has no leading dimension to match the operator's
    "SensingOperator.apply(0-d)": (lambda: OPERATOR.apply(np.array(1j)), DimensionMismatch),
    "SensingOperator.adjoint(0-d)": (lambda: OPERATOR.adjoint(np.array(1j)), DimensionMismatch),
    "fista_iterations(d=0-d)": (lambda: fista_iterations(OPERATOR, np.array(1j), 0.1, 5, 0.0),
                                DimensionMismatch),
    "certify_kkt(p, 0.0)": (lambda: certify_kkt(RECORDS["LassoProblem"](), 0.0), DimensionMismatch),
    "default_lambda(op, 2.0)": (lambda: default_lambda(OPERATOR, 2.0), DimensionMismatch),
    **{f"build_range_selection({rows!r}, {n!r})": (lambda rows=rows, n=n: build_range_selection(
        rows, n), InvalidConfig) for rows, n in ((16.5, 64), (16, 64.0), (True, 64))},
}


@pytest.mark.parametrize("build, error", CASES.values(), ids=CASES)
def test_a_value_of_the_wrong_kind_raises_the_records_error_class(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "seed",
    [None, 3, (1, 2), [1, 2], np.array([1, 2]), np.random.SeedSequence(1), np.random.PCG64(1),
     np.random.default_rng(1)],
    ids=["None", "int", "tuple", "list", "array", "SeedSequence", "BitGenerator", "Generator"],
)
def test_seeds_numpy_takes_are_still_taken(seed):
    generate_tx_grid(CFG.low, seed)
    RECORDS["TargetScene"](seed=seed)


def test_rules_name_the_value_and_print_numbers_as_python_floats():
    cases = [
        (lambda: errors.check_integer("trials", 1.5, 1, InvalidConfig),
         "trials 1.5 must be an integer >= 1"),
        (lambda: errors.check_real("sigma", np.float64(0.0), InvalidNoiseLevel, "positive"),
         "sigma 0.0 must be a finite positive real number"),
        (lambda: fista_iterations(OPERATOR, np.ones((8, 2)), np.array([0.1, -1.0]), 10, 0.0),
         "lam -1.0 must be a finite nonnegative real number"),  # per-column lam, entry by entry
        (lambda: errors.check_real("fc", np.array([1.0]), InvalidConfig, "positive"),
         "fc [1.] must be a finite positive real number"),
        (lambda: errors.check_real("fc", [1.0], InvalidConfig, "positive"),
         "fc [1.0] must be a finite positive real number"),
        (lambda: errors.check_finite("observations", np.array([1.0, math.nan]), InvalidConfig),
         "observations must be a nonempty array of finite values"),
        (lambda: errors.check_finite("spectrum", np.array([]), InvalidConfig),
         "spectrum must be a nonempty array of finite values"),
        (lambda: errors.check_kind("pilot", None, Comb | type(CFG.high.pilot), InvalidConfig),
         "pilot None must be Comb or Block, not NoneType"),
        (lambda: errors.check_kind("scheme", True, Scheme, InvalidConfig),
         "scheme True must be Scheme, not bool"),
    ]
    for call, message in cases:
        with pytest.raises(CasenseError) as info:
            call()
        assert str(info.value) == message
    errors.check_real("velocity", -1, InvalidTarget)  # any sign without one asked for
    errors.check_real("t_cp", -0.0, InvalidConfig, "nonnegative")
    errors.check_kind("random_targets", False, bool, InvalidConfig)
    errors.check_kind("gain", np.complex64(1j), numbers.Complex, InvalidTarget)
