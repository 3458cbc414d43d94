import functools
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casense import recovery
from casense.channel import Target, sigma_for_snr
from casense.config import make_table3_config
from casense.errors import DimensionMismatch
from casense.estimators import SolverOptions
from casense.fusion import build_range_selection, rearrange_low_band
from casense.harness import simulate_trial_matrices
from casense.recovery import (
    FORWARD,
    INVERSE,
    LassoProblem,
    SensingOperator,
    certify_kkt,
    default_lambda,
    fista_iterations,
    lasso_lambda,
    solve_fista,
    solve_ista,
    solve_omp,
    soft_threshold,
)
from conftest import build_velocity_selection, pin_mismatch, split_into


def full_mask(n):
    return np.ones(n, dtype=bool)


def test_build_velocity_selection():
    assert build_velocity_selection(2, 4).tolist() == [True, False, True, False]
    mask = build_velocity_selection(4, 64)
    assert mask.sum() == 16
    assert np.array_equal(np.flatnonzero(mask), np.arange(0, 64, 4))
    assert build_velocity_selection(1, 6).all()
    with pytest.raises(ValueError):
        build_velocity_selection(3, 8)


def test_forward_impulse_gives_constant():
    n = 16
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    e0 = np.zeros(n, complex)
    e0[0] = 1.0
    out = op.apply(e0)
    assert np.allclose(out, np.full(n, 1 / np.sqrt(n)), atol=1e-12)


def test_single_row_mask_bounded():
    n = 32
    mask = np.zeros(n, bool)
    mask[0] = True
    op = SensingOperator(n=n, direction=FORWARD, row_mask=mask)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        out = op.apply(x)
        assert out.shape == (1,)
        assert abs(out[0]) <= 1.0 + 1e-12


@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_adjoint_identity(direction):
    n = 16
    mask = np.zeros(n, bool)
    mask[[0, 3, 4, 9, 15]] = True
    op = SensingOperator(n=n, direction=direction, row_mask=mask)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(op.n_measurements) + 1j * rng.standard_normal(op.n_measurements)
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.adjoint(y), x)
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_full_mask_unitary(direction):
    n = 64
    op = SensingOperator(n=n, direction=direction, row_mask=full_mask(n))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert abs(np.linalg.norm(op.apply(x)) - np.linalg.norm(x)) < 1e-10


CO_ISOMETRY_MASKS = {
    "full": full_mask,
    "range-leading": lambda n: build_range_selection(16, n),
    "velocity-periodic": lambda n: build_velocity_selection(4, n),
}


@pytest.mark.parametrize("mask_kind", list(CO_ISOMETRY_MASKS))
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_masked_unitary_rows_are_a_co_isometry(direction, mask_kind):
    # A A* = I, so ||A||^2 = 1 and the FISTA step 1/L is exactly 1
    n = 64
    rng = np.random.default_rng(12)
    op = SensingOperator(n=n, direction=direction, row_mask=CO_ISOMETRY_MASKS[mask_kind](n))
    y = rng.standard_normal((op.n_measurements, 3)) + 1j * rng.standard_normal((op.n_measurements, 3))
    assert np.max(np.abs(op.apply(op.adjoint(y)) - y)) <= 1e-12


def test_dimension_mismatch():
    n = 8
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    with pytest.raises(DimensionMismatch):
        op.apply(np.zeros(n + 1, complex))
    with pytest.raises(DimensionMismatch):
        LassoProblem(op, np.zeros(n + 1, complex), lam=0.1)


@pytest.mark.parametrize("lam", [[0.1, 0.2], np.full(4, 0.1), np.full((3, 1), 0.1)],
                         ids=["2-of-3", "4-of-3", "column"])
def test_fista_lam_of_another_length_than_the_batch_is_a_dimension_mismatch(lam):
    op = SensingOperator(n=8, direction=FORWARD, row_mask=full_mask(8))
    with pytest.raises(DimensionMismatch, match="does not fit 3 columns"):
        fista_iterations(op, np.ones((8, 3), complex), lam, 5, 1e-6)


def test_fista_zero_lambda_full_mask_recovers_exactly():
    n = 32
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    rng = np.random.default_rng(3)
    x_true = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = op.apply(x_true)
    res = solve_fista(LassoProblem(op, d, lam=0.0, max_iters=500, tol=1e-12))
    assert np.max(np.abs(res.x_hat - x_true)) < 1e-6


def test_fista_one_sparse_leading_mask():
    # 1-sparse target, 50% leading-rows mask: the largest recovered entry is
    # the true support and the soft-threshold bias is bounded by lam / (P/n)
    n = 64
    mask = build_range_selection(n // 2, n)
    op = SensingOperator(n=n, direction=FORWARD, row_mask=mask)
    true_idx = 37
    x_true = np.zeros(n, complex)
    x_true[true_idx] = 1.0
    d = op.apply(x_true)
    # independent check: the true atom maximizes the back-projection
    assert int(np.argmax(np.abs(op.adjoint(d)))) == true_idx
    res = solve_fista(LassoProblem(op, d, lam=0.01, max_iters=1000, tol=1e-10))
    assert int(np.argmax(np.abs(res.x_hat))) == true_idx
    assert abs(abs(res.x_hat[true_idx]) - 1.0) <= 0.05


def test_fista_zero_data():
    n = 16
    op = SensingOperator(n=n, direction=INVERSE, row_mask=full_mask(n))
    res = solve_fista(LassoProblem(op, np.zeros(n, complex), lam=0.1))
    assert np.all(res.x_hat == 0)
    assert res.objective == 0.0


def test_fista_objective_never_exceeds_zero_vector():
    rng = np.random.default_rng(4)
    n = 64
    mask = build_range_selection(16, n)
    op = SensingOperator(n=n, direction=FORWARD, row_mask=mask)
    for _ in range(5):
        d = rng.standard_normal(op.n_measurements) + 1j * rng.standard_normal(op.n_measurements)
        lam = default_lambda(op, d)
        res = solve_fista(LassoProblem(op, d, lam=lam))
        assert res.objective <= 0.5 * np.linalg.norm(d) ** 2 + 1e-12


def test_fista_beats_ista_at_fixed_iteration_count():
    # momentum should not lose to plain proximal gradient on this suite
    rng = np.random.default_rng(5)
    n = 64
    mask = build_range_selection(n // 4, n)
    op = SensingOperator(n=n, direction=FORWARD, row_mask=mask)
    iters = 50
    for trial in range(20):
        k = rng.integers(1, 4)
        x = np.zeros(n, complex)
        x[rng.choice(n, k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        noise = 0.02 * (rng.standard_normal(op.n_measurements) + 1j * rng.standard_normal(op.n_measurements))
        d = op.apply(x) + noise
        lam = default_lambda(op, d)
        fista = solve_fista(LassoProblem(op, d, lam=lam, max_iters=iters, tol=0.0))
        ista = solve_ista(LassoProblem(op, d, lam=lam, max_iters=iters, tol=0.0))
        assert fista.objective <= ista.objective + 1e-9


def test_kkt_residual_small_after_tight_solve():
    n = 32
    mask = build_velocity_selection(2, n)
    op = SensingOperator(n=n, direction=INVERSE, row_mask=mask)
    x_true = np.zeros(n, complex)
    x_true[5] = 2.0
    d = op.apply(x_true)
    lam = default_lambda(op, d)
    res = solve_fista(LassoProblem(op, d, lam=lam, max_iters=5000, tol=1e-14))
    assert res.kkt_residual <= 1e-4 * lam


def test_kkt_zero_solution_optimal_for_large_lambda():
    n = 16
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    rng = np.random.default_rng(6)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = float(np.abs(op.adjoint(d)).max())
    p = LassoProblem(op, d, lam=lam)
    assert certify_kkt(p, np.zeros(n, complex)) == 0.0


def test_kkt_detects_perturbation():
    n = 32
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(16, n))
    x_true = np.zeros(n, complex)
    x_true[3] = 1.0
    d = op.apply(x_true)
    lam = default_lambda(op, d)
    res = solve_fista(LassoProblem(op, d, lam=lam, max_iters=5000, tol=1e-14))
    base = res.kkt_residual
    perturbed = res.x_hat.copy()
    perturbed[3] += 0.1
    assert certify_kkt(LassoProblem(op, d, lam=lam), perturbed) > max(10 * base, 1e-3)


def test_scale_equivariance():
    n = 64
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(32, n))
    rng = np.random.default_rng(7)
    x = np.zeros(n, complex)
    x[[4, 40]] = [1.0, 0.5j]
    d = op.apply(x) + 0.01 * rng.standard_normal(op.n_measurements)
    lam = default_lambda(op, d)
    res1 = solve_fista(LassoProblem(op, d, lam=lam, max_iters=300, tol=1e-10))
    alpha = 17.3
    res2 = solve_fista(LassoProblem(op, alpha * d, lam=alpha * lam, max_iters=300, tol=1e-10))
    assert np.max(np.abs(res2.x_hat - alpha * res1.x_hat)) < 1e-8 * alpha


def test_omp_one_sparse_exact():
    n = 64
    for mask in (full_mask(n), build_range_selection(8, n), build_velocity_selection(4, n)):
        # support index 5 sits inside the periodic mask's unambiguous prefix
        op = SensingOperator(n=n, direction=FORWARD, row_mask=mask)
        x_true = np.zeros(n, complex)
        x_true[5] = 1.5 * np.exp(0.3j)
        d = op.apply(x_true)
        res = solve_omp(LassoProblem(op, d, lam=0.0), sparsity=1)
        assert int(np.argmax(np.abs(res.x_hat))) == 5
        assert abs(res.x_hat[5] - x_true[5]) < 1e-8


def test_omp_two_sparse_full_mask():
    n = 64
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    x_true = np.zeros(n, complex)
    x_true[10] = 1.0
    x_true[40] = -0.8j
    d = op.apply(x_true)
    res = solve_omp(LassoProblem(op, d, lam=0.0), sparsity=2)
    assert np.max(np.abs(res.x_hat - x_true)) < 1e-8


def test_omp_rejects_zero_sparsity():
    n = 8
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    with pytest.raises(ValueError):
        solve_omp(LassoProblem(op, np.zeros(n, complex), lam=0.0), sparsity=0)


def test_default_lambda_scale_free():
    n = 32
    op = SensingOperator(n=n, direction=FORWARD, row_mask=full_mask(n))
    rng = np.random.default_rng(8)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert default_lambda(op, 3.0 * d) == pytest.approx(3.0 * default_lambda(op, d), rel=1e-12)


def test_default_lambda_is_a_float_per_column():
    n = 32
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(8, n))
    rng = np.random.default_rng(9)
    d = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    assert type(default_lambda(op, d[:, 0])) is float
    lam = default_lambda(op, d)
    assert lam.shape == (5,)
    assert lam.tolist() == [default_lambda(op, d[:, j]) for j in range(5)]


@pytest.mark.parametrize(
    "solve", [solve_fista, solve_ista, functools.partial(solve_omp, sparsity=3)],
    ids=["fista", "ista", "omp"],
)
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_result_objective_and_kkt_residual_match_direct_computation(direction, solve):
    n = 16
    op = SensingOperator(n=n, direction=direction, row_mask=build_velocity_selection(2, n))
    rng = np.random.default_rng(9)
    d = rng.standard_normal(op.n_measurements) + 1j * rng.standard_normal(op.n_measurements)
    p = LassoProblem(op, d, lam=0.3, max_iters=50)
    res = solve(p)
    direct = 0.5 * np.linalg.norm(d - op.apply(res.x_hat)) ** 2 + 0.3 * np.abs(res.x_hat).sum()
    assert res.objective == pytest.approx(direct, rel=1e-12)
    assert res.kkt_residual == certify_kkt(p, res.x_hat)


def gather_scatter_fista(op, d, lam, max_iters, tol, momentum=True):
    """Reference iteration with step 1: gradient A*(A y - d) through
    apply/adjoint, i.e. a row gather, a zero fill and a scatter per step, and
    fresh arrays."""
    x = np.zeros((op.n,) + d.shape[1:], dtype=complex)
    y = x.copy()
    t = 1.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = op.adjoint(op.apply(y) - d)
        x_next = soft_threshold(y - grad, lam)
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x_next + ((t - 1.0) / t_next) * (x_next - x)
            t = t_next
        else:
            y = x_next
        rel = np.linalg.norm(x_next - x) / max(np.linalg.norm(x_next), 1e-300)
        x = x_next
        if rel < tol:
            break
    return x, iterations


@pytest.mark.parametrize("momentum", [True, False])
@pytest.mark.parametrize("batch", [None, 5])
@pytest.mark.parametrize("mask_kind", ["leading", "periodic"])
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_fista_kernel_matches_gather_scatter_reference(direction, mask_kind, batch, momentum):
    n = 64
    mask = build_range_selection(16, n) if mask_kind == "leading" else build_velocity_selection(4, n)
    op = SensingOperator(n=n, direction=direction, row_mask=mask)
    rng = np.random.default_rng(11)
    cols = 1 if batch is None else batch
    x_true = np.zeros((n, cols), complex)
    for c in range(cols):
        x_true[rng.choice(n // 4, 2, replace=False), c] = rng.standard_normal(2) + 1j
    noise = rng.standard_normal((op.n_measurements, cols)) + 1j * rng.standard_normal(
        (op.n_measurements, cols)
    )
    d = op.apply(x_true) + 0.05 * noise
    lam = 0.1 * np.abs(op.adjoint(d)).max(axis=0)
    if batch is None:
        d, lam = d[:, 0], float(lam[0])
    # tol 1e-6 stops several of these instances early; tol 0 runs to max_iters
    for max_iters, tol in ((400, 1e-6), (60, 0.0)):
        x, it = fista_iterations(op, d, lam, max_iters, tol, momentum)
        # every column stops on its own, so each is compared with its own single-column run
        if batch is None:
            x_ref, it_ref = gather_scatter_fista(op, d, lam, max_iters, tol, momentum)
        else:
            refs = [
                gather_scatter_fista(op, d[:, c], float(lam[c]), max_iters, tol, momentum)
                for c in range(cols)
            ]
            x_ref = np.stack([r[0] for r in refs], axis=1)
            it_ref = max(r[1] for r in refs)
        assert x.shape == x_ref.shape
        assert it == it_ref
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


def test_fista_rejects_fewer_than_one_iteration():
    op = SensingOperator(n=16, direction=FORWARD, row_mask=build_range_selection(4, 16))
    with pytest.raises(ValueError):
        fista_iterations(op, np.ones(4, complex), 0.1, 0, 1e-6)


INVARIANCE_COLUMNS = 40
INVARIANCE_ITERS = 300  # with tol 1e-6 some columns stop early and some run to the cap


@functools.lru_cache(maxsize=None)
def invariance_problem(direction, mask_kind, momentum):
    """A 40-column problem and each column's single-column solve."""
    n = 64
    mask = build_range_selection(16, n) if mask_kind == "leading" else build_velocity_selection(4, n)
    op = SensingOperator(n=n, direction=direction, row_mask=mask)
    rng = np.random.default_rng(23)
    x_true = np.zeros((n, INVARIANCE_COLUMNS), complex)
    for c in range(INVARIANCE_COLUMNS):
        x_true[rng.choice(n // 4, 2, replace=False), c] = rng.standard_normal(2) + 1j
    shape = (op.n_measurements, INVARIANCE_COLUMNS)
    d = op.apply(x_true) + 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    d[:, ::8] = 0  # all-zero columns stop after one iteration
    lam = 0.1 * np.abs(op.adjoint(d)).max(axis=0)
    singles = [
        fista_iterations(op, d[:, c], lam[c], INVARIANCE_ITERS, 1e-6, momentum)
        for c in range(INVARIANCE_COLUMNS)
    ]
    return op, d, lam, singles


@pytest.mark.parametrize("momentum", [True, False])
@pytest.mark.parametrize("mask_kind", ["leading", "periodic"])
@pytest.mark.parametrize("direction", [FORWARD, INVERSE])
def test_invariance_problem_mixes_stopping_iterations(direction, mask_kind, momentum):
    # so that batched solves move stopped columns out while others run on
    *_, singles = invariance_problem(direction, mask_kind, momentum)
    counts = [it for _, it in singles]
    assert counts[::8] == [1] * 5
    assert len(set(counts)) >= 2
    if mask_kind == "leading":  # periodic masks converge in two iterations
        assert max(counts) == INVARIANCE_ITERS


@given(
    direction=st.sampled_from([FORWARD, INVERSE]),
    mask_kind=st.sampled_from(["leading", "periodic"]),
    momentum=st.booleans(),
    columns=st.lists(
        st.integers(0, INVARIANCE_COLUMNS - 1), min_size=1, max_size=INVARIANCE_COLUMNS, unique=True
    ),
    workers=st.sampled_from([1, 2, 3]),
)
def test_batched_column_equals_its_single_column_solve(direction, mask_kind, momentum, columns, workers):
    # any subset of the columns, in any order, split over any number of blocks
    op, d, lam, singles = invariance_problem(direction, mask_kind, momentum)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_split", split_into(workers))
        x, iterations = fista_iterations(op, d[:, columns], lam[columns], INVARIANCE_ITERS, 1e-6, momentum)
    for k, c in enumerate(columns):
        assert np.array_equal(x[:, k], singles[c][0])
    assert iterations == max(singles[c][1] for c in columns)


# sha256 of x.tobytes() and the iteration count of the table-3 range CS of
# one CLI estimate (target 117 m / 30 m/s, trial seed (1, 0, 0, 0), default
# SolverOptions, two column blocks). The CSV pins see only sum |x|; these also
# see phases and signed zeros. They hold under numpy 2.4.6 on x86-64 with SIMD
# baseline X86_V2 and dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR; a failing
# pin names the running build.
PINNED_RANGE_SOLVES = {
    10.0: ("863d15e8726735e564875f75d05f1d107a7639fadef69a06ebe432c7483a43ab", 200),
    -20.0: ("9086e392209fb5a19f0dc24a9a068e60e12fcd650b6a226fc5934df039990e5d", 200),
}


@pytest.mark.parametrize("snr_db, pin", PINNED_RANGE_SOLVES.items(), ids=["10dB", "-20dB"])
def test_table3_range_solve_bytes_pinned(monkeypatch, snr_db, pin):
    cfg = make_table3_config()
    target = Target(117.0, 30.0, 1.0)
    d_low, _ = simulate_trial_matrices(cfg, target, sigma_for_snr(snr_db, target.gain), (1, 0, 0, 0))
    k, n = d_low.band.pilot.interval, d_low.band.n_subcarriers
    op = SensingOperator(n=n, direction=FORWARD, row_mask=build_range_selection(n // k, n))
    columns = rearrange_low_band(d_low)
    opts = SolverOptions()
    lam = lasso_lambda(op.adjoint(columns), opts.lambda_scale)
    monkeypatch.setattr(recovery, "_split", split_into(2))
    x, iterations = fista_iterations(op, columns, lam, opts.max_iters, opts.tol)
    assert (hashlib.sha256(x.tobytes()).hexdigest(), iterations) == pin, pin_mismatch()


def test_blocks_never_call_through_the_fista_attribute(monkeypatch):
    # wrappers installed on the module attribute (as tracers do) see one call per solve,
    # made from the calling thread, however many blocks the solve runs
    op, d, lam, singles = invariance_problem(FORWARD, "leading", True)
    callers = []
    original = recovery.fista_iterations

    def counting(*args, **kwargs):
        callers.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(recovery, "fista_iterations", counting)
    monkeypatch.setattr(recovery, "_split", split_into(3))
    x, _ = recovery.fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    assert callers == [threading.get_ident()]
    assert np.array_equal(x, np.stack([s[0] for s in singles], axis=1))


def test_concurrent_solves_share_the_pool_without_mixing_results(monkeypatch):
    # four callers race to start and use the helper processes, each splitting its
    # batch into three blocks, with thread switches forced as often as possible
    op, d, lam, singles = invariance_problem(FORWARD, "leading", True)
    expected = np.stack([s[0] for s in singles], axis=1)
    monkeypatch.setattr(recovery, "_split", split_into(3))
    recovery._stop_helpers()
    results = [None] * 4

    def solve(k):
        results[k] = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)[0]

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(recovery._helpers) == 2  # one per block past the first, however many callers
    for x in results:
        assert np.array_equal(x, expected)


def helper_pids():
    return [helper.pid for helper in recovery._helpers]


def _solve_and_send(queue, op, d, lam):
    x, _ = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    queue.put((x, helper_pids()))


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@needs_fork
def test_forked_child_solves_after_the_parent_used_the_pool(monkeypatch):
    op, d, lam, _ = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(2))
    recovery._stop_helpers()
    expected, _ = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    parent_helpers = helper_pids()
    assert len(parent_helpers) == 1  # the parent's solve sent a block to a helper
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_and_send, args=(queue, op, d, lam))
    child.start()
    try:
        got, child_helpers = queue.get(timeout=120)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0
    assert np.array_equal(got, expected)
    # the child started a helper of its own and left the parent's in service
    assert len(child_helpers) == 1 and child_helpers != parent_helpers
    x, _ = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    assert helper_pids() == parent_helpers
    assert np.array_equal(x, expected)


@needs_fork
def test_solve_after_a_helper_was_killed_is_unchanged(monkeypatch):
    op, d, lam, _ = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(3))
    recovery._stop_helpers()
    expected, iterations = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    killed = helper_pids()
    assert len(killed) == 2
    for pid in killed:
        os.kill(pid, signal.SIGKILL)
    # the first solve after the kill runs the blocks here, a later one starts new helpers
    for _ in range(2):
        x, it = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
        assert np.array_equal(x, expected) and it == iterations
    assert len(helper_pids()) == 2 and not set(helper_pids()) & set(killed)


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="counts open fds in /proc")
def test_stopping_the_pool_leaves_no_pipe_open(monkeypatch):
    # through starting helpers, replacing a killed one, and stopping them all
    op, d, lam, _ = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(3))
    recovery._stop_helpers()
    before = len(os.listdir("/proc/self/fd"))
    expected, _ = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    os.kill(helper_pids()[0], signal.SIGKILL)
    for _ in range(2):  # the first solve drops the dead helper, the second starts another
        assert np.array_equal(fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)[0], expected)
    assert len(helper_pids()) == 2
    recovery._stop_helpers()
    assert len(os.listdir("/proc/self/fd")) == before


SOLVE_BLOCK = recovery._solve_block
CALLER_PID = None  # the process dies_in_a_helper lets solve; any other one exits


def dies_in_a_helper(*args):
    # module level: a helper receives its call as a pickled reference by module and name
    if os.getpid() != CALLER_PID:
        os._exit(1)
    return SOLVE_BLOCK(*args)


@needs_fork
def test_block_of_a_helper_that_dies_mid_solve_runs_here(monkeypatch):
    op, d, lam, singles = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(3))
    monkeypatch.setattr(recovery, "_solve_block", dies_in_a_helper)
    monkeypatch.setattr(sys.modules[__name__], "CALLER_PID", os.getpid())
    recovery._stop_helpers()
    try:
        x, iterations = fista_iterations(op, d, lam, INVARIANCE_ITERS, 1e-6)
    finally:
        recovery._stop_helpers()  # no helper forked with the patched kernel outlives the test
    assert np.array_equal(x, np.stack([s[0] for s in singles], axis=1))
    assert iterations == max(it for _, it in singles)


def sleeps_in_a_helper(seconds):
    time.sleep(seconds)
    return os.getpid()


@needs_fork
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_fork_while_a_map_waits_for_a_reply_does_not_hang_the_child():
    # the child's after-fork hook closes its copies of the helpers' reply ends,
    # which must not wait on anything the parent's blocked read holds
    recovery._stop_helpers()
    waiting, forked = threading.get_ident(), []

    def fork_during_receive():
        deadline = time.monotonic() + 60
        while sys._current_frames()[waiting].f_code.co_name != "receive":
            assert time.monotonic() < deadline
            time.sleep(0.001)
        pid = os.fork()
        if pid == 0:
            os._exit(0)  # after the hooks ran
        forked.append(pid)

    thread = threading.Thread(target=fork_during_receive)
    thread.start()
    try:
        _, helper = recovery._map([(time.sleep, (0,)), (sleeps_in_a_helper, (1.0,))])
    finally:
        thread.join(timeout=60)
    [pid] = forked
    assert helper != os.getpid()
    deadline = time.monotonic() + 10
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in its after-fork hook")
        time.sleep(0.01)


@needs_fork
def test_daemonic_child_solves_every_block_itself(monkeypatch):
    # multiprocessing terminates a daemonic process without letting it clean up
    op, d, lam, singles = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(2))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_and_send, args=(queue, op, d, lam), daemon=True)
    child.start()
    try:
        got, child_helpers = queue.get(timeout=120)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0
    assert child_helpers == []
    assert np.array_equal(got, np.stack([s[0] for s in singles], axis=1))


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_helper_of_a_multiprocessing_child_is_reaped_when_the_child_ends(monkeypatch):
    # multiprocessing ends its children with os._exit, which skips atexit
    op, d, lam, _ = invariance_problem(FORWARD, "leading", True)
    monkeypatch.setattr(recovery, "_split", split_into(2))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_solve_and_send, args=(queue, op, d, lam))
    child.start()
    try:
        _, child_helpers = queue.get(timeout=120)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0
    assert len(child_helpers) == 1
    # waited for by the child before it ended: not left behind as a zombie
    assert not Path(f"/proc/{child_helpers[0]}").exists()


def exited(pid):
    """Whether process pid has exited (gone, or a zombie nobody waited for yet)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


# run by a fresh interpreter: one CA1 estimate with two column blocks, then
# a line with the helper pids and, with "wait", block until stdin closes
ESTIMATE_SCRIPT = """
import sys
from casense import cli, recovery
recovery._split = lambda count, least: [(0, count // 2), (count // 2, count)]
assert cli.main(["estimate", "--out", sys.argv[1], "--snr", "10"]) == 0
print("helpers", *[helper.pid for helper in recovery._helpers], flush=True)
if sys.argv[2] == "wait":
    sys.stdin.read()
"""


def estimate_helper_pids(proc):
    """The pids a process running ESTIMATE_SCRIPT printed."""
    for line in proc.stdout:
        if line.startswith("helpers"):
            return [int(p) for p in line.split()[1:]]
    return []


def run_estimate(tmp_path, mode):
    src = str(Path(recovery.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen(
        [sys.executable, "-c", ESTIMATE_SCRIPT, str(tmp_path / "est"), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )


@needs_fork
def test_helper_is_gone_when_its_process_has_exited(tmp_path):
    with run_estimate(tmp_path, "exit") as proc:
        pids = estimate_helper_pids(proc)
        assert proc.wait(timeout=120) == 0
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):  # waited for at exit, not left behind
        os.kill(pids[0], 0)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_helper_exits_when_its_process_is_killed(tmp_path):
    with run_estimate(tmp_path, "wait") as proc:
        try:
            pids = estimate_helper_pids(proc)
        finally:
            proc.kill()
            proc.wait(timeout=60)
    assert len(pids) == 1
    deadline = time.monotonic() + 10
    while not exited(pids[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert exited(pids[0])


def pids_of_a_map():
    """The pids that a map of two os.getpid calls made here reads, and this process's helper count."""
    return recovery._map([(os.getpid, ()), (os.getpid, ())]), len(recovery._helpers)


@needs_fork
def test_a_call_in_a_helper_starts_no_helpers():
    recovery._stop_helpers()
    seen = recovery._map([(pids_of_a_map, ()), (pids_of_a_map, ())])
    helper = recovery._helpers[0].pid
    assert seen == [([os.getpid()] * 2, 1), ([helper] * 2, 0)]
    assert len(recovery._helpers) == 1
