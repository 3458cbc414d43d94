"""Masked-Fourier sparse recovery: FISTA, OMP, and KKT certificates.

The measurement model is d = A x + w where A keeps a subset of rows of a
unitary DFT (direction "forward", used for range) or unitary inverse DFT
(direction "inverse", used for velocity). Solvers minimize

    0.5 * ||d - A x||_2^2 + lam * ||x||_1

with complex (phase-preserving) soft thresholding.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

FORWARD = "forward"
INVERSE = "inverse"


@dataclass(frozen=True)
class SensingOperator:
    """Row-masked unitary (inverse) DFT of size n.

    ``direction="forward"`` synthesizes with the unitary DFT (atom b has
    phases exp(-2j pi n b / N)/sqrt(N), the range ramp); ``"inverse"``
    synthesizes with the unitary inverse DFT (the Doppler ramp).
    """

    n: int
    direction: str
    row_mask: np.ndarray  # bool, (n,)

    def __post_init__(self):
        if self.direction not in (FORWARD, INVERSE):
            raise ValueError(f"direction must be {FORWARD!r} or {INVERSE!r}")
        mask = np.asarray(self.row_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise DimensionMismatch(f"row_mask must have shape ({self.n},)")
        if not mask.any():
            raise ValueError("row_mask must select at least one row")
        object.__setattr__(self, "row_mask", mask)

    @property
    def n_measurements(self) -> int:
        return int(self.row_mask.sum())

    def _transform(self, x: np.ndarray) -> np.ndarray:
        if self.direction == FORWARD:
            return np.fft.fft(x, axis=0) / np.sqrt(self.n)
        return np.fft.ifft(x, axis=0) * np.sqrt(self.n)

    def _adjoint_transform(self, y: np.ndarray) -> np.ndarray:
        if self.direction == FORWARD:
            return np.fft.ifft(y, axis=0) * np.sqrt(self.n)
        return np.fft.fft(y, axis=0) / np.sqrt(self.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x: transform then keep the masked rows. Accepts (n,) or (n, b)."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected leading dimension {self.n}, got {x.shape}")
        return self._transform(x)[self.row_mask]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A* y: scatter measurements back to masked rows, inverse-transform."""
        y = np.asarray(y)
        if y.shape[0] != self.n_measurements:
            raise DimensionMismatch(
                f"expected leading dimension {self.n_measurements}, got {y.shape}"
            )
        full = np.zeros((self.n,) + y.shape[1:], dtype=complex)
        full[self.row_mask] = y
        return self._adjoint_transform(full)

    def atoms(self, indices: np.ndarray) -> np.ndarray:
        """Columns of A (measurement vectors of unit spikes), shape (p, len(indices))."""
        rows = np.flatnonzero(self.row_mask)[:, None]
        sign = -1.0 if self.direction == FORWARD else 1.0
        return np.exp(sign * 2j * np.pi * rows * np.asarray(indices)[None, :] / self.n) / np.sqrt(
            self.n
        )


@dataclass
class LassoProblem:
    operator: SensingOperator
    observations: np.ndarray  # complex, (p,)
    lam: float
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        d = np.asarray(self.observations, dtype=complex)
        if d.shape != (self.operator.n_measurements,):
            raise DimensionMismatch(
                f"observations must have shape ({self.operator.n_measurements},)"
            )
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        self.observations = d


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    iterations: int
    objective: float
    kkt_residual: float


def default_lambda(op: SensingOperator, d: np.ndarray, scale: float = 0.1) -> float:
    """Scale-free default regularization weight: scale * ||A* d||_inf."""
    return scale * float(np.abs(op.adjoint(np.asarray(d, dtype=complex))).max())


def soft_threshold(z: np.ndarray, t) -> np.ndarray:
    """Complex soft threshold: shrink magnitude by t, preserve phase."""
    mag = np.abs(z)
    return z * np.maximum(1.0 - t / np.maximum(mag, 1e-300), 0.0)


def objective_value(op: SensingOperator, d: np.ndarray, lam, x: np.ndarray):
    r = d - op.apply(x)
    obj = 0.5 * np.sum(np.abs(r) ** 2, axis=0) + np.asarray(lam) * np.sum(np.abs(x), axis=0)
    return obj if obj.ndim else float(obj)


def fista_iterations(
    op: SensingOperator,
    d: np.ndarray,
    lam,
    max_iters: int,
    tol: float,
    momentum: bool = True,
):
    """Shared FISTA/ISTA core. d may be (p,) or (p, batch); lam scalar or per-column.

    The step is 1/L with L = ||A||^2, and L is exactly 1: A keeps rows of a
    unitary DFT, so A A* = I. Each iteration takes one proximal gradient
    step from y,

        x_next = soft_threshold(y - A*(A y - d), lam).

    The gradient step is taken in the transform domain: with F the
    operator's transform without its unitary scaling, y - A*(A y - d) =
    F^-1(F(y) with the kept rows replaced by d * sqrt(n)) for the forward
    operator, d / sqrt(n) for the inverse one, so A*d is never formed and
    no rows are zero-filled. With momentum,
    y = x_next + ((t - 1) / t_next) (x_next - x) and
    t_next = (1 + sqrt(1 + 4 t^2)) / 2; without it y = x_next.

    Every column stops on its own: column j ends after its first iteration
    with ||x_next_j - x_j|| < tol * ||x_next_j||, or after max_iters. The
    momentum schedule is data independent and every step acts on one column
    at a time, so column j's result is exactly its single-column solve,
    whatever else is in the batch. Returns (x, iterations), iterations
    being the largest count any column ran.

    The columns are split into contiguous blocks that run in threads with
    no synchronisation between iterations: one block per CPU this process
    may run on, each of at least 16 columns (so a batch under 32 columns
    runs in the calling thread alone). The result does not depend on the
    number of blocks.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    d = np.asarray(d, dtype=complex)
    if d.shape[0] != op.n_measurements:
        raise DimensionMismatch(f"expected leading dimension {op.n_measurements}, got {d.shape}")
    rows = d.reshape(op.n_measurements, -1).T  # (batch, p): one column per row
    batch = rows.shape[0]
    # Every buffer is allocated here, in the calling thread; blocks get row views.
    w = _Workspace(op, rows, lam, batch)
    workers = _worker_count(batch)
    blocks = [(k * batch // workers, (k + 1) * batch // workers) for k in range(workers)]
    args = (max_iters, tol, momentum)
    futures = []
    if workers > 1:
        pool = _executor(workers - 1)
        futures = [pool.submit(_fista_block, w, *block, *args) for block in blocks[1:]]
    try:
        counts = [_fista_block(w, *blocks[0], *args)]
    finally:
        counts += [f.result() for f in futures]
    return (w.out if d.ndim > 1 else w.out[:, 0]), max(counts)


class _Workspace:
    """Buffers of one fista_iterations call, in a (batch, n) layout."""

    def __init__(self, op: SensingOperator, rows: np.ndarray, lam, batch: int):
        if op.direction == FORWARD:
            self.transform, self.inverse = np.fft.fft, np.fft.ifft
            scale = np.sqrt(op.n)
        else:
            self.transform, self.inverse = np.fft.ifft, np.fft.fft
            scale = 1.0 / np.sqrt(op.n)
        self.kept = _as_slice(np.flatnonzero(op.row_mask))
        self.data = np.multiply(rows, scale, order="C")
        # The floor keeps lam = 0 from dividing 0 by 0 in the soft threshold.
        lam = np.broadcast_to(np.asarray(lam, dtype=float), (batch,))
        self.lam = np.maximum(lam, 1e-300)[:, None]
        self.x = np.zeros((batch, op.n), dtype=complex)
        self.y = np.zeros_like(self.x)
        self.x_next = np.empty_like(self.x)
        self.z = np.empty_like(self.x)
        self.mag = np.empty(self.x.shape)
        self.norms = np.empty((2, batch))  # squared ||x_next - x|| and ||x_next|| per row
        self.order = np.arange(batch)  # row -> column of d
        self.out = np.empty((op.n, batch), dtype=complex)


def _as_slice(rows: np.ndarray):
    """Evenly spaced row indices as a slice (much faster to assign through), else as they are."""
    step = int(rows[1] - rows[0]) if len(rows) > 1 else 1
    if np.array_equal(rows, np.arange(rows[0], rows[-1] + 1, step)):
        return slice(int(rows[0]), int(rows[-1]) + 1, step)
    return rows


def _fista_block(
    w: _Workspace, lo: int, hi: int, max_iters: int, tol: float, momentum: bool
) -> int:
    """Runs columns lo..hi-1 of w (by starting row) to their own stops.

    The block's running columns are the rows [0, active) of its views. A
    column that stops is written to w.out, and a running row from past the
    shrunk prefix takes its place. Returns the largest iteration count in
    the block.
    """
    data, lam, order = w.data[lo:hi], w.lam[lo:hi], w.order[lo:hi]
    x, y, x_next = w.x[lo:hi], w.y[lo:hi], w.x_next[lo:hi]
    z, mag = w.z[lo:hi], w.mag[lo:hi]
    dsq, xsq = w.norms[0, lo:hi], w.norms[1, lo:hi]
    active = hi - lo
    t = 1.0
    iterations = 0
    while active and iterations < max_iters:
        iterations += 1
        a = active
        za, ma, xa, xna = z[:a], mag[:a], x[:a], x_next[:a]
        w.transform(y[:a], axis=-1, out=za)
        za[:, w.kept] = data[:a]
        w.inverse(za, axis=-1, out=za)
        # x_next = z * (1 - lam / max(|z|, lam)): soft_threshold(z, lam) bit for bit, one pass less
        np.abs(za, out=ma)
        np.maximum(ma, lam[:a], out=ma)
        np.divide(lam[:a], ma, out=ma)
        np.subtract(1.0, ma, out=ma)
        np.multiply(za, ma, out=xna)
        change = np.subtract(xna, xa, out=xa)  # x is not read again: it holds x_next - x
        dv, xv = change.view(np.float64), xna.view(np.float64)
        np.vecdot(dv, dv, out=dsq[:a])
        np.vecdot(xv, xv, out=xsq[:a])
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            np.multiply(change, (t - 1.0) / t_next, out=y[:a])
            np.add(xna, y[:a], out=y[:a])
            t = t_next
        else:
            np.copyto(y[:a], xna)
        x, x_next = x_next, x
        stopped = np.sqrt(dsq[:a]) / np.maximum(np.sqrt(xsq[:a]), 1e-300) < tol
        if stopped.any():
            done = np.flatnonzero(stopped)
            w.out[:, order[done]] = x[done].T
            active = a - len(done)
            # running rows past the new prefix move into the stopped rows inside it
            holes, movers = done[done < active], np.flatnonzero(~stopped[active:]) + active
            for buf in (x, y, data, lam, order):
                buf[holes] = buf[movers]
    w.out[:, order[:active]] = x[:active].T
    return iterations


def _worker_count(batch: int) -> int:
    """Column blocks for a batch: one per CPU this process may run on, each of >= 16 columns."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, batch // 16))


_pool = None  # a concurrent.futures.ThreadPoolExecutor once a solve has needed one
_pool_workers = 0
_pool_lock = threading.Lock()


def _executor(workers: int):
    """The module's thread pool, created on first use with at least `workers` threads."""
    # Imported on first use: concurrent.futures brings in logging, which
    # importing casense does not otherwise need.
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_workers
    with _pool_lock:
        if _pool_workers < workers:
            # A smaller pool is dropped, not shut down: a concurrent caller may still use it.
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="casense-fista")
            _pool_workers = workers
        return _pool


def _forget_pool_after_fork() -> None:
    """A forked child has none of the parent's threads: start from no pool."""
    global _pool, _pool_workers, _pool_lock
    _pool, _pool_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def solve_fista(p: LassoProblem) -> RecoveryResult:
    """Accelerated proximal gradient for the lasso.

    Step size 1/L = 1 (see fista_iterations); momentum
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2; stops on relative change < tol.
    Non-convergence is not an error: the result carries the iteration count
    and KKT residual for the caller to judge.
    """
    return _solve_proximal(p, momentum=True)


def solve_ista(p: LassoProblem) -> RecoveryResult:
    """Plain proximal gradient (no momentum); baseline for FISTA."""
    return _solve_proximal(p, momentum=False)


def _solve_proximal(p: LassoProblem, momentum: bool) -> RecoveryResult:
    x, iters = fista_iterations(
        p.operator, p.observations, p.lam, p.max_iters, p.tol, momentum=momentum
    )
    return RecoveryResult(
        x_hat=x,
        iterations=iters,
        objective=objective_value(p.operator, p.observations, p.lam, x),
        kkt_residual=certify_kkt(p, x),
    )


def solve_omp(p: LassoProblem, sparsity: int) -> RecoveryResult:
    """Orthogonal matching pursuit: greedy max-correlation atom selection
    with a least-squares refit on the selected support each iteration."""
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1")
    d = p.observations
    residual = d.copy()
    support: list[int] = []
    coef = np.zeros(0, dtype=complex)
    iterations = 0
    for iterations in range(1, sparsity + 1):
        corr = np.abs(p.operator.adjoint(residual))
        corr[support] = -1.0  # do not reselect
        support.append(int(np.argmax(corr)))
        cols = p.operator.atoms(np.array(support))
        coef, *_ = np.linalg.lstsq(cols, d, rcond=None)
        residual = d - cols @ coef
        if np.linalg.norm(residual) < p.tol:
            break
    x = np.zeros(p.operator.n, dtype=complex)
    x[support] = coef
    return RecoveryResult(
        x_hat=x,
        iterations=iterations,
        objective=objective_value(p.operator, d, p.lam, x),
        kkt_residual=certify_kkt(p, x),
    )


def certify_kkt(p: LassoProblem, x_hat: np.ndarray) -> float:
    """Lasso optimality certificate; zero iff x_hat is optimal.

    With g = A*(d - A x_hat): on zero entries dual feasibility needs
    |g_i| <= lam; on nonzero entries g_i must equal lam * x_i/|x_i|.
    Returns the largest violation of either condition.
    """
    g = p.operator.adjoint(p.observations - p.operator.apply(x_hat))
    nz = np.abs(x_hat) > 0
    r_zero = float(np.maximum(np.abs(g[~nz]) - p.lam, 0.0).max()) if (~nz).any() else 0.0
    r_nz = (
        float(np.abs(g[nz] - p.lam * x_hat[nz] / np.abs(x_hat[nz])).max()) if nz.any() else 0.0
    )
    return max(r_zero, r_nz)
