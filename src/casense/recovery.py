"""Masked-Fourier sparse recovery: FISTA, OMP, and KKT certificates.

The measurement model is d = A x + w where A keeps a subset of rows of a
unitary DFT (direction "forward", used for range) or unitary inverse DFT
(direction "inverse", used for velocity). Solvers minimize

    0.5 * ||d - A x||_2^2 + lam * ||x||_1

with complex (phase-preserving) soft thresholding.
"""

from __future__ import annotations

import atexit
import math
import numbers
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, InvalidSolverOptions

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
            raise InvalidConfig(f"direction must be {FORWARD!r} or {INVERSE!r}")
        mask = np.asarray(self.row_mask, dtype=bool)
        if mask.shape != (self.n,):
            raise DimensionMismatch(f"row_mask must have shape ({self.n},)")
        if not mask.any():
            raise InvalidConfig("row_mask must select at least one row")
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


def check_solver_knobs(max_iters, **nonnegative) -> None:
    """Raise InvalidSolverOptions unless every value of each keyword (a number or an
    array) is finite and >= 0 and max_iters is an int >= 1; name the first bad value."""
    for name, value in nonnegative.items():
        bad = [v for v in np.ravel(value) if not (math.isfinite(v) and v >= 0)]
        if bad:
            raise InvalidSolverOptions(f"{name} {bad[0]} must be finite and nonnegative")
    if isinstance(max_iters, bool) or not (isinstance(max_iters, numbers.Integral) and max_iters >= 1):
        raise InvalidSolverOptions(f"max_iters {max_iters!r} must be an integer >= 1")


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
        check_solver_knobs(self.max_iters, lam=self.lam, tol=self.tol)
        self.observations = d


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    iterations: int
    objective: float
    kkt_residual: float


def lasso_lambda(g: np.ndarray, scale: float):
    """The regularization rule of every CS solve: scale * max|g| per column of g = A* d."""
    return scale * np.abs(g).max(axis=0)


def default_lambda(op: SensingOperator, d: np.ndarray, scale: float = 0.1):
    """Scale-free default regularization weight: scale * ||A* d||_inf, per column of d.

    A float for a 1-D d; for a 2-D d, an array holding one value per column.
    """
    lam = lasso_lambda(op.adjoint(np.asarray(d, dtype=complex)), scale)
    return float(lam) if lam.ndim == 0 else lam


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
    """Shared FISTA/ISTA core. d may be (p,) or (p, batch); lam scalar or per-column, >= 0.

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

    The columns are split into contiguous blocks: one per CPU this process
    may run on, each of at least 16 columns (so a batch under 32 columns is
    one block). Each block is one _solve_block call, which allocates buffers
    for that block only, made through _map: one helper pool, whose helpers
    also run run_sweep's trials when a point has T >= W trials for W CPUs.
    The caller makes call 0 and allocates only for the blocks it solves; x
    does not depend on the number of blocks or on where they ran.
    """
    check_solver_knobs(max_iters, lam=lam, tol=tol)
    d = np.asarray(d, dtype=complex)
    if d.shape[0] != op.n_measurements:
        raise DimensionMismatch(f"expected leading dimension {op.n_measurements}, got {d.shape}")
    rows = d.reshape(op.n_measurements, -1).T  # (batch, p): one column per row
    batch = rows.shape[0]
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (batch,))
    workers = _worker_count(batch)
    blocks = [(k * batch // workers, (k + 1) * batch // workers) for k in range(workers)]
    args = (max_iters, tol, momentum)
    replies = _map([(_solve_block, (op, rows[lo:hi], lam[lo:hi], *args)) for lo, hi in blocks])
    x = np.concatenate([block for block, _ in replies], axis=1)
    return (x if d.ndim > 1 else x[:, 0]), max(count for _, count in replies)


def _map(calls):
    """[fn(*args) for fn, args in calls], in call order; fn is pickled by module and name.

    Call 0 runs here, each other call in a helper process, forked by the first
    map that needs it and kept. A call runs here instead if its helper is busy
    (another caller's or an outer map's), cannot start (no fork, a daemonic
    process, or inside a helper), died, or raised (a helper exits on errors).
    """
    sent = {k: h for k, h in enumerate(_helpers_for(len(calls) - 1), 1) if h.send(*calls[k])}
    replies = {}
    try:
        for k, (fn, args) in enumerate(calls):
            if k not in sent:
                replies[k] = (fn(*args),)
    finally:
        replies.update((k, helper.receive()) for k, helper in sent.items())
    return [(replies[k] or (fn(*args),))[0] for k, (fn, args) in enumerate(calls)]


def _as_slice(rows: np.ndarray):
    """Evenly spaced row indices as a slice (much faster to assign through), else as they are."""
    step = int(rows[1] - rows[0]) if len(rows) > 1 else 1
    if np.array_equal(rows, np.arange(rows[0], rows[-1] + 1, step)):
        return slice(int(rows[0]), int(rows[-1]) + 1, step)
    return rows


def _solve_block(op: SensingOperator, rows, lam, max_iters: int, tol: float, momentum: bool):
    """Runs a block of columns, given as rows (one column of d each), to their own stops.

    Allocates buffers for exactly these rows, in a (rows, n) layout. The
    running columns are the rows [0, active) of the buffers. A column that
    stops is written to the result, and a running row from past the shrunk
    prefix takes its place. Returns (x, count): x of shape (n, len(rows))
    and the largest iteration count in the block.

    lam is held per entry, a row of n equal values per column, not as a
    (rows, 1) column: the threshold's maximum and divide then read two
    operands of one shape, which numpy runs in its contiguous loops instead
    of broadcasting the column along every row (the pair took 18 µs
    instead of 31 µs per iteration of a 32 x 512 block, numpy 2.4.6 on a
    2-vCPU x86-64 VM). The values, and so every byte of x, are the same.
    The row views of the running prefix are taken again only when the
    active count changes; x and x_next swap their views with the buffers.
    """
    if op.direction == FORWARD:
        transform, inverse, scale = np.fft.fft, np.fft.ifft, np.sqrt(op.n)
    else:
        transform, inverse, scale = np.fft.ifft, np.fft.fft, 1.0 / np.sqrt(op.n)
    kept = _as_slice(np.flatnonzero(op.row_mask))
    data = np.multiply(rows, scale, order="C")
    active = len(rows)
    # The floor keeps lam = 0 from dividing 0 by 0 in the soft threshold.
    lam = np.repeat(np.maximum(lam, 1e-300), op.n).reshape(active, op.n)
    x = np.zeros((active, op.n), dtype=complex)
    y = np.zeros_like(x)
    x_next = np.empty_like(x)
    z = np.empty_like(x)
    mag = np.empty(x.shape)
    dsq, xsq = np.empty((2, active))  # squared ||x_next - x|| and ||x_next|| per row
    order = np.arange(active)  # row -> column of the block
    out = np.empty((op.n, active), dtype=complex)
    t = 1.0
    iterations = 0
    a = 0  # the active count the row views were taken for
    while active and iterations < max_iters:
        iterations += 1
        if a != active:
            a = active
            za, ma, ya, la, da, dsqa, xsqa = (b[:a] for b in (z, mag, y, lam, data, dsq, xsq))
            xa, xna = x[:a], x_next[:a]
        transform(ya, axis=-1, out=za)
        za[:, kept] = da
        inverse(za, axis=-1, out=za)
        # x_next = z * (1 - lam / max(|z|, lam)): soft_threshold(z, lam) bit for bit, one pass less
        np.abs(za, out=ma)
        np.maximum(ma, la, out=ma)
        np.divide(la, ma, out=ma)
        np.subtract(1.0, ma, out=ma)
        np.multiply(za, ma, out=xna)
        change = np.subtract(xna, xa, out=xa)  # x is not read again: it holds x_next - x
        dv, xv = change.view(np.float64), xna.view(np.float64)
        np.vecdot(dv, dv, out=dsqa)
        np.vecdot(xv, xv, out=xsqa)
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            np.multiply(change, (t - 1.0) / t_next, out=ya)
            np.add(xna, ya, out=ya)
            t = t_next
        else:
            np.copyto(ya, xna)
        x, x_next, xa, xna = x_next, x, xna, xa
        stopped = np.sqrt(dsqa) / np.maximum(np.sqrt(xsqa), 1e-300) < tol
        if stopped.any():
            done = np.flatnonzero(stopped)
            out[:, order[done]] = x[done].T
            active = a - len(done)
            # running rows past the new prefix move into the stopped rows inside it
            holes, movers = done[done < active], np.flatnonzero(~stopped[active:]) + active
            for buf in (x, y, data, lam, order):
                buf[holes] = buf[movers]
    out[:, order[:active]] = x[:active].T
    return out, iterations


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _worker_count(batch: int) -> int:
    """Column blocks for a batch: one per CPU this process may run on, each of >= 16 columns."""
    return max(1, min(_cpu_count(), batch // 16))


class _Helper:
    """A forked process that runs the calls sent to it over a pipe.

    It serves one caller at a time, the one holding `busy`, and exits when
    its request pipe reaches end of file: when the parent closes it or dies.
    """

    def __init__(self):
        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        self.busy = threading.Lock()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self.requests, self.replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:  # the helper, which never returns from here
            status = 1
            try:
                os.close(self.requests)
                os.close(self.replies)
                status = _serve(requests, replies)
            finally:
                os._exit(status)
        os.close(requests)
        os.close(replies)

    def send(self, *request) -> bool:
        """Hands the helper a call if it is free; False if it is busy or has died."""
        if not self.busy.acquire(blocking=False):
            return False
        try:
            _write_message(self.requests, request)
        except OSError:  # the helper has died
            _discard(self)
            return False
        except BaseException:
            _discard(self)
            raise
        return True

    def receive(self):
        """(result,) of the call sent, or None if the helper died; frees the helper."""
        try:
            reply = _read_message(self.replies)
        except (EOFError, OSError):
            _discard(self)
            return None
        except BaseException:
            _discard(self)
            raise
        self.busy.release()
        return reply

    def stop(self) -> None:
        """Closes the pipes, kills the helper if it still runs and waits for it."""
        os.close(self.requests)
        os.close(self.replies)
        try:
            # a child not yet waited for keeps its pid, so the kill cannot reach another process
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                import signal  # not otherwise loaded by importing casense

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # other code of this process waited for it
            pass


def _serve(requests: int, replies: int) -> int:
    """A helper's loop: makes each call (fn, args) read from `requests`, replies (result,)."""
    global _in_helper
    _in_helper = True
    warnings.simplefilter("ignore")  # call 0 runs in the caller, which sees its warnings
    while True:
        try:
            fn, args = _read_message(requests)
        except EOFError:
            return 0
        _write_message(replies, (fn(*args),))


def _write_message(fd: int, message) -> None:
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _read_message(fd: int):
    """The next message on fd; EOFError if the pipe ends first."""
    size = int.from_bytes(_read_exactly(fd, 8), "little")
    return pickle.loads(_read_exactly(fd, size))


def _read_exactly(fd: int, size: int) -> bytearray:
    buf = bytearray(size)
    view = memoryview(buf)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return buf


_helpers: list[_Helper] = []  # started by the first map that needs them
_helpers_lock = threading.Lock()
_reaper = None  # in a process that multiprocessing started: the finalizer that joins its helpers
_in_helper = False  # set in a helper, which starts no helpers


def _helpers_for(count: int) -> list[_Helper]:
    """The first `count` helpers, started as needed; fewer where no more can start."""
    global _reaper
    process = sys.modules.get("multiprocessing.process")
    daemonic = process and process.current_process().daemon
    if count < 1 or _in_helper or daemonic or not hasattr(os, "fork"):
        return []
    with _helpers_lock:
        if _reaper is None and process and process.parent_process():
            # multiprocessing ends such a process with os._exit, which skips atexit
            util = sys.modules["multiprocessing.util"]  # loaded when multiprocessing started it
            _reaper = util.Finalize(None, _stop_helpers, exitpriority=0)
        try:
            while len(_helpers) < count:
                _helpers.append(_Helper())
        except OSError:  # out of processes or file descriptors: those calls run here
            pass
        return _helpers[:count]


def _discard(helper: _Helper) -> None:
    """Drops a helper that died or lost its place in the protocol; the next map starts another."""
    with _helpers_lock:
        if helper in _helpers:
            _helpers.remove(helper)
    helper.stop()


@atexit.register
def _stop_helpers() -> None:
    """Joins every helper at interpreter exit, or when a process multiprocessing started ends."""
    with _helpers_lock:
        helpers = _helpers[:]
        _helpers.clear()
    for helper in helpers:
        helper.stop()


def _forget_helpers_after_fork() -> None:
    """A forked child does not own the parent's helpers: it closes its copies of their pipes."""
    global _helpers, _helpers_lock, _reaper
    for helper in _helpers:
        os.close(helper.requests)
        os.close(helper.replies)
    _helpers, _helpers_lock, _reaper = [], threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers_after_fork)


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
        raise InvalidSolverOptions("sparsity must be >= 1")
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
