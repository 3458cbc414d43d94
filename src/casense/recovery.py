"""Masked-Fourier sparse recovery: FISTA, OMP, and KKT certificates.

The measurement model is d = A x + w where A keeps a subset of rows of a
unitary DFT (direction "forward", used for range) or unitary inverse DFT
(direction "inverse", used for velocity). Solvers minimize

    0.5 * ||d - A x||_2^2 + lam * ||x||_1

with complex (phase-preserving) soft thresholding.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, InvalidConfig, InvalidSolverOptions, check_finite, check_integer, check_kind,
    check_real,
)

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
        check_integer("n", self.n, 1, InvalidConfig)
        if self.direction not in (FORWARD, INVERSE):
            raise InvalidConfig(f"direction must be {FORWARD!r} or {INVERSE!r}")
        mask = np.asarray(self.row_mask)
        check_kind("row_mask dtype", mask.dtype, np.dtypes.BoolDType, InvalidConfig)
        if mask.shape != (self.n,):
            raise DimensionMismatch(f"row_mask must have shape ({self.n},)")
        if not mask.any():
            raise InvalidConfig("row_mask must select at least one row")
        object.__setattr__(self, "row_mask", mask)

    @property
    def n_measurements(self) -> int:
        return int(self.row_mask.sum())

    @property
    def fft_pair(self):
        """(transform, inverse, a, b), the one map from direction to FFTs: A x =
        transform(x)[row_mask] * a and A* y = inverse(y zero-filled) * b, where a * b = 1."""
        root, inverse_root = np.sqrt(self.n), 1.0 / np.sqrt(self.n)
        if self.direction == FORWARD:
            return np.fft.fft, np.fft.ifft, inverse_root, root
        return np.fft.ifft, np.fft.fft, root, inverse_root

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x: transform then keep the masked rows. Accepts (n,) or (n, b)."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected leading dimension {self.n}, got {x.shape}")
        transform, _, a, _ = self.fft_pair
        return transform(x, axis=0)[self.row_mask] * a

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A* y: scatter measurements back to masked rows, inverse-transform."""
        y = np.asarray(y)
        if y.shape[0] != self.n_measurements:
            raise DimensionMismatch(
                f"expected leading dimension {self.n_measurements}, got {y.shape}"
            )
        full = np.zeros((self.n,) + y.shape[1:], dtype=complex)
        full[self.row_mask] = y
        _, inverse, _, b = self.fft_pair
        return inverse(full, axis=0) * b


def check_solver_knobs(max_iters, **nonnegative) -> None:
    """Raise InvalidSolverOptions unless each keyword's value is one finite real >= 0 and
    max_iters is an int >= 1; name the first bad value."""
    for name, value in nonnegative.items():
        check_real(name, value, InvalidSolverOptions, "nonnegative")
    check_integer("max_iters", max_iters, 1, InvalidSolverOptions)


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
        check_finite("observations", d, InvalidConfig)
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
    d = np.asarray(d, dtype=complex)
    check_finite("observations", d, InvalidConfig)
    lam = lasso_lambda(op.adjoint(d), scale)
    return float(lam) if lam.ndim == 0 else lam


def soft_threshold(z: np.ndarray, t) -> np.ndarray:
    """Complex soft threshold: shrink magnitude by t, preserve phase."""
    mag = np.abs(z)
    return z * np.maximum(1.0 - t / np.maximum(mag, 1e-300), 0.0)


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

    The columns are split by the one split rule, _split(batch, 16): one block
    per CPU, each of at least 16 columns (a batch under 32 columns is one
    block). Each block is one _solve_block call, which allocates buffers for
    that block only, made through _map, the one pool run_sweep's trials also
    use; a solve inside a call of a map of two or more (a sweep's part of a
    round of trials) finds the pool lock taken and runs every block here.
    The caller makes call 0 and allocates only for the blocks it solves; x
    does not depend on where blocks ran.
    """
    check_solver_knobs(max_iters, tol=tol)
    for value in np.ravel(lam):  # one lam for every column, or one per column
        check_real("lam", value, InvalidSolverOptions, "nonnegative")
    d = np.asarray(d, dtype=complex)
    if d.shape[0] != op.n_measurements:
        raise DimensionMismatch(f"expected leading dimension {op.n_measurements}, got {d.shape}")
    check_finite("observations", d, InvalidConfig)
    rows = d.reshape(op.n_measurements, -1).T  # (batch, p): one column per row
    batch = rows.shape[0]
    if np.ndim(lam) and np.shape(lam) not in ((1,), (batch,)):
        raise DimensionMismatch(f"lam of shape {np.shape(lam)} does not fit {batch} columns")
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (batch,))
    blocks = _split(batch, 16)
    args = (max_iters, tol, momentum)
    replies = _map([(_solve_block, (op, rows[lo:hi], lam[lo:hi], *args)) for lo, hi in blocks])
    x = np.concatenate([block for block, _ in replies], axis=1)
    return (x if d.ndim > 1 else x[:, 0]), max(count for _, count in replies)


def _map(calls):
    """[fn(*args) for fn, args in calls], in call order; fn is pickled by module and name.

    A map of two calls or more that takes the pool lock makes call 0 here
    and sends each other call to a helper process, forked by the first map
    that needs it and kept. A map that finds the lock taken (by another
    caller, or by an outer map whose call this is), or of one call (which
    takes no lock), makes every call here. A call also runs here if its
    helper cannot start (no fork, a daemonic process, or inside a helper),
    died, or raised (a helper exits on errors).
    """
    if len(calls) < 2 or not _pool.acquire(blocking=False):
        return [fn(*args) for fn, args in calls]
    try:
        sent = {k: h for k, h in enumerate(_helpers_for(len(calls) - 1), 1) if h.send(*calls[k])}
        replies = {}
        try:
            for k, (fn, args) in enumerate(calls):
                if k not in sent:
                    replies[k] = (fn(*args),)
        finally:
            replies.update((k, helper.receive()) for k, helper in sent.items())
    finally:
        _pool.release()
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
    transform, inverse, _, scale = op.fft_pair  # transform(y) at the kept rows is (A y) * scale
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


def _split(count: int, least: int, whole: bool = False) -> list[tuple[int, int]]:
    """Contiguous parts (lo, hi) of range(count): one per CPU this process may run on,
    each of >= least items, and at least one part. With whole, for items whose own maps use
    every CPU: count // CPUs items per CPU (no parts if 0), then a last part of the rest."""
    cpus = _cpu_count()
    if whole:
        size = count // cpus
        rounds = [(k * size, (k + 1) * size) for k in range(cpus * (size > 0))]
        return rounds + [(cpus * size, count)]
    parts = max(1, min(cpus, count // least))
    return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]


class _Helper:
    """A forked process that runs the calls sent to it over a pipe, used under _pool.

    It exits when its request pipe reaches end of file (when the parent
    closes it or dies), or when a call raises.
    """

    def __init__(self):
        global _in_helper
        requests, self.requests = os.pipe()
        self.replies, reply_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests, self.requests, self.replies, reply_end):
                os.close(fd)
            raise
        if self.pid == 0:  # the helper, which never returns from here
            _in_helper = True
            warnings.simplefilter("ignore")  # call 0 runs in the caller, which sees its warnings
            try:
                os.close(self.requests)
                os.close(self.replies)
                reader = os.fdopen(requests, "rb")
                while True:
                    try:
                        fn, args = pickle.load(reader)
                    except EOFError:
                        os._exit(0)
                    _write(reply_end, (fn(*args),))
            finally:
                os._exit(1)
        os.close(requests)
        os.close(reply_end)

    def send(self, *request) -> bool:
        """Hands the helper a call; False if it has died."""
        try:
            _write(self.requests, request)
        except OSError:  # the helper has died
            _discard(self)
            return False
        except BaseException:
            _discard(self)
            raise
        return True

    def receive(self):
        """(result,) of the call sent, or None if the helper died, cutting its reply short.
        A reader of this reply alone: a child forked meanwhile never waits on a reader's lock."""
        try:
            with os.fdopen(self.replies, "rb", closefd=False) as reader:
                return pickle.load(reader)
        except (EOFError, pickle.UnpicklingError, OSError):
            _discard(self)
            return None
        except BaseException:
            _discard(self)
            raise

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


def _write(fd: int, message) -> None:
    """Writes message as one pickle, which marks its own end."""
    view = memoryview(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view) :]


_pool = threading.Lock()  # held by the one map that may use the helpers
_helpers: list[_Helper] = []  # started by the first map that needs them
_reaper = None  # in a process that multiprocessing started: the finalizer that joins its helpers
_in_helper = False  # set in a helper, which starts no helpers


def _helpers_for(count: int) -> list[_Helper]:
    """Under _pool: the first `count` helpers, started as needed; fewer where no more can start."""
    global _reaper
    process = sys.modules.get("multiprocessing.process")
    daemonic = process and process.current_process().daemon
    if _in_helper or daemonic or not hasattr(os, "fork"):
        return []
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
    """Under _pool: drops a helper that died or lost its place in the protocol, and stops it."""
    if helper in _helpers:
        _helpers.remove(helper)
    helper.stop()


@atexit.register
def _stop_helpers() -> None:
    """Joins every helper at interpreter exit, or when a process multiprocessing started ends."""
    while _helpers:
        _helpers.pop().stop()


def _forget_helpers_after_fork() -> None:
    """A forked child closes its copies of the parent's helpers' pipes and takes a fresh _pool."""
    global _helpers, _pool, _reaper
    for helper in _helpers:
        os.close(helper.requests)
        os.close(helper.replies)
    _helpers, _pool, _reaper = [], threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers_after_fork)


def solve_fista(p: LassoProblem) -> RecoveryResult:
    """Accelerated proximal gradient for the lasso.

    Step size 1/L = 1 (see fista_iterations); momentum
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2; stops on relative change < tol.
    Non-convergence is not an error: the result carries the iteration count
    and KKT residual for the caller to judge.
    """
    return _result(p, *fista_iterations(p.operator, p.observations, p.lam, p.max_iters, p.tol))


def solve_ista(p: LassoProblem) -> RecoveryResult:
    """Plain proximal gradient (no momentum); baseline for FISTA."""
    x, k = fista_iterations(p.operator, p.observations, p.lam, p.max_iters, p.tol, momentum=False)
    return _result(p, x, k)


def solve_omp(p: LassoProblem, sparsity: int) -> RecoveryResult:
    """Orthogonal matching pursuit: greedy max-correlation atom selection
    with a least-squares refit on the selected support each iteration."""
    check_integer("sparsity", sparsity, 1, InvalidSolverOptions)
    d = p.observations
    residual = d.copy()
    support: list[int] = []
    for iterations in range(1, sparsity + 1):  # sparsity >= 1: coef and iterations are set
        corr = np.abs(p.operator.adjoint(residual))
        corr[support] = -1.0  # do not reselect
        support.append(int(np.argmax(corr)))
        cols = p.operator.apply(np.eye(p.operator.n)[:, support])  # the support's columns of A
        coef, *_ = np.linalg.lstsq(cols, d, rcond=None)
        residual = d - cols @ coef
        if np.linalg.norm(residual) < p.tol:
            break
    x = np.zeros(p.operator.n, dtype=complex)
    x[support] = coef
    return _result(p, x, iterations)


def _result(p: LassoProblem, x: np.ndarray, iterations: int) -> RecoveryResult:
    """x with its lasso objective 0.5 ||r||^2 + lam ||x||_1 and KKT residual, from one r = d - A x.

    With g = A* r, dual feasibility needs |g_i| <= lam on zero entries and
    g_i = lam * x_i/|x_i| on nonzero ones; the KKT residual is the largest
    violation of either, zero iff x is optimal.
    """
    r = p.observations - p.operator.apply(x)
    objective = 0.5 * np.sum(np.abs(r) ** 2) + p.lam * np.sum(np.abs(x))
    g = p.operator.adjoint(r)
    nz = np.abs(x) > 0
    r_zero = float(np.maximum(np.abs(g[~nz]) - p.lam, 0.0).max()) if (~nz).any() else 0.0
    r_nz = float(np.abs(g[nz] - p.lam * x[nz] / np.abs(x[nz])).max()) if nz.any() else 0.0
    return RecoveryResult(x, iterations, float(objective), max(r_zero, r_nz))


def certify_kkt(p: LassoProblem, x_hat: np.ndarray) -> float:
    """Lasso optimality certificate of x_hat, zero iff it is optimal (see _result)."""
    return _result(p, x_hat, 0).kkt_residual
