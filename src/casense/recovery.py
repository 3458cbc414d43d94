"""Masked-Fourier sparse recovery: FISTA, OMP, and KKT certificates.

The measurement model is d = A x + w where A keeps a subset of rows of a
unitary DFT (direction "forward", used for range) or unitary inverse DFT
(direction "inverse", used for velocity). Solvers minimize

    0.5 * ||d - A x||_2^2 + lam * ||x||_1

with complex (phase-preserving) soft thresholding.
"""

from __future__ import annotations

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

        x_next = soft_threshold(y - (A*A y - A*d), lam),

    where A*d is formed once before the loop and A*A y = F^-1(mask * F(y))
    with F the operator's transform without its unitary scaling (the
    1/sqrt(n) and sqrt(n) factors cancel). Masked-out rows are zeroed in
    place between the two FFTs, so no rows are gathered or scattered. With
    momentum, y = x_next + ((t - 1) / t_next) (x_next - x) and
    t_next = (1 + sqrt(1 + 4 t^2)) / 2; without it y = x_next.

    All columns share one stop test: the run ends after the first iteration
    with ||x_next - x||_F < tol * ||x_next||_F (Frobenius norms over the whole
    batch), or after max_iters. Returns (x, iterations). The momentum scalar
    schedule is data independent, so a batched run is exactly the
    column-wise application of the single-rhs iteration (up to the shared
    stopping test).
    """
    if op.direction == FORWARD:
        transform, inverse = np.fft.fft, np.fft.ifft
    else:
        transform, inverse = np.fft.ifft, np.fft.fft
    dropped_rows = ~op.row_mask
    a_star_d = op.adjoint(d)
    x = np.zeros_like(a_star_d)
    y = np.zeros_like(a_star_d)
    z = np.empty_like(a_star_d)
    x_next = np.empty_like(a_star_d)
    diff = np.empty_like(a_star_d)
    shrink = np.empty(a_star_d.shape)
    t = 1.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        # z = y - (A*A y - A*d)
        transform(y, axis=0, out=z)
        z[dropped_rows] = 0
        inverse(z, axis=0, out=z)
        np.subtract(z, a_star_d, out=z)
        np.subtract(y, z, out=z)
        # x_next = soft_threshold(z, lam), the same operations written into buffers
        np.abs(z, out=shrink)
        np.maximum(shrink, 1e-300, out=shrink)
        np.divide(lam, shrink, out=shrink)
        np.subtract(1.0, shrink, out=shrink)
        np.maximum(shrink, 0.0, out=shrink)
        np.multiply(z, shrink, out=x_next)
        np.subtract(x_next, x, out=diff)
        rel = _frobenius(diff) / max(_frobenius(x_next), 1e-300)
        if momentum:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            np.multiply(diff, (t - 1.0) / t_next, out=y)
            np.add(x_next, y, out=y)
            t = t_next
        else:
            np.copyto(y, x_next)
        x, x_next = x_next, x
        if rel < tol:
            break
    return x, iterations


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of a contiguous complex array."""
    return float(np.sqrt(np.vdot(a, a).real))


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
