import numpy as np
from hypothesis import settings

from casense.config import BandConfig, Block, CaConfig, Comb, Scheme

# Property tests draw the same examples on every run and carry no wall-clock
# deadline, so a loaded machine cannot fail them.
settings.register_profile("casense", derandomize=True, deadline=None)
settings.load_profile("casense")


# The numpy build the CLI and demo sha256 pins were recorded under: float
# results, and so the bytes, may differ under another version or SIMD dispatch.
PINNED_BUILD = "numpy 2.4.6, baseline X86_V2, dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def pin_mismatch() -> str:
    """Message of a failed byte pin: the build it was recorded under and the running one."""
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    dispatch = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    running = f"numpy {np.__version__}, baseline {' '.join(__cpu_baseline__)}, dispatch {dispatch}"
    return f"pinned under {PINNED_BUILD}; running {running}"


def split_into(parts: int):
    """A stand-in for recovery._split that makes `parts` contiguous parts of any count."""
    def split(count, least, whole=False):
        return [(k * count // parts, (k + 1) * count // parts) for k in range(parts)]

    return split


def build_velocity_selection(q: int, m: int) -> np.ndarray:
    """Periodic mask: True exactly on indices divisible by q (the block band's pilot symbols)."""
    if q < 1 or m % q:
        raise ValueError(f"q={q} must divide m={m}")
    return (np.arange(m) % q) == 0


def lattice_config(n, m, k, q, scheme):
    """Valid aggregated config on the bound-check lattice: spacing ratio = k,
    velocity-fusion constraint satisfied by construction."""
    df1 = 30e3
    df2 = k * df1
    t_cp2 = 1.33e-6
    t2 = 1 / df2 + t_cp2
    t1 = t2 * 24e9 / 5.9e9
    low_kind, high_kind = scheme.patterns
    low_pilot = Comb(k) if low_kind is Comb else Block(q)
    high_pilot = Comb(k) if high_kind is Comb else Block(q)
    return CaConfig(
        low=BandConfig(5.9e9, df1, n, m, t1 - 1 / df1, low_pilot),
        high=BandConfig(24e9, df2, n, m, t_cp2, high_pilot),
        scheme=scheme,
        c0=3e8,
    )


# ---------------------------------------------------------------------------
# likelihood and scores for one band: the model the Fisher entries come
# from, for the gradient checks of the CRLB tests
# ---------------------------------------------------------------------------

def signal_model(tau: float, theta: float, freqs: np.ndarray, times_fc: np.ndarray, h: float):
    """Noise-free observations s_{m,n} on the (freqs x times_fc) pilot grid."""
    return h * np.exp(2j * np.pi * times_fc[None, :] * theta) * np.exp(
        -2j * np.pi * freqs[:, None] * tau
    )


def log_likelihood(
    y: np.ndarray, tau: float, theta: float, freqs: np.ndarray, times_fc: np.ndarray,
    h: float, sigma: float,
) -> float:
    """Gaussian log-likelihood of the pilot observations (additive constant kept)."""
    s = signal_model(tau, theta, freqs, times_fc, h)
    mn = y.size
    return float(
        -0.5 * mn * np.log(2.0 * np.pi * sigma * sigma)
        - 0.5 / (sigma * sigma) * np.sum(np.abs(y - s) ** 2)
    )


def score(
    y: np.ndarray, tau: float, theta: float, freqs: np.ndarray, times_fc: np.ndarray,
    h: float, sigma: float,
) -> tuple[float, float]:
    """Analytic (d ln p / d tau, d ln p / d theta)."""
    s = signal_model(tau, theta, freqs, times_fc, h)
    resid = y - s
    ds_dtau = -2j * np.pi * freqs[:, None] * s
    ds_dtheta = 2j * np.pi * times_fc[None, :] * s
    inv = 1.0 / (sigma * sigma)
    d_tau = inv * float(np.sum(np.real(np.conj(resid) * ds_dtau)))
    d_theta = inv * float(np.sum(np.real(np.conj(resid) * ds_dtheta)))
    return d_tau, d_theta
