"""Per-band OFDM parameters and cross-band aggregation constraints.

All frequencies are in Hz, all durations in seconds. A carrier-aggregated
configuration binds a low-frequency and a high-frequency OFDM band whose
subcarrier spacings differ by an integer factor and whose symbol durations
are tuned (via cyclic-prefix length) so that ``T_low * fc_low`` equals
``T_high * fc_high``. Both constraints are what make cross-band fusion of
range and velocity spectra bin-exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from enum import Enum

from .errors import (
    InvalidConfig, NonIntegerSpacingRatio, PilotIntervalDoesNotDivide, SchemeMismatch,
    VelocityFusionConstraintViolated, check_integer, check_kind, check_real,
)

C0_EXACT = 299_792_458.0  # speed of light, m/s
C0_ROUND = 3e8  # round value used for reproduction runs

_REL_TOL = 1e-12
MAX_BAND_CELLS = 2**22  # N * M per band: 128 times Table 3's 512 x 64, 64 MiB as complex128


@dataclass(frozen=True)
class Comb:
    """Pilots on every ``interval``-th subcarrier, every OFDM symbol."""

    interval: int


@dataclass(frozen=True)
class Block:
    """Pilots on every subcarrier, every ``interval``-th OFDM symbol."""

    interval: int


PilotPattern = Comb | Block


class Scheme(Enum):
    """The four aggregated pilot structures."""

    CA1 = "CA1"  # staggered: low comb, high block
    CA2 = "CA2"  # low block, high comb
    CA3 = "CA3"  # both block
    CA4 = "CA4"  # both comb

    @property
    def patterns(self) -> tuple[type, type]:
        """(low pattern class, high pattern class) expected by the scheme."""
        return {
            Scheme.CA1: (Comb, Block),
            Scheme.CA2: (Block, Comb),
            Scheme.CA3: (Block, Block),
            Scheme.CA4: (Comb, Comb),
        }[self]


@dataclass(frozen=True)
class BandConfig:
    """One OFDM component carrier.

    Attributes
    ----------
    fc : float
        Carrier frequency (Hz).
    delta_f : float
        Subcarrier spacing (Hz).
    n_subcarriers : int
        Number of subcarriers N.
    n_symbols : int
        Number of OFDM symbols M per frame.
    t_cp : float
        Cyclic-prefix duration (s).
    pilot : Comb | Block
        Pilot pattern of this band.
    """

    fc: float
    delta_f: float
    n_subcarriers: int
    n_symbols: int
    t_cp: float
    pilot: PilotPattern

    def __post_init__(self):
        check_kind("pilot", self.pilot, PilotPattern, InvalidConfig)
        for name in ("n_subcarriers", "n_symbols"):
            check_integer(name, getattr(self, name), 2, InvalidConfig)
        check_integer("pilot interval", self.pilot.interval, 1, PilotIntervalDoesNotDivide)
        if self.n_subcarriers * self.n_symbols > MAX_BAND_CELLS:
            raise InvalidConfig(f"n_subcarriers * n_symbols is over {MAX_BAND_CELLS} per band")
        for name in ("fc", "delta_f"):
            check_real(name, getattr(self, name), InvalidConfig, "positive")
        check_real("t_cp", self.t_cp, InvalidConfig, "nonnegative")
        comb = isinstance(self.pilot, Comb)
        axis, size = ("N", self.n_subcarriers) if comb else ("M", self.n_symbols)
        if size % self.pilot.interval:
            raise PilotIntervalDoesNotDivide(f"{self.pilot} does not divide {axis}={size}")

    @property
    def symbol_duration(self) -> float:
        """Total OFDM symbol duration T = 1/delta_f + t_cp (s)."""
        return 1.0 / self.delta_f + self.t_cp


def range_bin_width(c0: float, delta_f: float, n_subcarriers: int) -> float:
    """Meters per bin of an N-point range spectrum: c0 / (2 delta_f N).

    delta_f is the effective spacing of the spectrum's grid: the band's own
    for a block band, K * delta_f for a comb band, whose CS spectrum lives on
    the rearranged grid.
    """
    return c0 / (2.0 * delta_f * n_subcarriers)


def velocity_bin_width(c0: float, band: BandConfig) -> float:
    """m/s per bin of the band's M-point velocity spectrum: c0 / (2 fc T M)."""
    return c0 / (2.0 * band.fc * band.symbol_duration * band.n_symbols)


@dataclass(frozen=True)
class CaConfig:
    """A pair of aggregated bands plus the pilot scheme, valid by construction.

    Raises
    ------
    NonIntegerSpacingRatio
        If delta_f_high / delta_f_low is not an integer.
    VelocityFusionConstraintViolated
        If T_low * fc_low != T_high * fc_high (reports the residual).
    SchemeMismatch
        If band pilot patterns do not match the declared scheme, a comb
        interval in scheme CA1/CA2 differs from the spacing ratio, or the
        bands of scheme CA1, whose spectra are fused bin by bin, differ in N
        or M. So ``with_scheme(cfg, Scheme.CA1)`` raises for such a cfg, and
        so do ``run_high_band_baseline`` and ``compare-pilots``, which build
        CA1 from it.
    """

    low: BandConfig
    high: BandConfig
    scheme: Scheme
    c0: float = C0_EXACT

    def __post_init__(self):
        for name, kind in (("low", BandConfig), ("high", BandConfig), ("scheme", Scheme)):
            check_kind(name, getattr(self, name), kind, InvalidConfig)
        check_real("c0", self.c0, InvalidConfig, "positive")
        ratio = self.high.delta_f / self.low.delta_f
        k = round(ratio)
        if k < 1 or abs(ratio - k) > _REL_TOL * ratio:
            raise NonIntegerSpacingRatio(
                f"delta_f ratio {ratio!r} is not a positive integer within rel 1e-12"
            )
        g_low = self.low.symbol_duration * self.low.fc
        g_high = self.high.symbol_duration * self.high.fc
        residual = abs(g_low - g_high)
        if residual > _REL_TOL * max(g_low, g_high):
            raise VelocityFusionConstraintViolated(
                f"|T1*fc1 - T2*fc2| = {residual:.6e} (T1*fc1={g_low!r}, T2*fc2={g_high!r})"
            )
        low_kind, high_kind = self.scheme.patterns
        if not isinstance(self.low.pilot, low_kind) or not isinstance(self.high.pilot, high_kind):
            raise SchemeMismatch(
                f"scheme {self.scheme.value} expects low={low_kind.__name__}, "
                f"high={high_kind.__name__}; got low={type(self.low.pilot).__name__}, "
                f"high={type(self.high.pilot).__name__}"
            )
        if self.scheme in (Scheme.CA1, Scheme.CA2):
            for band in (self.low, self.high):
                if isinstance(band.pilot, Comb) and band.pilot.interval != k:
                    raise SchemeMismatch(
                        f"comb interval {band.pilot.interval} must equal the spacing "
                        f"ratio {k} in scheme {self.scheme.value}"
                    )
        shapes = [(b.n_subcarriers, b.n_symbols) for b in (self.low, self.high)]
        if self.scheme is Scheme.CA1 and shapes[0] != shapes[1]:
            raise SchemeMismatch(f"scheme CA1 needs one (N, M) in both bands; got {shapes}")

    @property
    def k_ratio(self) -> int:
        """Integer subcarrier-spacing ratio delta_f_high / delta_f_low."""
        return int(round(self.high.delta_f / self.low.delta_f))

    @property
    def range_bin_width(self) -> float:
        """Fused range bin width c0 / (2 * delta_f_high * N) in meters."""
        return range_bin_width(self.c0, self.high.delta_f, self.high.n_subcarriers)

    @property
    def velocity_bin_width(self) -> float:
        """Fused velocity bin width c0 / (2 * fc_high * T_high * M) in m/s."""
        return velocity_bin_width(self.c0, self.high)


def _low_band_cp(fc_low: float, delta_f_low: float, high: BandConfig) -> float:
    """Low-band CP making T1*fc1 = T2*fc2; InvalidConfig if no nonnegative one does."""
    t_cp_low = (1.0 / high.delta_f + high.t_cp) * high.fc / fc_low - 1.0 / delta_f_low
    if t_cp_low < 0:
        raise InvalidConfig(f"delta_f_high={high.delta_f!r} would need negative low-band CP")
    return t_cp_low


def make_table3_config(scheme: Scheme = Scheme.CA1) -> CaConfig:
    """Canonical 5.9 GHz / 24 GHz vehicular sensing configuration.

    fc 5.9/24 GHz, delta_f 30/120 kHz, N=512, M=64, K=Q=4. The high-band CP
    is 1.33 us (the maximum round-trip delay of a 200 m scene), which puts
    the high-band symbol duration at 9.6633 us (9.7 us after rounding). The
    low-band CP is then derived so that T1*fc1 = T2*fc2 holds exactly, which
    the fused velocity spectrum requires; this yields T1 = 39.3 us.

    Fused bin widths with the round c0: 2.44140625 m in range and
    10.1059 m/s in velocity. Other variants are a config file or a
    ``CaConfig(...)`` away.
    """
    high = BandConfig(24e9, 120e3, 512, 64, 1.33e-6, Block(4))
    low = BandConfig(5.9e9, 30e3, 512, 64, _low_band_cp(5.9e9, 30e3, high), Comb(4))
    return with_scheme(CaConfig(low=low, high=high, scheme=Scheme.CA1, c0=C0_ROUND), scheme)


def with_scheme(cfg: CaConfig, scheme: Scheme) -> CaConfig:
    """Rebuild cfg with pilot patterns set for another scheme.

    Pilot intervals are the ones already present in ``cfg``: the comb's
    (falling back to the spacing ratio) and the block's (falling back to
    the comb interval).
    """
    check_kind("cfg", cfg, CaConfig, InvalidConfig)
    check_kind("scheme", scheme, Scheme, InvalidConfig)
    pilots = (cfg.low.pilot, cfg.high.pilot)
    k = next((p.interval for p in pilots if isinstance(p, Comb)), cfg.k_ratio)
    q = next((p.interval for p in pilots if isinstance(p, Block)), k)
    low_kind, high_kind = scheme.patterns
    low = replace(cfg.low, pilot=Comb(k) if low_kind is Comb else Block(q))
    high = replace(cfg.high, pilot=Comb(k) if high_kind is Comb else Block(q))
    return CaConfig(low=low, high=high, scheme=scheme, c0=cfg.c0)


def with_high_band_spacing(cfg: CaConfig, delta_f_high: float) -> CaConfig:
    """Rescale both subcarrier spacings, preserving the ratio and T1*fc1 = T2*fc2.

    The high-band CP is kept; the low-band CP is re-derived from the velocity
    fusion constraint. Used by CRLB sweeps over subcarrier spacing.
    """
    check_kind("cfg", cfg, CaConfig, InvalidConfig)
    check_real("delta_f_high", delta_f_high, InvalidConfig, "positive")
    high = replace(cfg.high, delta_f=float(delta_f_high))
    df1 = high.delta_f / cfg.k_ratio
    low = replace(cfg.low, delta_f=df1, t_cp=_low_band_cp(cfg.low.fc, df1, high))
    return CaConfig(low=low, high=high, scheme=cfg.scheme, c0=cfg.c0)


# ---------------------------------------------------------------------------
# config file round-trip (JSON, plain decimals, Hz and seconds)
# ---------------------------------------------------------------------------

_PATH = str | bytes | os.PathLike  # what a config path may be; open() would also take an fd
_BAND_KEYS = tuple(f.name for f in fields(BandConfig))  # the JSON key order
_PILOT_KINDS = {cls.__name__.lower(): cls for cls in (Comb, Block)}


def _section(d, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """d itself, after checking it is an object holding every required key and no other.

    where is the section's dotted path in the document, "" for the top level.
    """
    prefix = f"{where}." if where else ""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where or 'config'} {d!r} must be an object")
    missing = [prefix + k for k in required if k not in d]
    if missing:
        raise InvalidConfig(f"config is missing {', '.join(missing)}")
    unknown = sorted(prefix + str(k) for k in set(d) - set(required) - set(optional))
    if unknown:
        raise InvalidConfig(f"config has unknown key(s) {', '.join(unknown)}")
    return d


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{path} {value!r} must be a number")
    return float(value)


def _band_to_dict(b: BandConfig) -> dict:
    pilot = {"kind": type(b.pilot).__name__.lower(), "interval": b.pilot.interval}
    return {key: getattr(b, key) for key in _BAND_KEYS} | {"pilot": pilot}


def _band_from_dict(d, where: str) -> BandConfig:
    """Integers are taken as they are, so BandConfig rejects 4.7, 4.0 and true."""
    d = _section(d, where, _BAND_KEYS)
    values = {
        f.name: _number(d[f.name], f"{where}.{f.name}") if f.type == "float" else d[f.name]
        for f in fields(BandConfig)
        if f.name != "pilot"
    }
    pilot = _section(d["pilot"], f"{where}.pilot", ("kind", "interval"))
    kind = _PILOT_KINDS.get(pilot["kind"].lower()) if isinstance(pilot["kind"], str) else None
    if kind is None:
        raise InvalidConfig(f"unknown pilot kind {pilot['kind']!r}")
    return BandConfig(**values, pilot=kind(pilot["interval"]))


def config_to_dict(cfg: CaConfig) -> dict:
    return {
        "scheme": cfg.scheme.value,
        "c0": cfg.c0,
        "low": _band_to_dict(cfg.low),
        "high": _band_to_dict(cfg.high),
    }


def config_from_dict(d) -> CaConfig:
    """The config a JSON document describes, taken exactly.

    Every key is required except c0 (default C0_EXACT), unknown keys are
    rejected, integers must be JSON integers and numbers JSON numbers; any
    other document raises InvalidConfig.
    """
    d = _section(d, "", ("scheme", "low", "high"), optional=("c0",))
    try:
        scheme = Scheme(d["scheme"])
    except ValueError:
        raise InvalidConfig(f"unknown scheme {d['scheme']!r}") from None
    return CaConfig(
        low=_band_from_dict(d["low"], "low"),
        high=_band_from_dict(d["high"], "high"),
        scheme=scheme,
        c0=_number(d["c0"], "c0") if "c0" in d else C0_EXACT,
    )


def save_config(cfg: CaConfig, path) -> None:
    check_kind("cfg", cfg, CaConfig, InvalidConfig)
    check_kind("path", path, _PATH, InvalidConfig)
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")


def load_config(path) -> CaConfig:
    check_kind("path", path, _PATH, InvalidConfig)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise InvalidConfig(f"config {path} cannot be read: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"config {path} is not JSON: {exc}") from None
    return config_from_dict(doc)
