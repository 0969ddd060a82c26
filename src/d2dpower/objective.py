"""Training objective: Shannon sum throughput minus ReLU-penalty terms.

Per drop, with powers p in dBm converted to watts and gains in dB
converted to linear:
    T_k      = sum_n log2(1 + S / (I + noise))        (per-pair rate)
    ct_p     = sum_k log2(1 + relu(sum_n p_w - P_max) / P_max)
    ct_if    = sum_c sum_n log2(1 + relu(if_cn - Q_max) / Q_max)
    total    = -sum_k T_k + c_if * ct_if + c_p * ct_p
Minimizing the total maximizes throughput while both penalties are zero
exactly when the constraints hold. Penalty ratios are formed in linear
watts so they stay dimensionless. The ReLU subgradient at the kink is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import dbw_to_watt
from .errors import ConfigurationError, ShapeError

LN2 = np.log(2.0)
LN10 = np.log(10.0)

POWER_FLOOR_DBM = -150.0
POWER_CEIL_DBM = 20.0


@dataclass(frozen=True)
class ConstraintConfig:
    """Caps and penalty weights for the constrained objective."""

    p_max_w: float = 0.25
    q_max_dbw: float = -130.0
    c_p: float = 10.0
    c_if: float = 10.0

    def __post_init__(self):
        if self.p_max_w <= 0:
            raise ConfigurationError(f"p_max_w must be positive, got {self.p_max_w}")
        if self.c_p < 0 or self.c_if < 0:
            raise ConfigurationError("penalty weights must be >= 0")

    @property
    def q_max_w(self) -> float:
        return dbw_to_watt(self.q_max_dbw)


@dataclass(frozen=True)
class StackedCost:
    """Vectorized per-drop cost pieces for a [B, K, N] power stack."""

    sum_throughput: np.ndarray  # [B]
    ct_p: np.ndarray  # [B]
    ct_if: np.ndarray  # [B]
    total: np.ndarray  # [B]
    throughput_per_pair: np.ndarray  # [B, K]
    total_power_w: np.ndarray  # [B, K]
    enb_interference_w: np.ndarray  # [B, C, N]
    grad_p_dbm: np.ndarray | None  # d(sum_b total_b)/d p_dbm, [B, K, N]


def _linear_gain4(g_db: np.ndarray, n_channels: int) -> np.ndarray:
    """10^(g/10) broadcast to a trailing channel axis.

    Accepts [B, K, M] (flat spectrum) or [B, K, M, N] (per-channel) and
    returns a [B, K, M, N] view/array.
    """
    g = 10.0 ** (np.asarray(g_db, dtype=float) / 10.0)
    if g.ndim == 3:
        return np.broadcast_to(g[:, :, :, None], g.shape + (n_channels,))
    if g.ndim == 4:
        if g.shape[3] != n_channels:
            raise ShapeError(
                f"per-channel gains have {g.shape[3]} channels, powers have {n_channels}"
            )
        return g
    raise ShapeError(f"gain table must be 3- or 4-dimensional, got shape {g.shape}")


def stacked_cost(
    p_dbm: np.ndarray,
    g_d2d_db: np.ndarray,
    g_enb_db: np.ndarray,
    cfg: ConstraintConfig,
    noise_dbw: float,
    want_grad: bool = False,
) -> StackedCost:
    """Cost pieces for B drops at once.

    p_dbm is [B, K, N]; g_d2d_db is [B, K, K] (or [B, K, K, N]) with
    entry [b, i, j] the gain from transmitter i to receiver j; g_enb_db
    is [B, K, C] (or [B, K, C, N]). When want_grad is set, grad_p_dbm
    holds the exact derivative of the summed totals with respect to every
    power entry.
    """
    p = np.asarray(p_dbm, dtype=float)
    if p.ndim != 3:
        raise ShapeError(f"power stack must be [B, K, N], got shape {p.shape}")
    b, k, n = p.shape
    gl = _linear_gain4(g_d2d_db, n)
    ge = _linear_gain4(g_enb_db, n)
    if gl.shape[:3] != (b, k, k):
        raise ShapeError(
            f"device gains shaped {gl.shape[:3]} do not match powers {(b, k, k)}"
        )
    if ge.shape[0] != b or ge.shape[1] != k:
        raise ShapeError(
            f"eNB gains shaped {ge.shape} do not match powers [B={b}, K={k}]"
        )
    noise_w = dbw_to_watt(noise_dbw)

    pw = 10.0 ** ((p - 30.0) / 10.0)
    gl_diag = np.einsum("bkkn->bkn", gl)
    # interference sums only cross links (diagonal zeroed): subtracting
    # the own-link term from a total instead would cancel catastrophically
    # whenever the direct gain dominates
    gl_off = np.array(gl)
    idx = np.arange(k)
    gl_off[:, idx, idx, :] = 0.0
    sig = pw * gl_diag
    interference = np.einsum("bin,bikn->bkn", pw, gl_off)
    denom = interference + noise_w
    # a zero denominator (noise underflow with no interferers) yields inf;
    # callers detect the non-finite cost rather than a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sig / denom
    t_per_channel = np.log1p(ratio) / LN2
    t_pair = t_per_channel.sum(axis=2)
    sum_t = t_pair.sum(axis=1)

    total_power = pw.sum(axis=2)
    over_p = total_power - cfg.p_max_w
    vp = np.maximum(over_p, 0.0) / cfg.p_max_w
    ct_p = (np.log1p(vp) / LN2).sum(axis=1)

    q_w = cfg.q_max_w
    enb_if = np.einsum("bkn,bkcn->bcn", pw, ge)
    over_q = enb_if - q_w
    vq = np.maximum(over_q, 0.0) / q_w
    ct_if = (np.log1p(vq) / LN2).sum(axis=(1, 2))

    total = -sum_t + cfg.c_if * ct_if + cfg.c_p * ct_p

    grad = None
    if want_grad:
        with np.errstate(divide="ignore", invalid="ignore"):
            d_sig = 1.0 / (LN2 * (1.0 + ratio) * denom)
            d_den = -ratio * d_sig
        grad_t = d_sig * gl_diag + np.einsum("bkn,bikn->bin", d_den, gl_off)
        g_pw = -grad_t
        g_pw = g_pw + (
            cfg.c_p * (over_p > 0.0) / (LN2 * (1.0 + vp) * cfg.p_max_w)
        )[:, :, None]
        d_enb = (over_q > 0.0) / (LN2 * (1.0 + vq) * q_w)
        g_pw = g_pw + cfg.c_if * np.einsum("bcn,bkcn->bkn", d_enb, ge)
        grad = g_pw * pw * (LN10 / 10.0)

    return StackedCost(
        sum_throughput=sum_t,
        ct_p=ct_p,
        ct_if=ct_if,
        total=total,
        throughput_per_pair=t_pair,
        total_power_w=total_power,
        enb_interference_w=enb_if,
        grad_p_dbm=grad,
    )
