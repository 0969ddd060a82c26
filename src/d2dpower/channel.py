"""dB-domain path loss with log-normal shadowing.

All link gains are kept in dB until the throughput/penalty math needs
linear watts. Path loss follows L1 + L2*log10(d) with a minimum-distance
clamp at d0, so the gain never exceeds -(L1 + L2*log10(d0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .topology import Drop


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants.

    l2_db is dB per decade of distance (10x the path-loss exponent).
    enb_l1_db / enb_l2_db override the transmitter-to-eNB constants when
    set; by default eNB links use the same model as device links.
    noise_dbw is the per-channel receiver noise-plus-cellular floor.
    """

    l1_db: float = 30.0
    l2_db: float = 40.0
    d0_m: float = 1.0
    shadow_sigma_db: float = 8.0
    shadowing_enabled: bool = True
    noise_dbw: float = -130.0
    enb_l1_db: float | None = None
    enb_l2_db: float | None = None
    per_channel_shadowing: bool = False

    def __post_init__(self):
        if self.l2_db <= 0:
            raise ConfigurationError(f"l2_db must be positive, got {self.l2_db}")
        if self.enb_l2_db is not None and self.enb_l2_db <= 0:
            raise ConfigurationError(f"enb_l2_db must be positive, got {self.enb_l2_db}")
        if self.d0_m <= 0:
            raise ConfigurationError(f"d0_m must be positive, got {self.d0_m}")
        if self.shadow_sigma_db < 0:
            raise ConfigurationError(
                f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}"
            )


@dataclass(frozen=True)
class GainTable:
    """Link gains in dB for one drop or a stack of drops.

    g_d2d_db[..., i, j] is the gain from the transmitter of pair i to the
    receiver of pair j; g_enb_db[..., i, c] from the transmitter of pair i
    to eNB c. Leading axes follow the drop's pair rows ([K, ...] for one
    drop, [B, K, ...] for a stack). With per-channel shadowing both carry
    a trailing channel axis.
    """

    g_d2d_db: np.ndarray
    g_enb_db: np.ndarray


def _path_loss(d, l1: float, l2: float, d0: float):
    return l1 + l2 * np.log10(np.maximum(d, d0))


def build_gain_table(
    drop: Drop, params: ChannelParams, rng=None, n_channels: int | None = None
) -> GainTable:
    """Gain tables for a drop or a stack of drops.

    Gains are -path_loss plus one Normal(0, sigma^2) dB shadowing draw per
    link when shadowing is enabled. The spectrum is flat: one gain covers
    all channels unless per_channel_shadowing is set, in which case each
    link draws an independent shadowing term per channel and the tables
    gain a trailing axis of length n_channels.

    All shadowing comes from one generator call laid out per drop as the
    device links then the eNB links, so a stack of B drops draws exactly
    what B single-drop calls on the same generator would.
    """
    coords = drop.pairs
    tx = coords[..., 0:2]
    rx = coords[..., 2:4]
    centers = drop.layout.cell_centers
    d_d2d = np.linalg.norm(tx[..., :, None, :] - rx[..., None, :, :], axis=-1)
    d_enb = np.linalg.norm(tx[..., :, None, :] - centers, axis=-1)

    g_d2d = -_path_loss(d_d2d, params.l1_db, params.l2_db, params.d0_m)
    l1e = params.l1_db if params.enb_l1_db is None else params.enb_l1_db
    l2e = params.l2_db if params.enb_l2_db is None else params.enb_l2_db
    g_enb = -_path_loss(d_enb, l1e, l2e, params.d0_m)

    if params.shadowing_enabled:
        if rng is None:
            raise ValueError("shadowing is enabled but no random generator was given")
        lead, k = coords.shape[:-2], coords.shape[-2]
        d2d_shape = (k, k)
        enb_shape = (k, centers.shape[0])
        if params.per_channel_shadowing:
            if n_channels is None:
                raise ValueError(
                    "per-channel shadowing requires n_channels to be given"
                )
            d2d_shape += (n_channels,)
            enb_shape += (n_channels,)
            g_d2d = g_d2d[..., None]
            g_enb = g_enb[..., None]
        n_d2d = math.prod(d2d_shape)
        draws = rng.normal(
            0.0, params.shadow_sigma_db, lead + (n_d2d + math.prod(enb_shape),)
        )
        g_d2d = g_d2d + draws[..., :n_d2d].reshape(lead + d2d_shape)
        g_enb = g_enb + draws[..., n_d2d:].reshape(lead + enb_shape)
    return GainTable(g_d2d, g_enb)


def dbw_to_watt(p):
    out = 10.0 ** (np.asarray(p, dtype=float) / 10.0)
    return float(out) if out.ndim == 0 else out
