"""Single-path and Rician multipath MIMO channel realizations.

A realization stores path parameters (complex gain, AoD, AoA) that the caller
has drawn; nothing here consumes randomness. The channel matrix is
materialized on demand as a sum of rank-1 outer products a_r(psi_i) a_t(mu_i)^H
weighted by the Rician K-factor split. The matched receive row rx^H H, which
every estimator sounds through, is formed once per realization.
"""

import numpy as np
from dataclasses import dataclass
from functools import cached_property

from .arrays import ArrayGeometry, angle_to_spatial, steering


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain alpha and departure/arrival angles."""

    gain: complex
    aod_deg: float
    aoa_deg: float

    def __post_init__(self):
        if not np.isfinite(self.gain):
            raise ValueError("path gain must be finite")
        if abs(self.aod_deg) > 90.0 or abs(self.aoa_deg) > 90.0:
            raise ValueError("path angles must lie in [-90, 90] degrees")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Path list plus geometries; `matrix()` materializes the M x N channel.

    `matched_combiner` and `matched_row` are computed on first use and kept,
    read-only, for the life of the realization.
    """

    paths: tuple
    los_index: int
    geometry_tx: ArrayGeometry
    geometry_rx: ArrayGeometry
    k_factor_db: float | None = None  # None: no Rician split, unit path weights
    nlos_normalized: bool = False  # divide NLOS power by the NLOS path count

    def __post_init__(self):
        if len(self.paths) < 1:
            raise ValueError("a channel realization needs at least one path")
        if not 0 <= self.los_index < len(self.paths):
            raise ValueError("los_index out of range")

    @property
    def aod_deg(self) -> float:
        """Ground-truth departure angle of the dominant (LOS) path."""
        return self.paths[self.los_index].aod_deg

    @property
    def aoa_deg(self) -> float:
        """Ground-truth arrival angle of the dominant (LOS) path."""
        return self.paths[self.los_index].aoa_deg

    def path_weights(self) -> np.ndarray:
        """Per-path amplitude weights from the Rician K-factor split."""
        n_paths = len(self.paths)
        if self.k_factor_db is None:
            return np.ones(n_paths)
        k = 10.0 ** (self.k_factor_db / 10.0)
        w = np.full(n_paths, np.sqrt(1.0 / (1.0 + k)))
        if self.nlos_normalized and n_paths > 1:
            w /= np.sqrt(n_paths - 1)
        w[self.los_index] = np.sqrt(k / (1.0 + k))
        return w

    def matrix(self) -> np.ndarray:
        """Materialize H = sum_i w_i alpha_i a_r(psi_i) a_t(mu_i)^H."""
        weights = self.path_weights()
        h = np.zeros((self.geometry_rx.num_elements, self.geometry_tx.num_elements), dtype=complex)
        for path, w in zip(self.paths, weights):
            a_r = steering(angle_to_spatial(path.aoa_deg, self.geometry_rx), self.geometry_rx)
            a_t = steering(angle_to_spatial(path.aod_deg, self.geometry_tx), self.geometry_tx)
            h += (w * path.gain) * np.outer(a_r, a_t.conj())
        return h

    @cached_property
    def matched_combiner(self) -> np.ndarray:
        """Unit-norm receive combiner a_r(psi) steered at the dominant path's arrival angle."""
        rx = steering(angle_to_spatial(self.aoa_deg, self.geometry_rx), self.geometry_rx)
        rx.flags.writeable = False
        return rx

    @cached_property
    def matched_row(self) -> np.ndarray:
        """h_row = rx^H H for the matched combiner: what each transmit beam f is seen through."""
        row = self.matched_combiner.conj() @ self.matrix()
        row.flags.writeable = False
        return row


def make_single_path(aod_deg: float, aoa_deg: float, g: complex,
                     geometry_tx: ArrayGeometry, geometry_rx: ArrayGeometry) -> ChannelRealization:
    """Rank-1 channel alpha * a_r(psi) a_t(mu)^H with alpha = g * sqrt(N_tot * M_tot)."""
    alpha = g * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    path = PathParams(gain=complex(alpha), aod_deg=float(aod_deg), aoa_deg=float(aoa_deg))
    return ChannelRealization(paths=(path,), los_index=0,
                              geometry_tx=geometry_tx, geometry_rx=geometry_rx)


def make_rician(k_factor_db: float, aods_deg, aoas_deg, gains, geometry_tx: ArrayGeometry,
                geometry_rx: ArrayGeometry, nlos_normalized: bool = False) -> ChannelRealization:
    """Rician realization from drawn paths: one LOS path plus len(aods_deg) - 1 NLOS paths.

    Path i departs at aods_deg[i] and arrives at aoas_deg[i], with gain
    gains[i] * sqrt(N_tot * M_tot); the caller draws the angles uniformly over
    their priors and the g_i ~ CN(0, 1). Path 0 is the LOS path.
    """
    if len(aods_deg) < 1 or not len(aods_deg) == len(aoas_deg) == len(gains):
        raise ValueError(f"need one AoD, AoA and gain per path, at least one path; got "
                         f"{len(aods_deg)}, {len(aoas_deg)} and {len(gains)}")
    scale = np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    paths = tuple(PathParams(gain=complex(g * scale), aod_deg=float(aod), aoa_deg=float(aoa))
                  for aod, aoa, g in zip(aods_deg, aoas_deg, gains))
    return ChannelRealization(paths=paths, los_index=0,
                              geometry_tx=geometry_tx, geometry_rx=geometry_rx,
                              k_factor_db=float(k_factor_db), nlos_normalized=nlos_normalized)
