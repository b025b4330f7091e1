"""Single-path and Rician multipath MIMO channel realizations.

A realization is the path arrays the caller has drawn (AoDs, AoAs and complex
gains, path 0 the dominant LOS path) with any Rician K-factor weight already
folded into the gains; nothing here consumes randomness. The channel matrix
is materialized on demand as the sum of rank-1 outer products
g_i a_r(psi_i) a_t(mu_i)^H. The matched receive row rx^H H, which every
estimator sounds through, is formed once per realization.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial, steering


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Drawn paths plus geometries; `matrix()` materializes the M x N channel.

    Path i departs at aods_deg[i] and arrives at aoas_deg[i] with complex
    amplitude gains[i]; path 0 is the LOS path. `matched_row` is computed on
    first use and kept, read-only, for the life of the realization.
    """

    aods_deg: tuple
    aoas_deg: tuple
    gains: tuple
    geometry_tx: ArrayGeometry
    geometry_rx: ArrayGeometry

    def __post_init__(self):
        if not 1 <= len(self.aods_deg) == len(self.aoas_deg) == len(self.gains):
            raise ValueError(f"need one AoD, AoA and gain per path, at least one path; got "
                             f"{len(self.aods_deg)}, {len(self.aoas_deg)} and {len(self.gains)}")
        if not all(cmath.isfinite(g) for g in self.gains):
            raise ValueError(f"path gains must be finite, got {self.gains}")
        if not all(abs(a) <= 90.0 for a in self.aods_deg + self.aoas_deg):
            raise ValueError("path angles must lie in [-90, 90] degrees")

    @property
    def aod_deg(self) -> float:
        """Ground-truth departure angle of the dominant (LOS) path."""
        return self.aods_deg[0]

    def matrix(self) -> np.ndarray:
        """Materialize H = sum_i g_i a_r(psi_i) a_t(mu_i)^H."""
        h = np.zeros((self.geometry_rx.num_elements, self.geometry_tx.num_elements), dtype=complex)
        for aod, aoa, g in zip(self.aods_deg, self.aoas_deg, self.gains):
            a_r = steering(angle_to_spatial(aoa, self.geometry_rx), self.geometry_rx)
            a_t = steering(angle_to_spatial(aod, self.geometry_tx), self.geometry_tx)
            h += g * np.outer(a_r, a_t.conj())
        return h

    @cached_property
    def matched_row(self) -> np.ndarray:
        """h_row = rx^H H, with the unit-norm combiner rx = a_r(psi_0) steered at the LOS arrival angle.

        Every transmit beam f is seen through this row.
        """
        rx = steering(angle_to_spatial(self.aoas_deg[0], self.geometry_rx), self.geometry_rx)
        row = rx.conj() @ self.matrix()
        row.flags.writeable = False
        return row


def make_single_path(aod_deg: float, aoa_deg: float, g: complex,
                     geometry_tx: ArrayGeometry, geometry_rx: ArrayGeometry) -> ChannelRealization:
    """Rank-1 channel alpha * a_r(psi) a_t(mu)^H with alpha = g * sqrt(N_tot * M_tot)."""
    alpha = g * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    return ChannelRealization((float(aod_deg),), (float(aoa_deg),), (complex(alpha),),
                              geometry_tx, geometry_rx)


def make_rician(k_factor_db: float, aods_deg, aoas_deg, gains, geometry_tx: ArrayGeometry,
                geometry_rx: ArrayGeometry, nlos_normalized: bool = False) -> ChannelRealization:
    """Rician realization from drawn paths: one LOS path plus len(aods_deg) - 1 NLOS paths.

    Path i departs at aods_deg[i] and arrives at aoas_deg[i]; the caller draws
    the angles uniformly over their priors and the g_i ~ CN(0, 1). Its stored
    amplitude is w_i * g_i * sqrt(N_tot * M_tot), with the K-factor split
    w_0 = sqrt(K / (1 + K)) for the LOS path 0 and w_i = sqrt(1 / (1 + K)) for
    the NLOS paths, further divided by sqrt(L - 1) over L paths when
    `nlos_normalized`.
    """
    k = 10.0 ** (k_factor_db / 10.0)
    nlos = math.sqrt(1.0 / (1.0 + k))
    if nlos_normalized and len(gains) > 1:
        nlos /= math.sqrt(len(gains) - 1)
    weights = [math.sqrt(k / (1.0 + k))] + [nlos] * (len(gains) - 1)
    scale = np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    return ChannelRealization(tuple(map(float, aods_deg)), tuple(map(float, aoas_deg)),
                              tuple(w * complex(g * scale) for w, g in zip(weights, gains)),
                              geometry_tx, geometry_rx)
