"""Single-path and Rician multipath MIMO channel realizations.

A realization is the path arrays the caller has drawn (AoDs, AoAs and complex
gains, path 0 the dominant LOS path) with any Rician K-factor weight already
folded into the gains; nothing here consumes randomness. The channel matrix
is materialized on demand as the sum of rank-1 outer products
g_i a_r(psi_i) a_t(mu_i)^H. The matched receive row rx^H H, which every
estimator sounds through, is formed once per realization.

The path responses are computed once per side per realization, as one
row-stacked array (`_responses`), and the combiner rx is receive row 0.
Every entry is byte for byte what `arrays.steering` gives for that path,
and `matrix()` byte for byte the per-path sum
`h = zeros; h += g_i * np.outer(a_r_i, a_t_i.conj())`, because:

- the spatial frequencies come from the scalar `angle_to_spatial`, and the
  stack is `exp(sf[:, None] * ramp)`, then divided in place by sqrt(N);
- each term is `g_i * (a_r_i[:, None] * a_t_conj_i)` with the gain on the
  left (complex `o * g` and `g * o` differ in the last bit), added in path
  order to a zero matrix;
- the rows are C-contiguous (P, N) and (P, M) arrays. An (M, N, P) build
  summed over its last axis differs in the last bit on many draws.

tests/test_channel.py checks this against the per-path formula.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial


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

    @cached_property
    def _path_responses(self) -> tuple:
        """(a_r rows, conjugated a_t rows): row i is path i's receive / transmit response."""
        return _responses(self.aoas_deg, self.geometry_rx), _responses(self.aods_deg, self.geometry_tx).conj()

    def matrix(self) -> np.ndarray:
        """Materialize H = sum_i g_i a_r(psi_i) a_t(mu_i)^H."""
        rx_rows, tx_conj_rows = self._path_responses
        h = np.zeros((self.geometry_rx.num_elements, self.geometry_tx.num_elements), dtype=complex)
        for g, a_r, a_t_conj in zip(self.gains, rx_rows, tx_conj_rows):
            h += g * (a_r[:, None] * a_t_conj)
        return h

    @cached_property
    def matched_row(self) -> np.ndarray:
        """h_row = rx^H H, with the unit-norm combiner rx = a_r(psi_0) steered at the LOS arrival angle.

        Every transmit beam f is seen through this row.
        """
        h = self.matrix()  # first, so the path responses are built (and timed) inside matrix()
        row = self._path_responses[0][0].conj() @ h
        row.flags.writeable = False
        return row


def _responses(angles_deg, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm array responses stacked by row, shape (len(angles_deg), N).

    Row i is byte for byte `steering(angle_to_spatial(angles_deg[i], geom), geom)`.
    """
    ramp, norm = geom._steering_constants
    sf = np.array([angle_to_spatial(a, geom) for a in angles_deg])
    rows = np.exp(sf[:, None] * ramp)
    rows /= norm
    return rows


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
