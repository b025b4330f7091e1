"""Single-path and Rician multipath MIMO channel realizations, each a block of draws.

A realization is the path arrays the caller has drawn (AoDs, AoAs and complex
gains, path 0 the dominant LOS path) with any Rician K-factor weight already
folded into the gains; nothing here consumes randomness. It holds T draws
along a leading trial axis: its path fields are (T, P) arrays, `matrix()` is
(T, M, N), the sum of rank-1 outer products g_i a_r(psi_i) a_t(mu_i)^H per
draw, and `matched_row` is (T, N), the receive row rx^H H that every
estimator sounds draw t through. Each is built once for the whole block. A
single draw is the block with T = 1: `make_*` promote scalar arguments to it.

The path responses are computed once per side, as one stacked array
(`_responses`), and the combiner rx is the receive response of path 0. Draw
t of a block is byte for byte the per-path build of that draw alone,
`h = zeros; h += g_i * np.outer(a_r_i, a_t_i.conj())`, then `rx.conj() @ h`
with every response from `arrays.steering`, because:

- the spatial frequencies come from `angle_to_spatial` on the whole (T, P)
  array, bitwise its value on each angle alone, and the stack is
  `exp(sf[..., None] * ramp)`, then divided in place by sqrt(N);
- each term is `g_i * (a_r_i[:, None] * a_t_conj_i)` with the gain on the
  left (complex `o * g` and `g * o` differ in the last bit), added in path
  order to a zero (T, M, N) array. A (T, M, N, P) build summed over its
  last axis differs in the last bit on many draws;
- the matched rows are one stacked `np.matmul(rx[:, None, :], H)`, which
  runs the vector-matrix product of each draw on its own;
- `make_*` form the stored gains elementwise by the scalar formula,
  `w_i * (g_i * sqrt(N_tot * M_tot))`, the real factors on the left.

tests/test_channel.py checks this against the per-path formula.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Drawn paths plus geometries for T draws; `matrix()` materializes the (T, M, N) channels.

    Path i of draw t departs at aods_deg[t, i] and arrives at aoas_deg[t, i]
    with complex amplitude gains[t, i]; path 0 is the LOS path. The
    realization keeps read-only (T, P) copies of its path arrays, and
    `trials` is T. `matched_row` is computed on first use and kept,
    read-only, for the life of the realization.
    """

    aods_deg: np.ndarray
    aoas_deg: np.ndarray
    gains: np.ndarray
    geometry_tx: ArrayGeometry
    geometry_rx: ArrayGeometry

    def __post_init__(self):
        for name, dtype in (("aods_deg", float), ("aoas_deg", float), ("gains", complex)):
            paths = np.array(getattr(self, name), dtype=dtype)
            paths.flags.writeable = False
            object.__setattr__(self, name, paths)
        aods, aoas, gains = self.aods_deg, self.aoas_deg, self.gains
        if not (aods.ndim == 2 and aods.shape == aoas.shape == gains.shape and aods.size):
            raise ValueError(f"need (T, P) AoD, AoA and gain arrays of one shape, at least one draw and "
                             f"one path; got {aods.shape}, {aoas.shape} and {gains.shape}")
        finite = np.isfinite(gains).all(axis=1)
        if not finite.all():
            t = int(finite.argmin())
            raise ValueError(f"path gains must be finite, got {tuple(gains[t].tolist())} in draw {t}")
        if not (np.all(np.abs(aods) <= 90.0) and np.all(np.abs(aoas) <= 90.0)):
            raise ValueError("path angles must lie in [-90, 90] degrees")

    @property
    def trials(self) -> int:
        return len(self.aods_deg)

    @property
    def aod_deg(self) -> np.ndarray:
        """Ground-truth departure angle of each draw's dominant (LOS) path, (T,)."""
        return self.aods_deg[:, 0]

    @cached_property
    def _path_responses(self) -> tuple:
        """(a_r stack, conjugated a_t stack): [t, i] is path i's receive / transmit response in draw t."""
        return _responses(self.aoas_deg, self.geometry_rx), _responses(self.aods_deg, self.geometry_tx).conj()

    def matrix(self) -> np.ndarray:
        """Materialize H = sum_i g_i a_r(psi_i) a_t(mu_i)^H for every draw, (T, M, N)."""
        rx_rows, tx_conj_rows = self._path_responses
        gains = self.gains
        h = np.zeros((len(gains), self.geometry_rx.num_elements, self.geometry_tx.num_elements),
                     dtype=complex)
        term = np.empty_like(h)  # one buffer for every path's term: no (T, M, N) temporaries per path
        for i in range(gains.shape[1]):
            np.multiply(rx_rows[:, i, :, None], tx_conj_rows[:, i, None, :], out=term)
            np.multiply(gains[:, i, None, None], term, out=term)
            h += term
        return h

    @cached_property
    def matched_row(self) -> np.ndarray:
        """h_row = rx^H H, with the unit-norm combiner rx = a_r(psi_0) steered at the LOS arrival angle.

        Every transmit beam f is seen through this row; (T, N), row t for draw t.
        """
        h = self.matrix()  # first, so the path responses are built (and timed) inside matrix()
        rx = self._path_responses[0][:, 0].conj()
        rows = np.matmul(rx[:, None, :], h)[:, 0]
        rows.flags.writeable = False
        return rows


def _responses(angles_deg: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm array responses, shape angles_deg.shape + (N,).

    Entry [t, i] is byte for byte `steering(angle_to_spatial(angles_deg[t, i], geom), geom)`.
    """
    ramp, norm = geom._steering_constants
    rows = np.exp(angle_to_spatial(angles_deg, geom)[..., None] * ramp)
    rows /= norm
    return rows


def make_single_path(aod_deg, aoa_deg, g, geometry_tx: ArrayGeometry,
                     geometry_rx: ArrayGeometry) -> ChannelRealization:
    """Rank-1 channels alpha * a_r(psi) a_t(mu)^H with alpha = g * sqrt(N_tot * M_tot).

    (T,) arrays give a block of T single-path draws; scalars give the block of one draw.
    """
    aod_deg, aoa_deg, g = (np.atleast_1d(x)[:, None] for x in (aod_deg, aoa_deg, g))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gain is rejected by the realization
        alpha = g.astype(complex) * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    return ChannelRealization(aod_deg, aoa_deg, alpha, geometry_tx, geometry_rx)


def make_rician(k_factor_db: float, aods_deg, aoas_deg, gains, geometry_tx: ArrayGeometry,
                geometry_rx: ArrayGeometry, nlos_normalized: bool = False) -> ChannelRealization:
    """Rician realizations from drawn paths: one LOS path plus L - 1 NLOS paths per draw.

    Path i of draw t departs at aods_deg[t, i] and arrives at aoas_deg[t, i];
    the caller draws the angles uniformly over their priors and the
    g_i ~ CN(0, 1). Its stored amplitude is w_i * g_i * sqrt(N_tot * M_tot),
    with the K-factor split w_0 = sqrt(K / (1 + K)) for the LOS path 0 and
    w_i = sqrt(1 / (1 + K)) for the NLOS paths, further divided by
    sqrt(L - 1) over L paths when `nlos_normalized`. (T, L) arrays give a
    block of T draws; (L,) sequences give the block of one draw.
    """
    aods_deg, aoas_deg, gains = np.atleast_2d(aods_deg, aoas_deg, np.asarray(gains, dtype=complex))
    num_paths = gains.shape[-1]
    k = 10.0 ** (k_factor_db / 10.0)
    nlos = math.sqrt(1.0 / (1.0 + k))
    if nlos_normalized and num_paths > 1:
        nlos /= math.sqrt(num_paths - 1)
    weights = np.array([math.sqrt(k / (1.0 + k))] + [nlos] * (num_paths - 1))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gain is rejected by the realization
        stored = weights * (gains * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements))
    return ChannelRealization(aods_deg, aoas_deg, stored, geometry_tx, geometry_rx)
