"""Single-path and Rician multipath MIMO channel realizations, one draw or a block of draws.

A realization is the path arrays the caller has drawn (AoDs, AoAs and complex
gains, path 0 the dominant LOS path) with any Rician K-factor weight already
folded into the gains; nothing here consumes randomness. The channel matrix
is materialized on demand as the sum of rank-1 outer products
g_i a_r(psi_i) a_t(mu_i)^H. The matched receive row rx^H H, which every
estimator sounds through, is formed once per realization.

A block realization holds T draws along a leading trial axis: its path fields
are (T, P) arrays, `matrix()` is (T, M, N) and `matched_row` is (T, N), each
built once for the whole block; row t is what estimators sound draw t
through. A one-draw realization (tuple path fields, an (M, N) `matrix()`, an
(N,) `matched_row`) is built as the block of one draw.

The path responses are computed once per side, as one stacked array
(`_responses`), and the combiner rx is the receive response of path 0. Draw
t of a block is byte for byte the per-path build of that draw alone,
`h = zeros; h += g_i * np.outer(a_r_i, a_t_i.conj())`, then `rx.conj() @ h`
with every response from `arrays.steering`, because:

- the spatial frequencies come from the array path of `angle_to_spatial`,
  bitwise its scalar path, and the stack is `exp(sf[..., None] * ramp)`,
  then divided in place by sqrt(N);
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arrays import ArrayGeometry, angle_to_spatial


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Drawn paths plus geometries; `matrix()` materializes the M x N channel.

    Path i departs at aods_deg[i] and arrives at aoas_deg[i] with complex
    amplitude gains[i]; path 0 is the LOS path. Given (T, P) path arrays, the
    realization is a block of `trials` = T draws, index [t, i] being path i of
    draw t, and keeps read-only copies of them; one draw has `trials` None.
    `matched_row` is computed on first use and kept, read-only, for the life
    of the realization.
    """

    aods_deg: tuple
    aoas_deg: tuple
    gains: tuple
    geometry_tx: ArrayGeometry
    geometry_rx: ArrayGeometry
    trials: "int | None" = field(init=False)

    def __post_init__(self):
        block = np.ndim(self.aods_deg) == 2
        object.__setattr__(self, "trials", len(self.aods_deg) if block else None)
        aods, aoas, gains = self._paths
        if not (aods.ndim == 2 and aods.shape == aoas.shape == gains.shape and aods.size):
            got = [np.shape(x) if block else len(x) for x in (self.aods_deg, self.aoas_deg, self.gains)]
            raise ValueError(f"need one AoD, AoA and gain per path, at least one path"
                             f"{' and one draw' if block else ''}; got {got[0]}, {got[1]} and {got[2]}")
        finite = np.isfinite(gains).all(axis=1)
        if not finite.all():
            t = int(finite.argmin())
            raise ValueError(f"path gains must be finite, got "
                             + (f"{tuple(gains[t].tolist())} in draw {t}" if block else f"{self.gains}"))
        if not (np.all(np.abs(aods) <= 90.0) and np.all(np.abs(aoas) <= 90.0)):
            raise ValueError("path angles must lie in [-90, 90] degrees")
        if block:
            for name, paths in zip(("aods_deg", "aoas_deg", "gains"), self._paths):
                object.__setattr__(self, name, paths)

    @cached_property
    def _paths(self) -> tuple:
        """(AoDs, AoAs, gains) as read-only (T, P) copies; one draw is the block with T = 1."""
        paths = tuple(np.array(x, dtype=dtype, ndmin=2) for x, dtype in
                      ((self.aods_deg, float), (self.aoas_deg, float), (self.gains, complex)))
        for p in paths:
            p.flags.writeable = False
        return paths

    @property
    def aod_deg(self):
        """Ground-truth departure angle of the dominant (LOS) path; (T,) for a block."""
        return self.aods_deg[0] if self.trials is None else self.aods_deg[:, 0]

    @cached_property
    def _path_responses(self) -> tuple:
        """(a_r stack, conjugated a_t stack): [t, i] is path i's receive / transmit response in draw t."""
        aods, aoas, _ = self._paths
        return _responses(aoas, self.geometry_rx), _responses(aods, self.geometry_tx).conj()

    def matrix(self) -> np.ndarray:
        """Materialize H = sum_i g_i a_r(psi_i) a_t(mu_i)^H: (M, N), or (T, M, N) for a block."""
        rx_rows, tx_conj_rows = self._path_responses
        gains = self._paths[2]
        h = np.zeros((len(gains), self.geometry_rx.num_elements, self.geometry_tx.num_elements),
                     dtype=complex)
        term = np.empty_like(h)  # one buffer for every path's term: no (T, M, N) temporaries per path
        for i in range(gains.shape[1]):
            np.multiply(rx_rows[:, i, :, None], tx_conj_rows[:, i, None, :], out=term)
            np.multiply(gains[:, i, None, None], term, out=term)
            h += term
        return h if self.trials is not None else h[0]

    @cached_property
    def matched_row(self) -> np.ndarray:
        """h_row = rx^H H, with the unit-norm combiner rx = a_r(psi_0) steered at the LOS arrival angle.

        Every transmit beam f is seen through this row; (T, N) for a block.
        """
        h = self.matrix()  # first, so the path responses are built (and timed) inside matrix()
        if self.trials is None:
            h = h[None]
        rx = self._path_responses[0][:, 0].conj()
        rows = np.matmul(rx[:, None, :], h)[:, 0]
        rows.flags.writeable = False
        return rows if self.trials is not None else rows[0]


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
    """Rank-1 channel alpha * a_r(psi) a_t(mu)^H with alpha = g * sqrt(N_tot * M_tot).

    Scalars give one draw; (T,) arrays give a block of T single-path draws.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gain is rejected by the realization
        alpha = np.asarray(g, dtype=complex) * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements)
    if alpha.ndim == 0:
        return ChannelRealization((float(aod_deg),), (float(aoa_deg),), (complex(alpha),),
                                  geometry_tx, geometry_rx)
    return ChannelRealization(np.asarray(aod_deg, dtype=float)[:, None], np.asarray(aoa_deg, dtype=float)[:, None],
                              alpha[:, None], geometry_tx, geometry_rx)


def make_rician(k_factor_db: float, aods_deg, aoas_deg, gains, geometry_tx: ArrayGeometry,
                geometry_rx: ArrayGeometry, nlos_normalized: bool = False) -> ChannelRealization:
    """Rician realization from drawn paths: one LOS path plus L - 1 NLOS paths.

    Path i departs at aods_deg[i] and arrives at aoas_deg[i]; the caller draws
    the angles uniformly over their priors and the g_i ~ CN(0, 1). Its stored
    amplitude is w_i * g_i * sqrt(N_tot * M_tot), with the K-factor split
    w_0 = sqrt(K / (1 + K)) for the LOS path 0 and w_i = sqrt(1 / (1 + K)) for
    the NLOS paths, further divided by sqrt(L - 1) over L paths when
    `nlos_normalized`. (L,) sequences give one draw; (T, L) arrays give a
    block of T draws, path i of draw t at index [t, i].
    """
    gains = np.asarray(gains, dtype=complex)
    num_paths = gains.shape[-1]
    k = 10.0 ** (k_factor_db / 10.0)
    nlos = math.sqrt(1.0 / (1.0 + k))
    if nlos_normalized and num_paths > 1:
        nlos /= math.sqrt(num_paths - 1)
    weights = np.array([math.sqrt(k / (1.0 + k))] + [nlos] * (num_paths - 1))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gain is rejected by the realization
        stored = weights * (gains * np.sqrt(geometry_tx.num_elements * geometry_rx.num_elements))
    if gains.ndim == 1:
        return ChannelRealization(tuple(map(float, aods_deg)), tuple(map(float, aoas_deg)),
                                  tuple(stored.tolist()), geometry_tx, geometry_rx)
    return ChannelRealization(aods_deg, aoas_deg, stored, geometry_tx, geometry_rx)
