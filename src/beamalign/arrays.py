"""Uniform linear array geometry, spatial frequencies, and steering vectors.

All angles at the API boundary are in degrees; everything internal works on
the spatial frequency 2*pi*(d/lambda)*sin(angle), in radians per element.
"""

import numpy as np
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class ArrayGeometry:
    """ULA with `num_elements` elements spaced `element_spacing` wavelengths apart."""

    num_elements: int
    element_spacing: float = 0.5  # d / lambda

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {self.num_elements}")
        if not self.element_spacing > 0:
            raise ValueError(f"element_spacing must be > 0, got {self.element_spacing}")

    @cached_property
    def spatial_limit(self) -> float:
        """Largest spatial frequency reachable by a physical angle, 2*pi*(d/lambda).

        Cached outside the dataclass fields, like `_steering_constants`.
        """
        return 2.0 * np.pi * self.element_spacing

    @cached_property
    def _steering_constants(self) -> tuple:
        """(1j * arange(N), sqrt(N)): the per-geometry constants of `steering`, the ramp read-only.

        Cached outside the dataclass fields, so equality and hashing are unchanged.
        """
        ramp = 1j * np.arange(self.num_elements)
        ramp.flags.writeable = False
        return ramp, np.sqrt(self.num_elements)


def angle_to_spatial(angle_deg, geom: ArrayGeometry):
    """Map an angle in degrees to its spatial frequency 2*pi*(d/lambda)*sin(angle).

    Accepts scalars or arrays; raises ValueError outside [-90, 90] degrees or for NaN.
    """
    a = np.asarray(angle_deg, dtype=float)
    if not np.all(np.abs(a) <= 90.0):  # NaN is out of range too
        raise ValueError(f"angle outside [-90, 90] degrees: {angle_deg}")
    sf = geom.spatial_limit * np.sin(np.radians(a))
    return float(sf) if np.isscalar(angle_deg) else sf


def spatial_to_angle(sf, geom: ArrayGeometry):
    """Inverse of angle_to_spatial, in degrees.

    Raises ValueError when |sf| exceeds the visible range 2*pi*(d/lambda) or is NaN,
    which signals an estimate outside visible space; callers clamp first.
    """
    lim = geom.spatial_limit
    if isinstance(sf, float):  # the per-estimate case; np.float64 is a float too
        if not abs(sf) <= lim:  # NaN is out of range too
            raise ValueError(f"spatial frequency outside visible range (+-{lim:.6g}): {sf}")
        # numpy's ufuncs, not math's, so the result matches the array path to
        # the bit: on an AVX-512 host math.asin differs from np.arcsin in the
        # last bit on 8.4% of 200k uniform inputs in [-1, 1].
        return float(np.degrees(np.arcsin(sf / lim)))
    s = np.asarray(sf, dtype=float)
    if not np.all(np.abs(s) <= lim):
        raise ValueError(f"spatial frequency outside visible range (+-{lim:.6g}): {sf}")
    a = np.degrees(np.arcsin(s / lim))
    return float(a) if np.isscalar(sf) else a


def steering(sf: float, geom: ArrayGeometry) -> np.ndarray:
    """Unit-norm array response: entry m is exp(j*m*sf)/sqrt(N)."""
    ramp, norm = geom._steering_constants
    return np.exp(ramp * sf) / norm


def steering_matrix(sfs, geom: ArrayGeometry) -> np.ndarray:
    """Stack steering vectors for a sequence of spatial frequencies, shape (N, len(sfs))."""
    n = geom.num_elements
    sfs = np.atleast_1d(np.asarray(sfs, dtype=float))
    return np.exp(1j * np.outer(np.arange(n), sfs)) / np.sqrt(n)

