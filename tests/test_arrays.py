import math

import numpy as np
import pytest

from beamalign import (
    ArrayGeometry,
    angle_to_spatial,
    gain_kernel,
    spatial_to_angle,
    steering,
    steering_matrix,
)

GEOM16 = ArrayGeometry(16)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)
    with pytest.raises(ValueError):
        ArrayGeometry(8, element_spacing=0.0)
    assert GEOM16.spatial_limit == pytest.approx(np.pi)


def test_angle_to_spatial_known_points():
    assert angle_to_spatial(0.0, GEOM16) == 0.0
    assert angle_to_spatial(90.0, GEOM16) == pytest.approx(np.pi, abs=1e-12)
    # oracle: direct evaluation of pi * sin(50 deg)
    assert angle_to_spatial(50.0, GEOM16) == pytest.approx(
        math.pi * math.sin(math.radians(50.0)), abs=1e-12)


def test_angle_to_spatial_domain_error():
    with pytest.raises(ValueError):
        angle_to_spatial(90.5, GEOM16)
    with pytest.raises(ValueError):
        angle_to_spatial(-120.0, GEOM16)


def test_angle_to_spatial_odd_and_monotone():
    angles = np.linspace(-90.0, 90.0, 721)
    sf = angle_to_spatial(angles, GEOM16)
    assert np.allclose(sf, -angle_to_spatial(-angles, GEOM16), atol=1e-15)
    assert np.all(np.diff(sf) > 0)


def test_spatial_to_angle_known_points():
    assert spatial_to_angle(0.0, GEOM16) == 0.0
    assert spatial_to_angle(np.pi, GEOM16) == pytest.approx(90.0, abs=1e-9)
    sf50 = math.pi * math.sin(math.radians(50.0))
    assert spatial_to_angle(sf50, GEOM16) == pytest.approx(50.0, abs=1e-9)


def test_spatial_round_trip():
    rng = np.random.default_rng(11)
    angles = rng.uniform(-90.0, 90.0, 1000)
    for geom in (GEOM16, ArrayGeometry(7, 0.37)):
        back = angle_to_spatial(spatial_to_angle(angle_to_spatial(angles, geom), geom), geom)
        assert np.max(np.abs(back - angle_to_spatial(angles, geom))) < 1e-12


def test_spatial_to_angle_domain_error():
    with pytest.raises(ValueError):
        spatial_to_angle(np.pi * 1.0001, GEOM16)
    with pytest.raises(ValueError):
        spatial_to_angle(-4.0, GEOM16)


def test_steering_boresight():
    np.testing.assert_allclose(steering(0.0, ArrayGeometry(4)), 0.5 * np.ones(4), atol=1e-15)


def test_steering_half_turn():
    vec = steering(np.pi, ArrayGeometry(2))
    np.testing.assert_allclose(vec, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_steering_entry_formula():
    vec = steering(np.pi / 8, GEOM16)
    m = np.arange(16)
    np.testing.assert_allclose(vec, np.exp(1j * m * np.pi / 8) / 4.0, atol=1e-15)


def test_steering_unit_norm():
    rng = np.random.default_rng(5)
    for sf in rng.uniform(-np.pi, np.pi, 1000):
        n = int(rng.integers(1, 65))
        assert abs(np.linalg.norm(steering(sf, ArrayGeometry(n))) - 1.0) < 1e-12


def test_steering_matrix_columns():
    sfs = np.array([-1.0, 0.0, 0.4])
    mat = steering_matrix(sfs, GEOM16)
    assert mat.shape == (16, 3)
    for i, sf in enumerate(sfs):
        np.testing.assert_allclose(mat[:, i], steering(sf, GEOM16), atol=1e-15)


def test_gain_kernel_self():
    assert gain_kernel(0.7, 0.7, 16) == 1.0
    assert gain_kernel(0.3, 0.3 - 2 * np.pi, 8) == pytest.approx(1.0, abs=1e-9)


def test_gain_kernel_orthogonal():
    for n in (8, 16, 32):
        assert gain_kernel(2 * np.pi / n, 0.0, n) < 1e-20


def test_gain_kernel_matches_inner_product():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(2, 64))
        mu, nu = rng.uniform(-np.pi, np.pi, 2)
        geom = ArrayGeometry(n)
        direct = abs(np.vdot(steering(nu, geom), steering(mu, geom))) ** 2
        assert abs(gain_kernel(mu, nu, n) - direct) < 1e-10


def test_gain_kernel_vectorized():
    mus = np.linspace(-1, 1, 50)
    vec = gain_kernel(mus, 0.2, 16)
    scalar = np.array([gain_kernel(m, 0.2, 16) for m in mus])
    np.testing.assert_allclose(vec, scalar, atol=0)


@pytest.mark.parametrize("geom", [GEOM16, ArrayGeometry(7, 0.37)])
def test_scalar_paths_match_array_paths_bitwise(geom):
    # The float paths skip asarray but keep numpy's ufuncs: math.asin differs
    # from np.arcsin in the last bit on about 8% of inputs on AVX-512 hosts.
    rng = np.random.default_rng(2024)
    lim = geom.spatial_limit
    angles = np.concatenate([rng.uniform(-90.0, 90.0, 10_000), [-90.0, 90.0, 0.0, -0.0]])
    sfs = np.concatenate([rng.uniform(-lim, lim, 10_000), [-lim, lim, 0.0, -0.0]])
    for values, fn in ((angles, angle_to_spatial), (sfs, spatial_to_angle)):
        expected = fn(values, geom)
        for scalar in (values.tolist(), list(values)):  # Python floats, then np.float64
            got = np.array([fn(v, geom) for v in scalar])
            assert all(type(fn(v, geom)) is float for v in scalar[:10])
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("geom", [GEOM16, ArrayGeometry(7, 0.37)])
def test_scalar_paths_reject_just_beyond_the_edges(geom):
    lim = geom.spatial_limit
    for edge, fn in ((90.0, angle_to_spatial), (lim, spatial_to_angle)):
        for sign in (-1.0, 1.0):
            fn(sign * edge, geom)  # the edge itself is in range
            beyond = sign * np.nextafter(edge, np.inf)
            for value in (float(beyond), np.float64(beyond), np.array(beyond)):
                with pytest.raises(ValueError):
                    fn(value, geom)
