import math

import numpy as np
import pytest

from beamalign import (
    ArrayGeometry,
    angle_to_spatial,
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


@pytest.mark.parametrize("spacing", [0.05, 0.5, 0.73, 1.0])
def test_spatial_limit_is_cached_without_touching_equality(spacing):
    fresh, read = ArrayGeometry(8, spacing), ArrayGeometry(8, spacing)
    assert read.spatial_limit == 2.0 * np.pi * spacing
    assert read.spatial_limit is read.spatial_limit  # computed once, then kept
    assert read == fresh and hash(read) == hash(fresh) and read != ArrayGeometry(9, spacing)


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
    for nan in (float("nan"), np.array([0.0, np.nan])):  # NaN is out of range on both paths
        with pytest.raises(ValueError, match="angle outside"):
            angle_to_spatial(nan, GEOM16)


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
    for nan in (float("nan"), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="visible range"):
            spatial_to_angle(nan, GEOM16)


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


@pytest.mark.parametrize("geom", [GEOM16, ArrayGeometry(7, 0.37)])
def test_scalar_paths_match_array_paths_bitwise(geom):
    # spatial_to_angle's float path skips asarray but keeps numpy's ufuncs:
    # math.asin differs from np.arcsin in the last bit on about 8% of inputs
    # on AVX-512 hosts. angle_to_spatial takes scalars through asarray too.
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


@pytest.mark.parametrize("n", [1, 3, 8, 16, 32, 64])
def test_steering_matches_direct_formula_bitwise(n):
    geom = ArrayGeometry(n)
    sfs = np.random.default_rng(n).uniform(-2.0 * np.pi, 2.0 * np.pi, 10_000).tolist()
    for sf in sfs:
        assert np.array_equal(steering(sf, geom), np.exp(1j * np.arange(n) * sf) / np.sqrt(n))


def test_steering_constant_is_read_only_and_not_a_field():
    geom = ArrayGeometry(8, 0.37)
    twin = ArrayGeometry(8, 0.37)
    before = hash(geom)
    steering(0.3, geom)
    ramp, _ = geom._steering_constants
    with pytest.raises(ValueError):
        ramp[0] = 1.0
    assert geom == twin and hash(geom) == hash(twin) == before
    assert geom != ArrayGeometry(8, 0.5)
