import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamalign import ArrayGeometry, angle_to_spatial, make_rician, make_single_path, steering
from beamalign.channel import ChannelRealization

TX4 = ArrayGeometry(4)
RX2 = ArrayGeometry(2)
TX8 = ArrayGeometry(8)
RX4 = ArrayGeometry(4)


def drawn_paths(rng, n_paths, trials=None):
    """AoDs over +-50 deg, AoAs over +-90 deg and CN(0, 1) gains, each (n_paths,) or (trials, n_paths)."""
    shape = n_paths if trials is None else (trials, n_paths)
    gains = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return rng.uniform(-50, 50, shape), rng.uniform(-90, 90, shape), gains


def test_single_path_boresight_is_all_ones():
    # hand evaluation: alpha = sqrt(8), a_r = ones/sqrt(2), a_t = ones/2
    ch = make_single_path(0.0, 0.0, 1.0, TX4, RX2)
    np.testing.assert_allclose(ch.matrix(), np.ones((2, 4)), atol=1e-14)


def test_single_path_frobenius_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = complex(rng.standard_normal(), rng.standard_normal())
        ch = make_single_path(rng.uniform(-90, 90), rng.uniform(-90, 90), g, TX8, RX4)
        alpha = g * np.sqrt(8 * 4)
        assert np.linalg.norm(ch.matrix()) ** 2 == pytest.approx(abs(alpha) ** 2, rel=1e-12)


def test_single_path_rank_one():
    ch = make_single_path(33.0, -12.0, 0.7 + 0.2j, TX8, RX4)
    s = np.linalg.svd(ch.matrix(), compute_uv=False)
    assert s[1] < 1e-12 * s[0]


def test_single_path_angle_validation():
    with pytest.raises(ValueError):
        make_single_path(95.0, 0.0, 1.0, TX4, RX2)
    with pytest.raises(ValueError, match="angles"):
        make_single_path(0.0, float("nan"), 1.0, TX4, RX2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan")),
                                 complex(float("-inf"), 1.0)])
def test_non_finite_gain_is_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        make_single_path(10.0, -5.0, bad, TX8, RX4)
    with pytest.raises(ValueError, match="finite"):
        make_rician(13.5, [10.0, 20.0], [-5.0, 30.0], [0.6 - 0.2j, bad], TX8, RX4)


def test_rician_requires_paths():
    with pytest.raises(ValueError):
        make_rician(10.0, [], [], [], TX8, RX4)
    with pytest.raises(ValueError):  # one AoA short
        make_rician(10.0, [0.0, 10.0], [5.0], [1.0, 1.0], TX8, RX4)


def path_matrix(aod, aoa, alpha, tx, rx):
    """alpha * a_r(aoa) a_t(aod)^H from the half-wavelength ULA steering formula."""
    a_r = np.exp(1j * np.arange(rx.num_elements) * np.pi * np.sin(np.radians(aoa))) / np.sqrt(rx.num_elements)
    a_t = np.exp(1j * np.arange(tx.num_elements) * np.pi * np.sin(np.radians(aod))) / np.sqrt(tx.num_elements)
    return alpha * np.outer(a_r, a_t.conj())


def test_rician_large_k_is_los():
    aods, aoas, gains = drawn_paths(np.random.default_rng(21), 4)
    ch = make_rician(300.0, aods, aoas, gains, TX8, RX4)
    h_los = path_matrix(aods[0], aoas[0], gains[0] * np.sqrt(8 * 4), TX8, RX4)
    rel = np.linalg.norm(ch.matrix() - h_los) / np.linalg.norm(h_los)
    assert rel < 1e-6


def test_rician_deterministic_given_stream():
    drawn_a = drawn_paths(np.random.default_rng(99), 4)
    drawn_b = drawn_paths(np.random.default_rng(99), 4)
    assert all(np.array_equal(x, y) for x, y in zip(drawn_a, drawn_b))
    a = make_rician(13.5, *drawn_a, TX8, RX4)
    b = make_rician(13.5, *drawn_b, TX8, RX4)
    assert np.array_equal(a.matrix(), b.matrix())
    assert np.array_equal(a.matched_row, b.matched_row)


def test_matrix_equals_independent_path_sum():
    aods, aoas, gains = drawn_paths(np.random.default_rng(4), 4)
    ch = make_rician(13.5, aods, aoas, gains, TX8, RX4)
    k = 10 ** (13.5 / 10)
    ref = np.zeros((4, 8), dtype=complex)
    for i in range(4):
        w = np.sqrt(k / (1 + k)) if i == 0 else np.sqrt(1 / (1 + k))
        ref += path_matrix(aods[i], aoas[i], w * gains[i] * np.sqrt(8 * 4), TX8, RX4)
    assert np.max(np.abs(ch.matrix() - ref)) < 1e-12


def per_path_build(ch):
    """(H, rx^H H) from one `steering` call per path and side, summed path by path."""
    tx, rx = ch.geometry_tx, ch.geometry_rx
    h = np.zeros((rx.num_elements, tx.num_elements), dtype=complex)
    for aod, aoa, g in zip(ch.aods_deg, ch.aoas_deg, ch.gains):
        a_r = steering(angle_to_spatial(aoa, rx), rx)
        a_t = steering(angle_to_spatial(aod, tx), tx)
        h += g * np.outer(a_r, a_t.conj())
    rx_combiner = steering(angle_to_spatial(ch.aoas_deg[0], rx), rx)
    return h, rx_combiner.conj() @ h


ANGLES = st.floats(-90.0, 90.0)
CN_GAINS = st.builds(lambda re, im: complex(re, im) / np.sqrt(2.0),
                     st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(paths=st.lists(st.tuples(ANGLES, ANGLES, CN_GAINS), min_size=1, max_size=6),
       n=st.integers(1, 40), m=st.integers(1, 12),
       tx_spacing=st.floats(0.05, 1.0), rx_spacing=st.floats(0.05, 1.0))
def test_stacked_build_is_the_per_path_build_byte_for_byte(paths, n, m, tx_spacing, rx_spacing):
    """matrix() and matched_row from the per-side response stacks equal the per-path sum to the bit."""
    aods, aoas, gains = zip(*paths)
    ch = ChannelRealization(aods, aoas, gains, ArrayGeometry(n, tx_spacing), ArrayGeometry(m, rx_spacing))
    h, row = per_path_build(ch)
    assert ch.matrix().tobytes() == h.tobytes()
    assert ch.matched_row.tobytes() == row.tobytes()


def test_single_path_is_rician_special_case():
    aods, aoas, gains = drawn_paths(np.random.default_rng(7), 1)
    rician = make_rician(300.0, aods, aoas, gains, TX8, RX4)
    direct = make_single_path(aods[0], aoas[0], gains[0], TX8, RX4)
    assert np.max(np.abs(rician.matrix() - direct.matrix())) < 1e-12


def test_rician_mean_power():
    # Monte Carlo oracle: E ||H||_F^2 = N*M*(K + L - 1)/(K + 1) for CN(0,1) gains
    k_db, n_paths, trials = 13.5, 4, 100_000
    acc = 0.0
    for aods, aoas, gains in zip(*drawn_paths(np.random.default_rng(3), n_paths, trials)):
        ch = make_rician(k_db, aods, aoas, gains, TX8, RX4)
        acc += np.linalg.norm(ch.matrix()) ** 2
    k = 10 ** (k_db / 10)
    predicted = 8 * 4 * (k + n_paths - 1) / (k + 1)
    assert acc / trials == pytest.approx(predicted, rel=0.02)


def test_nlos_normalization_option():
    aods, aoas, gains = drawn_paths(np.random.default_rng(12), 4)
    ch = make_rician(13.5, aods, aoas, gains, TX8, RX4, nlos_normalized=True)
    k = 10 ** (13.5 / 10)
    weights = np.array(ch.gains) / (gains * np.sqrt(8 * 4))
    assert weights[0] == pytest.approx(np.sqrt(k / (1 + k)))
    assert weights[1:] == pytest.approx(np.full(3, np.sqrt(1 / (1 + k)) / np.sqrt(3)))
