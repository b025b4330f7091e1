import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    np.testing.assert_allclose(ch.matrix()[0], np.ones((2, 4)), atol=1e-14)


def test_single_path_frobenius_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = complex(rng.standard_normal(), rng.standard_normal())
        ch = make_single_path(rng.uniform(-90, 90), rng.uniform(-90, 90), g, TX8, RX4)
        alpha = g * np.sqrt(8 * 4)
        assert np.linalg.norm(ch.matrix()[0]) ** 2 == pytest.approx(abs(alpha) ** 2, rel=1e-12)


def test_single_path_rank_one():
    ch = make_single_path(33.0, -12.0, 0.7 + 0.2j, TX8, RX4)
    s = np.linalg.svd(ch.matrix()[0], compute_uv=False)
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
    with pytest.raises(ValueError, match=re.escape("got (1, 0), (1, 0) and (1, 0)")):
        make_rician(10.0, [], [], [], TX8, RX4)
    with pytest.raises(ValueError, match=re.escape("got (1, 2), (1, 1) and (1, 2)")):  # one AoA short
        make_rician(10.0, [0.0, 10.0], [5.0], [1.0, 1.0], TX8, RX4)


@pytest.mark.parametrize("build, shapes", [
    (lambda: make_single_path(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 2)), TX8, RX4),
     "(3, 1, 2), (3, 1, 2) and (3, 1, 2)"),
    (lambda: ChannelRealization(np.zeros((3, 2, 1)), np.zeros((3, 2, 1)), np.ones((3, 2, 1)), TX8, RX4),
     "(3, 2, 1), (3, 2, 1) and (3, 2, 1)"),
    (lambda: make_single_path(np.zeros(3), np.zeros(2), np.ones(3), TX8, RX4), "(3, 1), (2, 1) and (3, 1)"),
    (lambda: ChannelRealization([], [], [], TX8, RX4), "(0,), (0,) and (0,)"),
])
def test_malformed_block_names_its_shapes(build, shapes):
    with pytest.raises(ValueError, match=r"need \(T, P\) AoD, AoA and gain arrays of one shape.*; got "
                       + re.escape(shapes)):
        build()


def path_matrix(aod, aoa, alpha, tx, rx):
    """alpha * a_r(aoa) a_t(aod)^H from the half-wavelength ULA steering formula."""
    a_r = np.exp(1j * np.arange(rx.num_elements) * np.pi * np.sin(np.radians(aoa))) / np.sqrt(rx.num_elements)
    a_t = np.exp(1j * np.arange(tx.num_elements) * np.pi * np.sin(np.radians(aod))) / np.sqrt(tx.num_elements)
    return alpha * np.outer(a_r, a_t.conj())


def test_rician_large_k_is_los():
    aods, aoas, gains = drawn_paths(np.random.default_rng(21), 4)
    ch = make_rician(300.0, aods, aoas, gains, TX8, RX4)
    h_los = path_matrix(aods[0], aoas[0], gains[0] * np.sqrt(8 * 4), TX8, RX4)
    rel = np.linalg.norm(ch.matrix()[0] - h_los) / np.linalg.norm(h_los)
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
    assert np.max(np.abs(ch.matrix()[0] - ref)) < 1e-12


def per_path_build(aods, aoas, gains, tx, rx):
    """(H, rx^H H) of one draw's path lists from one `steering` call per path and side, summed path by path."""
    h = np.zeros((rx.num_elements, tx.num_elements), dtype=complex)
    for aod, aoa, g in zip(aods, aoas, gains):
        a_r = steering(angle_to_spatial(aoa, rx), rx)
        a_t = steering(angle_to_spatial(aod, tx), tx)
        h += g * np.outer(a_r, a_t.conj())
    rx_combiner = steering(angle_to_spatial(aoas[0], rx), rx)
    return h, rx_combiner.conj() @ h


def draw_build(block, t):
    """`per_path_build` on draw t's path lists."""
    return per_path_build(*(x[t].tolist() for x in (block.aods_deg, block.aoas_deg, block.gains)),
                          block.geometry_tx, block.geometry_rx)


def same_fields(one, block, t):
    """The T = 1 realization `one` holds draw t of `block`, to the bit."""
    pairs = zip((one.aods_deg, one.aoas_deg, one.gains), (block.aods_deg, block.aoas_deg, block.gains))
    return one.trials == 1 and all(a.tobytes() == b[t:t + 1].tobytes() for a, b in pairs)


ANGLES = st.floats(-90.0, 90.0)
CN_GAINS = st.builds(lambda re, im: complex(re, im) / np.sqrt(2.0),
                     st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
PATH_COUNTS = st.integers(1, 6)


@st.composite
def blocks(draw):
    """(aods, aoas, gains) as (T, P) arrays with T in [1, 8] and P in [1, 6]."""
    t, p = draw(st.integers(1, 8)), draw(PATH_COUNTS)
    rows = lambda elements: draw(st.lists(st.lists(elements, min_size=p, max_size=p), min_size=t, max_size=t))
    return np.array(rows(ANGLES)), np.array(rows(ANGLES)), np.array(rows(CN_GAINS), dtype=complex)


BAD_PATH_VALUES = st.sampled_from([(0, 90.5), (1, -91.0), (1, float("nan")), (2, float("inf")),
                                   (2, complex(0.0, float("nan")))])
SIGNED_ZERO_BLOCK = (np.zeros((2, 4)), np.zeros((2, 4)),
                     np.array([[0j] * 4, [0j, 1j, 1j, 2.5j]]) / np.sqrt(2.0))


@settings(max_examples=200, deadline=None)
@given(paths=blocks(), n=st.integers(1, 40), m=st.integers(1, 12),
       tx_spacing=st.floats(0.05, 1.0), rx_spacing=st.floats(0.05, 1.0),
       bad=st.tuples(st.integers(0, 7), st.integers(0, 5), BAD_PATH_VALUES))
@example(paths=SIGNED_ZERO_BLOCK, n=1, m=1, tx_spacing=1.0, rx_spacing=1.0, bad=(0, 0, (0, 90.5)))
def test_block_build_is_the_per_draw_build_byte_for_byte(paths, n, m, tx_spacing, rx_spacing, bad):
    """Every draw of a block, its path fields, matrix and matched row, equals the T = 1 block and
    the per-path build of that draw to the bit.

    A block with one out-of-range angle or one non-finite gain, in any draw,
    raises the same ValueError as the T = 1 block. The explicit example has zero gains, where
    a build summed over a path axis differs from the in-order sum in the sign
    of a zero.
    """
    tx, rx = ArrayGeometry(n, tx_spacing), ArrayGeometry(m, rx_spacing)
    block = ChannelRealization(*paths, tx, rx)
    h, rows = block.matrix(), block.matched_row
    assert block.trials == len(paths[0]) and h.shape == (block.trials, m, n) and rows.shape == (block.trials, n)
    for t in range(block.trials):
        one = ChannelRealization(*(x[t:t + 1] for x in paths), tx, rx)
        ref_h, ref_row = per_path_build(*(x[t].tolist() for x in paths), tx, rx)
        assert h[t].tobytes() == ref_h.tobytes()
        assert rows[t].tobytes() == ref_row.tobytes()
        assert same_fields(one, block, t)
        assert one.matched_row[0].tobytes() == ref_row.tobytes()
        assert one.matrix()[0].tobytes() == ref_h.tobytes()

    t, i, (field, value) = bad[0] % block.trials, bad[1] % paths[0].shape[1], bad[2]
    broken = [x.copy() for x in paths]
    broken[field][t, i] = value
    with pytest.raises(ValueError, match=r"path gains must be finite" if field == 2 else
                       r"path angles must lie in \[-90, 90\] degrees"):
        ChannelRealization(*broken, tx, rx)


def test_block_make_matches_one_draw_make_byte_for_byte():
    """Batched make_rician / make_single_path store and build what T calls on one draw each do.

    Draw t is given both as the T = 1 slice x[t:t + 1] and as its own (P,)
    paths or scalars, which `make_*` promote to the block of one draw.
    """
    aods, aoas, gains = drawn_paths(np.random.default_rng(8), 4, 300)
    for normalized in (False, True):
        block = make_rician(13.5, aods, aoas, gains, TX8, RX4, nlos_normalized=normalized)
        for t in range(len(gains)):
            ref_row = draw_build(block, t)[1]
            assert block.matched_row[t].tobytes() == ref_row.tobytes()
            for draw in ((x[t:t + 1] for x in (aods, aoas, gains)), (x[t] for x in (aods, aoas, gains))):
                one = make_rician(13.5, *draw, TX8, RX4, nlos_normalized=normalized)
                assert same_fields(one, block, t)
                assert one.matched_row[0].tobytes() == ref_row.tobytes()
    block = make_single_path(aods[:, 0], aoas[:, 0], gains[:, 0], TX8, RX4)
    for t in range(len(gains)):
        ref_row = draw_build(block, t)[1]
        assert block.matched_row[t].tobytes() == ref_row.tobytes()
        for draw in ((x[t:t + 1, 0] for x in (aods, aoas, gains)), (x[t, 0] for x in (aods, aoas, gains))):
            one = make_single_path(*draw, TX8, RX4)
            assert same_fields(one, block, t)
            assert one.matched_row.shape == (1, 8) and one.matched_row[0].tobytes() == ref_row.tobytes()
    np.testing.assert_array_equal(block.aod_deg, aods[:, 0])


def test_block_keeps_read_only_copies():
    aods, aoas, gains = drawn_paths(np.random.default_rng(5), 2, 3)
    block = make_rician(13.5, aods, aoas, gains, TX8, RX4)
    assert not block.matched_row.flags.writeable and not block.matched_row[0].flags.writeable
    assert not block.gains.flags.writeable
    aods[0, 0] = 99.0  # the block keeps its own copy of the validated draws
    assert block.aods_deg[0, 0] != 99.0


def test_single_path_is_rician_special_case():
    aods, aoas, gains = drawn_paths(np.random.default_rng(7), 1)
    rician = make_rician(300.0, aods, aoas, gains, TX8, RX4)
    direct = make_single_path(aods[0], aoas[0], gains[0], TX8, RX4)
    assert np.max(np.abs(rician.matrix() - direct.matrix())) < 1e-12


def test_rician_mean_power():
    # Monte Carlo oracle: E ||H||_F^2 = N*M*(K + L - 1)/(K + 1) for CN(0,1) gains
    k_db, n_paths, trials, chunk = 13.5, 4, 100_000, 10_000
    drawn = drawn_paths(np.random.default_rng(3), n_paths, trials)
    acc = 0.0
    for start in range(0, trials, chunk):  # blocks of 10k draws bound the (T, M, N) matrices
        ch = make_rician(k_db, *(x[start:start + chunk] for x in drawn), TX8, RX4)
        acc += np.sum(np.abs(ch.matrix()) ** 2)
    k = 10 ** (k_db / 10)
    predicted = 8 * 4 * (k + n_paths - 1) / (k + 1)
    assert acc / trials == pytest.approx(predicted, rel=0.02)


def test_nlos_normalization_option():
    aods, aoas, gains = drawn_paths(np.random.default_rng(12), 4)
    ch = make_rician(13.5, aods, aoas, gains, TX8, RX4, nlos_normalized=True)
    k = 10 ** (13.5 / 10)
    weights = ch.gains[0] / (gains * np.sqrt(8 * 4))
    assert weights[0] == pytest.approx(np.sqrt(k / (1 + k)))
    assert weights[1:] == pytest.approx(np.full(3, np.sqrt(1 / (1 + k)) / np.sqrt(3)))
