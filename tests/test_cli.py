import csv
import logging
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamalign import EstimatorSpec, ExperimentConfig, cli
from beamalign.cli import bundled_config, load_config, main
from beamalign.montecarlo import _MAX_BEAMS

TINY_CFG = """
[experiment]
n_tot = 16
m_tot = 8
trials = 60
master_seed = 424242
snr_grid_db = 0, 20

[channel]
kind = single_path

[estimators]
two_stage = 7
gob = 16
gob_abp = 16
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def test_load_config_defaults_and_values(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg.n_tot == 16
    assert cfg.trials == 60
    assert cfg.snr_grid_db == (0.0, 20.0)
    assert cfg.aod_prior_deg == (-50.0, 50.0)  # default
    assert [s.label for s in cfg.estimators] == ["two_stage_9", "gob_16", "gob_abp_16"]


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nn_total = 16\n")
    with pytest.raises(ValueError, match="n_total"):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[beams]\nk = 2\n")
    with pytest.raises(ValueError, match="beams"):
        load_config(path)


def test_load_config_snr_range_syntax(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("[experiment]\nsnr_grid_db = -10:2.5:35\n")
    cfg = load_config(path)
    assert len(cfg.snr_grid_db) == 19
    assert cfg.snr_grid_db[0] == -10.0 and cfg.snr_grid_db[-1] == 35.0


def test_bundled_configs_parse():
    labels = {}
    for name in ("fig3.cfg", "fig4.cfg", "fig5.cfg", "fig6.cfg"):
        cfg = load_config(bundled_config(name))
        assert cfg.trials == 10000
        labels[name] = [s.label for s in cfg.estimators]
    assert labels["fig3.cfg"] == ["two_stage_9", "two_stage_nonadequate_9"]
    assert labels["fig4.cfg"] == ["two_stage_9", "gob_16", "gob_abp_16"]
    assert labels["fig5.cfg"] == labels["fig6.cfg"] == [
        "two_stage_16", "gob_16", "gob_32", "gob_abp_16", "gob_abp_32"]
    # the channel-block bound admits the N = 256 overhead runs
    assert replace(load_config(bundled_config("fig6.cfg")), n_tot=256).n_tot == 256


# A non-default value for every ExperimentConfig field: field -> (section, key, text, value)
EVERY_FIELD = {
    "n_tot": ("experiment", "n_tot", "32", 32),
    "m_tot": ("experiment", "m_tot", "4", 4),
    "snr_grid_db": ("experiment", "snr_grid_db", "-5, 0, 7.5", (-5.0, 0.0, 7.5)),
    "trials": ("experiment", "trials", "12", 12),
    "aod_prior_deg": ("experiment", "aod_prior_deg", "-40, 30", (-40.0, 30.0)),
    "aoa_prior_deg": ("experiment", "aoa_prior_deg", "-60, 45.5", (-60.0, 45.5)),
    "channel_kind": ("channel", "kind", "rician", "rician"),
    "estimators": ("estimators", "gob_abp", "8, 12",
                   (EstimatorSpec("gob_abp", 8), EstimatorSpec("gob_abp", 12))),
    "master_seed": ("experiment", "master_seed", "99", 99),
    "n_rf": ("experiment", "n_rf", "3", 3),
    "k_factor_db": ("channel", "k_factor_db", "7.25", 7.25),
    "num_paths": ("channel", "num_paths", "3", 3),
    "nonadequate_k": ("experiment", "nonadequate_k", "1.25", 1.25),
    "nlos_normalized": ("channel", "nlos_normalized", "yes", True),
    "tx_spacing": ("experiment", "tx_spacing", "0.45", 0.45),
    "rx_spacing": ("experiment", "rx_spacing", "0.4", 0.4),
}


def test_load_config_round_trips_every_field(tmp_path):
    assert set(EVERY_FIELD) == {f.name for f in fields(ExperimentConfig)}
    sections = {}
    for section, key, text, _ in EVERY_FIELD.values():
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    path = tmp_path / "every.cfg"
    path.write_text("".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items()))
    cfg = load_config(path)
    default = ExperimentConfig()
    for name, (_, _, _, value) in EVERY_FIELD.items():
        assert getattr(default, name) != value, name
        assert getattr(cfg, name) == value, name
    # the channel keys, under either name, belong to [channel] only
    for key in ("kind", "channel_kind", "k_factor_db", "num_paths", "nlos_normalized"):
        path.write_text(f"[experiment]\n{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[experiment\\]"):
            load_config(path)


def test_load_config_echoes_every_field(tiny_config, caplog):
    with caplog.at_level(logging.INFO, logger="beamalign"):
        load_config(tiny_config)
    echoed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("config: ")]
    assert len(echoed) == len(fields(ExperimentConfig))
    assert "config: trials = 60" in echoed
    assert "config: channel_kind = 'single_path'" in echoed
    assert "config: aod_prior_deg = (-50.0, 50.0) (default)" in echoed


# every case fails in load_config, before main could run it
SMALL_RUN = "[experiment]\n"


@pytest.mark.parametrize("extra, key", [
    ("[estimators]\ngob = 0\n", "gob"),
    ("aod_prior_deg = -90, 90\n[estimators]\ngob_abp = 2\n", "gob_abp"),  # half width pi/2
    ("aod_prior_deg = -90, 90\n[estimators]\ntwo_stage = 1\n", "two_stage"),  # half width pi
    ("tx_spacing = 0.8\n", "tx_spacing"),  # the +-50 deg span exceeds 2*pi
    ("snr_grid_db = 10:1:5\n", "snr_grid_db"),  # stop below start: no SNR points
    ("n_tot = 0\n", "n_tot"),
    ("m_tot = 0\n", "m_tot"),
    ("tx_spacing = 0\n", "tx_spacing"),
    ("rx_spacing = -0.5\n", "rx_spacing"),
    ("n_tot = 3\n[estimators]\ntwo_stage = 3\n", "two_stage"),  # pi/3: no out-of-band sample at N=3
    ("n_rf = 4\n", "n_rf"),  # widebeam offsets come in pairs: n_rf must be odd
    ("n_rf = 0\n[estimators]\ngob = 16\n", "n_rf"),  # rejected even with no widebeam to synthesize
    ("trials = 4294967297\n", "trials"),  # 19 SNR points x 3 entries: far above the errors-array bound
    # 2 SNR points x 2**32 trials x 1 entry is a 64 GiB errors array: over the 2**28-value bound
    ("trials = 4294967296\nsnr_grid_db = 0, 20\n[estimators]\ngob = 16\n", "trials"),
    # 10 ** (x / 10) overflows, or the value is not a number of dB at all
    ("trials = 3\n[channel]\nkind = rician\nk_factor_db = 4000\n", "k_factor_db"),
    ("trials = 3\nsnr_grid_db = 0, 4000\n", "snr_grid_db"),
    ("trials = 3\n[channel]\nkind = rician\nk_factor_db = inf\n", "k_factor_db"),
    # snr * n_tot * m_tot above 1e300 overflows the sounding powers |y|**2
    ("trials = 3\nsnr_grid_db = 0, 3075\n", "snr_grid_db"),
    ("aod_prior_deg = 0, 5e-324\n[estimators]\ngob = 16\n", "aod_prior_deg"),  # zero spatial width
    ("aod_prior_deg = 0, 1e-181\n[estimators]\ngob_abp = 2\n", "gob_abp"),  # sin(half)**2 underflows
    # one ulp wide: adjacent boresights round to one value, a pair half width of 0
    ("aod_prior_deg = 30, 30.000000000000004\n[estimators]\ngob_abp = 16\n", "gob_abp"),
    # delta_scale * k * pi / N is not positive and finite for the non-adequate entry
    ("nonadequate_k = 0\n[estimators]\ntwo_stage_nonadequate = 7\n", "nonadequate_k"),
    ("nonadequate_k = -1\n[estimators]\ntwo_stage_nonadequate = 7\n", "nonadequate_k"),
    ("nonadequate_k = nan\n[estimators]\ntwo_stage_nonadequate = 7\n", "nonadequate_k"),
    ("nonadequate_k = inf\n[estimators]\ntwo_stage_nonadequate = 7\n", "nonadequate_k"),
    ("snr_grid_db = 0, 0\n", "snr_grid_db"),
    ("aod_prior_deg = 10, -10\n", "aod_prior_deg"),
    ("aoa_prior_deg = -95, 10\n", "aoa_prior_deg"),
    ("[estimators]\n", "estimators"),
    # estimator counts above the one bound, rejected before any codebook or noise draw is sized
    ("[estimators]\ntwo_stage = 1" + "0" * 400 + "\n", "two_stage"),  # too large for a float
    ("[estimators]\ngob = 1" + "0" * 30 + "\n", "gob"),
    ("[estimators]\ngob_abp = 1" + "0" * 30 + "\n", "gob_abp"),
    (f"[estimators]\ngob = {_MAX_BEAMS + 1}\n", "gob"),
    # a channel block's (500, m_tot, n_tot) matrix or (500, num_paths, n_tot + m_tot) responses above 2**24 values
    ("n_tot = 1000000000000\n", "n_tot"),
    ("n_tot = 1" + "0" * 400 + "\n", "n_tot"),  # too large for a float
    ("m_tot = 1000000000000\n", "m_tot"),
    ("n_tot = 4195\nm_tot = 8\n", "n_tot"),  # 500 x 8 x 4195 = 16780000, just above 2**24
    ("trials = 3\n[channel]\nkind = rician\nnum_paths = 1000000000000\n", "num_paths"),
    ("n_tot = 256\n[channel]\nkind = rician\nnum_paths = 128\n", "num_paths"),  # 500 x 128 x 264
], ids=["gob-zero", "gob_abp-half-pi", "two_stage-pi", "tx_spacing-aliased", "empty-snr-grid",
        "n_tot-zero", "m_tot-zero", "tx_spacing-zero", "rx_spacing-negative", "two_stage-no-sidelobe",
        "n_rf-even", "n_rf-zero-without-two-stage", "trials-beyond-uint32", "trials-errors-beyond-2GiB",
        "k_factor-overflow", "snr-overflow", "k_factor-inf", "snr-sounding-overflow",
        "aod-prior-zero-width", "gob_abp-half-width-underflow", "gob_abp-one-ulp-prior",
        "nonadequate_k-zero", "nonadequate_k-negative", "nonadequate_k-nan", "nonadequate_k-inf",
        "snr-grid-repeated", "aod-prior-reversed", "aoa-prior-beyond-90", "no-estimators",
        "two_stage-beyond-float", "gob-1e30", "gob_abp-1e30", "gob-above-bound",
        "n_tot-1e12", "n_tot-beyond-float", "m_tot-1e12", "n_tot-above-block-bound", "num_paths-1e12",
        "num_paths-above-block-bound"])
def test_run_rejects_unrunnable_config_at_load(tmp_path, caplog, extra, key):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_RUN + extra)
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        load_config(path)
    out = tmp_path / "x.csv"
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert key in caplog.text
    assert not out.exists()


def test_run_rejects_non_utf8_config(tmp_path, caplog):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(TINY_CFG.replace("[channel]", "# caf\xe9\n[channel]").encode("latin-1"))
    out = tmp_path / "x.csv"
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in caplog.text and "utf-8" in caplog.text
    assert not out.exists()


def test_run_command(tiny_config, tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["estimator", "snr_db", "mean_abs_error_deg",
                       "std_error_deg", "trials", "soundings"]
    body = rows[1:]
    assert len(body) == 6
    assert {r[0] for r in body} == {"two_stage_9", "gob_16", "gob_abp_16"}
    assert {r[5] for r in body} == {"9", "16"}
    summary = capsys.readouterr().out
    assert summary.count("soundings=") == 3


def test_run_command_worker_invariance(tiny_config, tmp_path):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(["run", "--config", str(tiny_config), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["run", "--config", str(tiny_config), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_command_seed_override(tiny_config, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(tiny_config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(tiny_config), "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    assert "# master_seed = 7" in out2.read_text()


def test_run_command_exit_codes(tiny_config, tmp_path, caplog):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nwrong_key = 3\n")
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert "wrong_key" in caplog.text
    assert main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 4
    assert main(["run", "--config", str(tiny_config),
                 "--out", str(tmp_path / "nodir" / "x.csv")]) == 4


def test_pattern_command(tmp_path):
    out = tmp_path / "pattern.csv"
    assert main(["pattern", "--n-tot", "16", "--n-rf", "5", "--boresight-deg", "0",
                 "--half-width-k", "2", "--grid-points", "1024", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1024
    powers = np.array([float(r["power_linear"]) for r in rows])
    angles = np.array([float(r["angle_deg"]) for r in rows])
    sfs = np.array([float(r["spatial_freq_rad"]) for r in rows])
    step = 2 * np.pi / 1024
    assert abs(sfs[np.argmax(powers)]) <= step + 1e-12
    assert abs(angles[np.argmax(powers)]) < 1.0
    # in-band ripple of the adequate k=2 beam stays within 3 dB
    in_band = powers[np.abs(sfs) <= 2 * np.pi / 16]
    assert in_band.min() >= 0.5 * in_band.max()


def test_pattern_command_nonadequate_gate(tmp_path, caplog):
    out = tmp_path / "pattern.csv"
    args = ["pattern", "--half-width-k", "1", "--delta-scale", "1.5", "--out", str(out)]
    assert main(args) == 2
    with caplog.at_level(logging.WARNING):
        assert main(args + ["--allow-nonadequate"]) == 0
    assert "non-adequate" in caplog.text
    assert out.exists()


def test_pattern_command_rejects_bad_k(tmp_path):
    assert main(["pattern", "--half-width-k", "0", "--out", str(tmp_path / "p.csv")]) == 2


@pytest.mark.parametrize("points", ["0", "-3"])
def test_pattern_rejects_grid_points_below_one(tmp_path, caplog, monkeypatch, points):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(cli, "synthesize_widebeam", no_synthesis)
    out = tmp_path / "p.csv"
    with caplog.at_level(logging.ERROR):
        assert main(["pattern", "--grid-points", points, "--out", str(out)]) == 2
    assert "--grid-points" in caplog.text
    assert not out.exists()


def test_codebook_command(tmp_path):
    out = tmp_path / "codebook.csv"
    assert main(["codebook", "--n-tot", "16", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 8  # header + 7 beams
    assert all(r[3] == "2" for r in rows[1:])


def test_codebook_command_explicit_beams(tmp_path):
    out = tmp_path / "codebook32.csv"
    assert main(["codebook", "--n-tot", "32", "--num-beams", "14", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 15


def test_codebook_command_nonadequate_gate(tmp_path):
    out = tmp_path / "cb.csv"
    args = ["codebook", "--n-tot", "16", "--k", "1", "--delta-scale", "1.5",
            "--num-beams", "7", "--out", str(out)]
    assert main(args) == 2
    assert main(args + ["--allow-nonadequate"]) == 0
    rows = read_rows(out)
    assert rows[1][3] == ""  # no adequacy integer for the scaled half width


@pytest.mark.parametrize("args, flag", [
    (["codebook", "--n-tot", "16", "--k", "14"], "--k"),
    (["codebook", "--n-tot", "16", "--k", "16"], "--k"),
    (["pattern", "--n-tot", "16", "--half-width-k", "14"], "--half-width-k"),
], ids=["codebook-k14", "codebook-k16", "pattern-k14"])
def test_half_width_without_out_of_band_sample_exits_2(tmp_path, caplog, args, flag):
    out = tmp_path / "x.csv"
    with caplog.at_level(logging.ERROR):
        assert main(args + ["--out", str(out)]) == 2
    assert f"{flag}: half width" in caplog.text
    assert "below pi - 2*pi/N" in caplog.text
    assert not out.exists()


def test_codebook_nonadequate_gate_precedes_synthesis(tmp_path, caplog):
    # k = 13 fails synthesis (exit 3) but the scaled half width is gated first
    out = tmp_path / "x.csv"
    with caplog.at_level(logging.ERROR):
        assert main(["codebook", "--n-tot", "16", "--k", "13", "--delta-scale", "1.01",
                     "--out", str(out)]) == 2
    assert "--allow-nonadequate" in caplog.text
    assert not out.exists()


def test_codebook_synthesis_failure_exits_3(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["codebook", "--n-tot", "16", "--k", "13", "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (["codebook", "--n-tot", "16", "--k", "2", "--delta-scale", "0", "--allow-nonadequate"],
     "delta_scale = 0.0"),
    (["codebook", "--k", "0"], "k = 0"),
    (["codebook", "--delta-scale", "inf", "--allow-nonadequate"], "delta_scale = inf"),
    (["codebook", "--delta-scale", "nan"], "delta_scale = nan"),
    (["pattern", "--delta-scale", "inf", "--allow-nonadequate"], "--delta-scale: half width"),
    (["pattern", "--delta-scale", "0"], "--delta-scale: half width"),
    (["pattern", "--n-tot", "0"], "--n-tot must be >= 1, got 0"),
    (["codebook", "--n-tot", "0"], "--n-tot must be >= 1, got 0"),
    (["pattern", "--boresight-deg", "nan"], "angle outside [-90, 90] degrees: nan"),
    (["codebook", "--span-lo-deg", "nan"], "angle outside [-90, 90] degrees: nan"),
    (["codebook", "--delta-scale", "1e-300", "--allow-nonadequate"], "delta_scale = 1e-300"),
    (["codebook", "--n-tot", "16", "--delta-scale", "0.05", "--allow-nonadequate"], "delta_scale = 0.05"),
    (["codebook", "--n-tot", "64", "--k", "1", "--delta-scale", "0.5"], "k = 1, delta_scale = 0.5"),
    (["codebook", "--delta-scale", "5e-324", "--allow-nonadequate"], "delta_scale = 5e-324"),
    (["codebook", "--span-lo-deg", "0", "--span-hi-deg", "-1", "--k", "3", "--delta-scale", "5e-324"],
     "empty span"),
], ids=["codebook-delta-scale-0", "codebook-k0", "codebook-delta-scale-inf", "codebook-delta-scale-nan",
        "pattern-delta-scale-inf", "pattern-delta-scale-0", "pattern-n-tot-0", "codebook-n-tot-0",
        "pattern-boresight-nan", "codebook-span-nan",
        "codebook-1e-300-beams", "codebook-123-beams", "codebook-99-beams", "codebook-subnormal-delta",
        "codebook-reversed-span"])
def test_bad_half_width_or_angle_exits_2(tmp_path, caplog, args, named):
    out = tmp_path / "x.csv"
    with caplog.at_level(logging.ERROR):
        assert main(args + ["--out", str(out)]) == 2
    assert named in caplog.text
    assert not out.exists()


# Floats a user can type, edge values included. A finite positive
# delta_scale is drawn from (0, 2], subnormals included: the beam count
# `codebook` derives grows as 1/delta_scale, and a count above N exits 2
# with `k` and `delta_scale` named.
EDGE_FLOATS = st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")])
ANGLES = st.one_of(EDGE_FLOATS, st.floats(-120.0, 120.0))
SMALL_INTS = st.integers(-2, 20)
SHARED_FLAGS = {"n-tot": st.integers(-1, 64), "n-rf": st.sampled_from([1, 3, 4, 5]),
                "delta-scale": st.one_of(EDGE_FLOATS, st.floats(0.0, 2.0, exclude_min=True)),
                "allow-nonadequate": st.booleans()}
COMMAND_FLAGS = {
    "codebook": {**SHARED_FLAGS, "span-lo-deg": ANGLES, "span-hi-deg": ANGLES,
                 "num-beams": st.none() | st.integers(-1, 40), "k": st.none() | SMALL_INTS},
    "pattern": {**SHARED_FLAGS, "boresight-deg": ANGLES, "half-width-k": SMALL_INTS,
                "grid-points": st.integers(-1, 2048)},
}


@st.composite
def flag_sets(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in COMMAND_FLAGS[command].items():
        value = draw(st.none() | values)  # None: leave the flag at its default
        if value is True:
            argv.append(f"--{flag}")
        elif value is not None and value is not False:
            argv.append(f"--{flag}={value!r}")  # the = form keeps '-inf' from reading as a flag
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=flag_sets())
def test_cli_flags_exit_by_name_and_write_no_nan(argv, tmp_path_factory):
    """Any codebook/pattern flag set exits 0, 2 or 3, never with an uncaught error, and writes no NaN."""
    out = tmp_path_factory.mktemp("cli") / "out.csv"
    assert main(argv + ["--out", str(out)]) in (0, 2, 3)
    if out.exists():
        assert "nan" not in out.read_text().lower()
