import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beamalign import beams, estimators, montecarlo
from beamalign import (
    ErrorCurve,
    EstimatorSpec,
    ExperimentConfig,
    SynthesisError,
    config_digest,
    run_sweep,
    write_results_csv,
)
from beamalign.channel import ChannelRealization
from beamalign.cli import bundled_config, load_config
from beamalign.montecarlo import _TRIAL_BLOCK, _block_errors, _run_block, _stream, _workspace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # the benchmark's modules import their siblings by name
import checks as bench_checks  # noqa: E402
import run as bench_run  # noqa: E402

sys.path.pop(0)


def small_config(**overrides):
    base = dict(
        n_tot=16,
        m_tot=8,
        snr_grid_db=(0.0, 20.0),
        trials=200,
        estimators=(EstimatorSpec("two_stage", 7),
                    EstimatorSpec("gob", 16),
                    EstimatorSpec("gob_abp", 16)),
        master_seed=555,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_estimator_spec_labels():
    assert EstimatorSpec("two_stage", 7).soundings == 9
    assert EstimatorSpec("two_stage", 7).label == "two_stage_9"
    assert EstimatorSpec("gob", 16).soundings == 16
    assert EstimatorSpec("two_stage_nonadequate", 7).label == "two_stage_nonadequate_9"
    with pytest.raises(ValueError):
        EstimatorSpec("music", 16)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(aod_prior_deg=(50.0, -50.0))
    with pytest.raises(ValueError):
        small_config(channel_kind="rayleigh")
    with pytest.raises(ValueError):
        small_config(estimators=())
    with pytest.raises(ValueError):
        small_config(master_seed=-1)
    # half width pi/3 leaves no out-of-band sample at N=3, which only a synthesized widebeam needs
    with pytest.raises(ValueError, match="two_stage = 3: half width"):
        small_config(n_tot=3, n_rf=3, estimators=(EstimatorSpec("two_stage", 3),))
    assert small_config(n_tot=3, n_rf=1, estimators=(EstimatorSpec("two_stage", 3),)).n_rf == 1
    # run_sweep's errors array (2 SNR points x trials x 3 entries) bounds trials; nothing is allocated here
    largest = montecarlo._MAX_ERROR_VALUES // (2 * 3)
    assert small_config(trials=largest).trials == largest
    with pytest.raises(ValueError, match=r"trials = 44739243 .*\(2 GiB"):
        small_config(trials=largest + 1)
    with pytest.raises(ValueError, match="trials"):
        small_config(trials=2 ** 32 + 1)
    # one bound on every estimator count, checked before any codebook is built
    assert small_config(estimators=(EstimatorSpec("gob", montecarlo._MAX_BEAMS),)).estimators
    with pytest.raises(ValueError, match=r"gob_abp: beams must be <= \d+"):
        small_config(estimators=(EstimatorSpec("gob_abp", montecarlo._MAX_BEAMS + 1),))


def test_run_trial_is_deterministic():
    cfg = small_config()
    ws = _workspace(cfg)
    a = _block_errors(ws, cfg, 0, 0, 10)
    assert np.array_equal(_block_errors(ws, cfg, 0, 0, 10), a)
    assert np.array_equal(_run_block((cfg, 0, 0, 8))[2], a[:8])  # a shorter run of the block: its first rows


def test_run_trial_two_stage_high_snr_is_exact():
    cfg = small_config(snr_grid_db=(1000.0,), trials=50)
    _, _, errs = _run_block((cfg, 0, 0, 50))
    assert cfg.estimators[0].label == "two_stage_9"
    assert errs[:, 0].max() < 1e-4


def test_common_random_numbers_share_channel():
    # two identical estimator entries differ only in their noise domain; at an
    # effectively noiseless SNR they must produce identical errors, which can
    # only happen when both see the same channel draw
    cfg = small_config(snr_grid_db=(1000.0,),
                       estimators=(EstimatorSpec("gob", 16), EstimatorSpec("gob", 16)))
    errs = _block_errors(_workspace(cfg), cfg, 0, 0, 20)
    assert np.array_equal(errs[:, 0], errs[:, 1])


def test_estimator_entry_streams_are_stable_across_sets():
    # channel and noise streams depend only on (seed, entry index, snr, block),
    # so estimator A at entry 0 sees identical draws regardless of other entries
    cfg_pair = small_config()
    cfg_solo = small_config(estimators=(EstimatorSpec("two_stage", 7),))
    solo = _block_errors(_workspace(cfg_solo), cfg_solo, 1, 0, 4)  # SNR index 1 is 20 dB, trials 0-3
    assert np.array_equal(_block_errors(_workspace(cfg_pair), cfg_pair, 1, 0, 4)[:, 0], solo[:, 0])


# _block_errors for trials 0-19 of fig4 (single path) and fig6 (Rician) at
# SNR indices 4 and 16 (0 and 30 dB), one column per estimator entry, under
# seeding contract v2. Any change to the order of the channel or
# sounding-noise draws moves them.
PINNED_TRIAL_ERRORS = {
    ("fig4.cfg", 4): [
        [0.13832082717796723, 2.712838931465411, 0.03845234706370704],
        [0.20813844771218726, 0.37289932320779684, 2.179477081565423],
        [0.963816882080323, 0.4721471337713403, 1.5918285140839536],
        [91.74904863741511, 3.705364456372166, 6.740483489020782],
        [0.13505086004393974, 3.1043217507939076, 0.5834541381797678],
        [1.163311378284515, 2.4286122336690497, 0.3857922602377428],
        [8.548549412329065, 22.816636375256003, 15.905191351855072],
        [2.889260058067091, 0.7229229264120534, 0.7855935186589509],
        [0.0007205088690831474, 3.0043785446085316, 0.14475624766953032],
        [0.26653134719515403, 1.6248044250556557, 0.6948877855326758],
        [0.14834003115083405, 1.023594834140603, 0.672489985856922],
        [0.4373248301358643, 1.0343340102009897, 1.028343836805007],
        [1.614415182560137, 2.799512948038874, 3.8161001700857398],
        [0.4500253289544034, 2.9871485766136328, 0.07708395000884138],
        [0.5239415855149865, 2.097858721030134, 0.25639309210660866],
        [1.1848347617133292, 0.7819650252936281, 1.162260040481021],
        [0.6824067326100689, 1.192340504639061, 0.49787400392489634],
        [1.8008897601286051, 0.6475242732056818, 0.8701122371780299],
        [2.427137962064485, 54.729378467705914, 1.2383199534598788],
        [1.2127251724156878, 2.3936144247383204, 0.0545774808152828],
    ],
    ("fig4.cfg", 16): [
        [0.09877191935937901, 1.2354951952857434, 1.2085774022922138],
        [0.1621629584484836, 1.9352006697523834, 0.7414429666781075],
        [0.025069880059223948, 1.4992269394943278, 0.7630460931073166],
        [0.02063503660808408, 1.4109279621978104, 2.2150132537192917],
        [0.03432687305344473, 2.502928904011128, 0.6135818566156956],
        [0.16892831808667097, 0.8796049471977092, 0.9881624158663165],
        [0.03073928721250141, 1.6519724328870815, 0.6268497955997034],
        [0.02512333351184104, 0.4022236578924332, 1.072874191842228],
        [0.026121804070740495, 2.3469476603378263, 0.1838698489977606],
        [0.02807965818629432, 1.0695325670201692, 0.7609194361541469],
        [0.060502118326784426, 2.5330847662301004, 0.24870280868795547],
        [0.025154818207269614, 1.8884286976596378, 0.4581056127789509],
        [0.03359849505034873, 1.5103714566382465, 2.225634524738531],
        [0.0069173786525595915, 0.9001397329082952, 0.8517359700680984],
        [0.01947511710793748, 1.931301525682045, 0.41970345508056894],
        [0.04526657759018926, 1.2011814533985836, 0.707624690385952],
        [0.009213867028400102, 1.578225497903837, 0.6251173318946677],
        [0.037528650954373965, 2.4661271146738963, 0.1587331621917345],
        [0.10116902257562543, 3.2209127870705316, 0.17242992099384935],
        [0.0389837988513384, 1.4989731772247543, 0.5640896731190447],
    ],
    ("fig6.cfg", 4): [
        [0.009151019950475181, 2.5173725640651634, 1.1432790456855084, 0.6622312019908181, 0.0959743704454068],
        [0.19387805987273854, 2.193506527307812, 0.8194130089281568, 3.1766545898541327, 0.32388156754965713],
        [0.10956617775940458, 0.0023746123524297502, 1.5275039523322356, 0.7828886528812298, 0.22899050213933947],
        [0.16878674097767288, 1.3991433548618417, 0.11146764540991683, 0.7100518707349295, 0.8184292405050506],
        [18.39749995372978, 1.094124827018411, 3.021847213618142, 3.5344901753736044, 1.088247915514456],
        [0.9748393936952908, 1.1144749220160506, 0.823135836991284, 0.5525413762027398, 0.40164757608566504],
        [0.11333595342899372, 1.7983504941070567, 0.3898047353365115, 1.417536461414329, 0.33608841875324735],
        [1.1512297354692151, 0.47518970844605946, 1.4624210505612751, 1.1665567345065995, 0.24721592539335546],
        [0.3652613237272515, 0.3754258135456876, 1.0082523039975362, 0.7946909666737589, 0.017775334962899514],
        [0.29120831854145734, 2.600323984080223, 1.0897129838084645, 1.2930600215785297, 0.12680315595481417],
        [0.00894529116731313, 1.8612234345261527, 0.452677675755611, 1.1345846544463747, 0.39162679132312483],
        [1.3010045291661818, 2.1608244235442395, 0.7436866038657595, 2.9422382975192853, 0.4243560937531008],
        [0.016154653862885837, 1.6332869828194365, 0.2247412240488913, 0.3439278822690959, 0.6922019350097948],
        [64.67479942203828, 94.29688249805918, 0.48247215260479237, 4.961194086997978, 1.5732508857306442],
        [0.9814878769904993, 1.6649448682245236, 0.3428181908584662, 2.659271878152879, 1.0716521384927233],
        [85.2314299604858, 64.31685218369341, 29.4679177426249, 0.8249982094605315, 11.039915036594309],
        [0.11957006241869905, 0.049064991351635, 1.4662028110301097, 0.9297212817430189, 0.043082884479533234],
        [2.0190502992212984, 4.598049287037362, 0.16529210382332593, 2.2307034770803753, 1.3903866689706206],
        [0.6177050497340062, 3.891283584552987, 1.8835205254700114, 5.900090187859561, 2.259120855410089],
        [0.3404513743964337, 0.37155792708391644, 1.1583206376007489, 2.0537513402443786, 0.07937712498176808],
    ],
    ("fig6.cfg", 16): [
        [0.03828878691545867, 3.6167439702408117, 1.6791332112334771, 0.4402796024444413, 0.0812396990663089],
        [0.0479471114385035, 3.439253564355461, 1.6647052757634029, 0.3529089413765192, 0.08312210100658746],
        [0.005329684601555584, 3.49401413961818, 1.5564033806108455, 0.8548076247158534, 0.14827567752166715],
        [0.10196914782862354, 2.1957239837089713, 0.8120458661657475, 1.2912215632767108, 0.277235330247513],
        [0.19301359672381269, 0.8668169010592175, 0.5072766173204375, 0.09692757241331362, 0.40384499219413517],
        [0.007980174154557318, 2.3433291595614385, 0.8134505948767732, 1.7905294805891145, 0.3319561625712275],
        [0.015103357817252472, 1.9300756888950081, 0.5575603175040531, 2.20749195329435, 0.36749968932225985],
        [0.32349054247331743, 0.08228343170465813, 1.4908291904752033, 1.268867498406241, 0.13438319963263545],
        [0.020761355577789686, 3.1754584990232146, 1.5474160461616648, 0.30965191351266697, 0.05244818944625251],
        [0.07934703701507662, 0.4247148222385553, 0.9478005491523998, 0.5662743022789507, 0.18966333980304828],
        [0.021136565336934865, 0.41722978781363196, 1.1826350857328265, 0.7566164931744837, 0.18653894695085782],
        [0.012822165029646726, 1.7416735663829641, 0.1136311135214143, 0.9624893014902796, 0.6904880812781329],
        [0.04821415350775382, 0.8339783226350121, 0.5831594970434626, 0.20486973953759424, 0.38080747786822755],
        [0.1857773976494279, 2.818234562686449, 1.2183696891399904, 0.9677605236057545, 0.16903370575051113],
        [0.054486420094811194, 1.4291908752761415, 0.3453574133159165, 0.21067752885087287, 0.6334963236459785],
        [0.1421879100300174, 2.775589738286236, 0.8379789792789083, 2.196347648540886, 0.5082062718113818],
        [0.23286053486067182, 0.06770785581508498, 1.3159702617281388, 1.1058637282696662, 0.06604649154885323],
        [0.003857234272519605, 1.4610481562426436, 0.0688304084420217, 0.5693143438981672, 0.6413234411804289],
        [0.2723812629382909, 2.381761658008143, 0.964623838329663, 1.2023817470802403, 0.2135680027915221],
        [0.4048187957180147, 0.8166559251664651, 44.55023357657801, 0.4502631909065755, 43.65811064178704],
    ],
}


@pytest.mark.parametrize("name, snr_index", list(PINNED_TRIAL_ERRORS))
def test_trial_errors_are_pinned(name, snr_index):
    cfg = load_config(bundled_config(name))
    ws = _workspace(cfg)
    got = _block_errors(ws, cfg, snr_index, 0, 20)
    np.testing.assert_allclose(got, PINNED_TRIAL_ERRORS[(name, snr_index)], rtol=1e-9, atol=0)


def test_trial_sounds_each_draw_once(monkeypatch):
    """A warm trial builds one channel matrix, no beam pair, and one estimate per entry.

    A block of any size calls the sounding kernel once per grid-of-beams
    entry and twice (sweep, then pair) per two-stage entry.
    """
    cfg = load_config(bundled_config("fig6.cfg"))
    ws = _workspace(cfg)
    _block_errors(ws, cfg, 4, 0, 1)  # first use builds the codebooks' stored beams and pairs
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ChannelRealization, "matrix", counted("matrix", ChannelRealization.matrix))
    monkeypatch.setattr(beams, "build_abp", counted("build_abp", beams.build_abp))
    for kind, fn in list(montecarlo._ESTIMATE.items()):
        monkeypatch.setitem(montecarlo._ESTIMATE, kind, counted(fn.__name__, fn))
    sounded, sound = Counter(), estimators.sound  # kernel calls per block size

    def counted_sound(rows, *args):
        sounded[len(rows)] += 1
        return sound(rows, *args)

    monkeypatch.setattr(estimators, "sound", counted_sound)
    _block_errors(ws, cfg, 4, 0, 1)
    assert calls == Counter(matrix=1, estimate_two_stage=1, estimate_gob=2, estimate_gob_abp=2)
    _block_errors(ws, cfg, 4, 0, _TRIAL_BLOCK)
    assert sum(2 if spec.kind.startswith("two_stage") else 1 for spec in cfg.estimators) == 6
    assert sounded == Counter({1: 6, _TRIAL_BLOCK: 6})


def test_benchmark_tracer_wraps_every_span_target():
    """perfbench's tracer finds and rebinds every library name it times, or a traced run stops."""
    code = 'import sys; sys.path.insert(0, "perfbench"); from spans import Tracer; Tracer().install()'
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def traced_sweep_job(fig, tmp_path, trials, snr_grid_db):
    """Spans and cell count of a traced perfbench/child.py sweep of a bundled config, run as the benchmark does."""
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("BEAMALIGN_LOG", None)
    config_text = (ROOT / "src" / "beamalign" / "configs" / f"{fig}.cfg").read_text()
    config_path = tmp_path / "input.cfg"
    config_path.write_text(config_text.replace("trials = 10000", f"trials = {trials}\nsnr_grid_db = {snr_grid_db}"))
    job = {"mode": "sweep", "config": str(config_path), "trace": True, "workers": 1,
           "out": str(tmp_path / "out.csv"), "result": str(tmp_path / "result.json")}
    (tmp_path / "job.json").write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, "perfbench/child.py", str(tmp_path / "job.json")], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads((tmp_path / "result.json").read_text())
    return res["spans"], res["cells"]


def estimator_calls(spans):
    return sum(spans[f"estimators.{k}"]["calls"] for k in ("two_stage", "gob", "gob_abp"))


@pytest.mark.parametrize("fig, workload", [("fig5", "fig5-sweep"), ("fig6", "fig6-rician-w2")])
def test_traced_sweep_meets_benchmark_predicates(fig, workload, tmp_path):
    """A traced benchmark job calls every span the harness predicts, and one estimator per cell.

    Runs the bundled config cut to 2 trials x 2 SNR points, so 2 blocks, and
    checks the traced run's own failure predicates; each block makes one
    channel draw and one matrix() for all its trials.
    """
    spans, cells = traced_sweep_job(fig, tmp_path, 2, "0, 20")
    calls = {name: spans.get(name, {}).get("calls", 0) for name in bench_run.PREDICTED[workload]}
    assert all(calls.values()), f"no calls to {[n for n, c in calls.items() if not c]}"
    assert cells == 2 * 2 * 5
    assert estimator_calls(spans) == cells
    assert spans["channel.matrix"]["calls"] == spans["channel.draw"]["calls"] == 2


def test_traced_sweep_across_a_block_boundary(tmp_path):
    """501 trials at one SNR point run as 2 blocks: 2 draws, 2 matrix() calls and one estimate per cell."""
    spans, cells = traced_sweep_job("fig6", tmp_path, _TRIAL_BLOCK + 1, "20")
    assert cells == 501 * 5
    assert estimator_calls(spans) == cells
    assert spans["channel.matrix"]["calls"] == spans["channel.draw"]["calls"] == 2


@pytest.mark.parametrize("codebook", bench_run.CODEBOOKS, ids=lambda cb: "N{}-n_rf{}-J{}-k{}-x{}".format(*cb))
def test_synth_cold_job_matches_reference(codebook, tmp_path):
    """A synth-cold benchmark job, untraced and traced, writes the reference codebook.

    Runs perfbench/child.py in codebook mode as the benchmark does, on the
    span (-50, 50), and checks its output against perfbench/reference; the
    traced run also calls every span the harness predicts for synth-cold.
    """
    n, n_rf, num_beams, k, scale = codebook
    spec = dict(mode="codebook", n_tot=n, n_rf=n_rf, num_beams=num_beams, k=k, delta_scale=scale,
                span_deg=[-50.0, 50.0])
    refs = json.loads((ROOT / "perfbench" / "reference" / "codebooks.json").read_text())
    ref = next(r for r in refs if bench_run._codebook_key(r) == bench_run._codebook_key(spec))
    env = {**os.environ, "PYTHONPATH": "src", **bench_run.BLAS_ENV}
    env.pop("BEAMALIGN_LOG", None)
    for trace in (False, True):
        job = dict(spec, trace=trace, out=str(tmp_path / f"{trace}.csv"), result=str(tmp_path / f"{trace}.json"))
        (tmp_path / "job.json").write_text(json.dumps(job))
        proc = subprocess.run([sys.executable, "perfbench/child.py", str(tmp_path / "job.json")], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dump = Path(job["out"] + ".json").read_text()
        assert bench_checks.check_codebook(Path(job["out"]).read_text(), dump, job, ref) == []
    spans = json.loads((tmp_path / "True.json").read_text())["spans"]
    assert all(spans.get(name, {}).get("calls") for name in bench_run.PREDICTED["synth-cold"]), spans


# sha256 of write_results_csv at 20 trials x 3 SNR points, workers 1, recorded
# when seeding contract v2 replaced v1, after an A/B check of the two over
# fig3-fig6 at 10k trials. Any change of a single output bit fails here; only
# a deliberate change of the seeding contract (or of the version in the
# header) re-records these.
PINNED_CSV_SHA256 = {
    "fig4.cfg": "8af0ea648b6ebb27e0063004c3ec3fe732bb11f4df13abbc732dc3d2ac2438e6",
    "fig6.cfg": "d385d7cabd72e0b9b0197549e6ad827766f21b3b799a469195462d9648d507d3",
}


@pytest.mark.parametrize("name", list(PINNED_CSV_SHA256))
def test_results_csv_bytes_are_pinned(name, tmp_path):
    cfg = dataclasses.replace(load_config(bundled_config(name)), trials=20, snr_grid_db=(0.0, 15.0, 30.0))
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(cfg, workers=1), path, cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256[name]


def test_block_builds_one_seed_sequence(monkeypatch):
    """A warm block builds one SeedSequence per domain: 1 + E, not one per (trial, domain)."""
    cfg = dataclasses.replace(load_config(bundled_config("fig5.cfg")), trials=100)
    _run_block((cfg, 4, 0, 50))  # first use builds the workspace and the stored beams
    built = []
    original = np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    si, block, rows = _run_block((cfg, 4, 0, 100))
    assert len(built) == 1 + len(cfg.estimators)
    assert (si, block, rows.shape) == (4, 0, (100, 5))


def test_block_draws_noise_only_for_the_trials_it_runs(monkeypatch):
    """A 50-trial block asks each entry's noise stream for 50 rows; the channel keeps its full block."""
    cfg = dataclasses.replace(load_config(bundled_config("fig5.cfg")), trials=50)
    ws = _workspace(cfg)
    rows = []
    original = montecarlo._cn

    def recorded(rng, n_rows, cols):
        rows.append(n_rows)
        return original(rng, n_rows, cols)

    monkeypatch.setattr(montecarlo, "_cn", recorded)
    _block_errors(ws, cfg, 4, 0, 50)
    assert rows == [_TRIAL_BLOCK] + [50] * len(cfg.estimators)


@pytest.mark.parametrize("t", [500, 507, 999])
def test_trial_draws_do_not_depend_on_trials(t, monkeypatch):
    """Trial t's errors are the same whether the sweep runs t + 1 trials or 10000."""
    cfg = small_config(snr_grid_db=(10.0,))
    rows = {}
    for trials in (t + 1, 10000):
        tasks = []

        def record(task):  # the block run_sweep assigns, computed below only for trial t
            tasks.append(task)
            return task[1], task[2], np.zeros((task[3], len(cfg.estimators)))

        monkeypatch.setattr(montecarlo, "_run_block", record)
        run_sweep(dataclasses.replace(cfg, trials=trials))
        monkeypatch.undo()
        task = next(task for task in tasks if task[2] == t // _TRIAL_BLOCK)
        rows[trials] = _run_block(task)[2][t % _TRIAL_BLOCK]
    assert np.array_equal(rows[t + 1], rows[10000])


def test_stream_independence():
    a = _stream(1, 0, 0, 0).standard_normal(4)
    b = _stream(1, 1, 0, 0).standard_normal(4)
    c = _stream(1, 0, 1, 0).standard_normal(4)
    d = _stream(1, 0, 0, 1).standard_normal(4)
    stacked = np.stack([a, b, c, d])
    assert len({tuple(row) for row in stacked}) == 4


def test_run_sweep_curves_shape_and_budgets():
    cfg = small_config()
    curves = run_sweep(cfg)
    assert [c.estimator_id for c in curves] == ["two_stage_9", "gob_16", "gob_abp_16"]
    assert [c.soundings for c in curves] == [9, 16, 16]
    for curve in curves:
        assert curve.snr_db == (0.0, 20.0)
        assert curve.trials == 200
        assert all(m >= 0 for m in curve.mean_abs_error_deg)
        rows = list(curve.rows())
        assert rows[0][3] == 200 and rows[0][4] == curve.soundings


def test_run_sweep_worker_count_invariance():
    # trial counts that end inside the first block, on its edge, and one or two blocks later
    for trials in (1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 2 * _TRIAL_BLOCK + 1):
        cfg = small_config(trials=trials, snr_grid_db=(10.0, 30.0))
        assert run_sweep(cfg, workers=1) == run_sweep(cfg, workers=2)


def test_pool_is_capped_at_the_task_count(monkeypatch):
    """run_sweep starts no more worker processes than it has trial blocks."""
    cfg = small_config(trials=20)  # one block per SNR point: 2 tasks
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
    assert run_sweep(cfg, workers=64) == run_sweep(cfg, workers=1)
    assert started == [2]


def _ulps_above(x, steps):
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


# wide priors, and priors 1-4 ulps wide away from 0, whose beams may share a boresight
PRIORS = st.one_of(
    st.lists(st.floats(-90.0, 90.0), min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
    st.builds(lambda lo, sign, steps: (lo * sign, _ulps_above(lo * sign, steps)),
              st.floats(1.0, 89.0), st.sampled_from((-1.0, 1.0)), st.integers(1, 4)))
SNR_POINTS = st.one_of(st.floats(-400.0, 100.0), st.floats(2900.0, 3100.0))  # the second straddles the power bound
ESTIMATOR_ENTRIES = st.lists(st.builds(EstimatorSpec, st.sampled_from(montecarlo.ESTIMATOR_KINDS),
                                       st.integers(1, 40)), min_size=1, max_size=3)


@st.composite
def accepted_configs(draw):
    kwargs = dict(
        n_tot=draw(st.integers(1, 32)), m_tot=draw(st.integers(1, 8)), n_rf=draw(st.sampled_from((1, 3, 5))),
        snr_grid_db=tuple(sorted(draw(st.lists(SNR_POINTS, min_size=1, max_size=3, unique=True)))),
        trials=1, aod_prior_deg=draw(PRIORS), aoa_prior_deg=draw(PRIORS),
        channel_kind=draw(st.sampled_from(montecarlo.CHANNEL_KINDS)),
        estimators=tuple(draw(ESTIMATOR_ENTRIES)), master_seed=draw(st.integers(0, 2 ** 32)),
        k_factor_db=draw(st.floats(-50.0, 100.0)), num_paths=draw(st.integers(1, 4)),
        nonadequate_k=draw(st.floats(0.5, 3.0)), nlos_normalized=draw(st.booleans()),
        tx_spacing=draw(st.floats(0.05, 1.0)), rx_spacing=draw(st.floats(0.05, 1.0)))
    try:
        return ExperimentConfig(**kwargs)
    except ValueError:
        reject()


@settings(max_examples=300, deadline=None)
@given(cfg=accepted_configs())
def test_accepted_config_runs_cleanly(cfg):
    """A config ExperimentConfig accepts fails synthesis by name or runs with finite errors."""
    try:
        ws = montecarlo._Workspace(cfg)
    except SynthesisError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for si in range(len(cfg.snr_grid_db)):
            assert np.isfinite(_block_errors(ws, cfg, si, 0, 1)).all()


@settings(max_examples=25, deadline=None)
@given(cfg=accepted_configs(), count=st.integers(1, _TRIAL_BLOCK - 1), data=st.data())
def test_short_block_is_a_prefix_of_the_full_block(cfg, count, data):
    """A block run for `count` trials gives the first `count` rows of the full block, byte for byte."""
    try:
        ws = montecarlo._Workspace(cfg)
    except SynthesisError:
        return
    si = data.draw(st.integers(0, len(cfg.snr_grid_db) - 1), label="snr_index")
    full = _block_errors(ws, cfg, si, 0, _TRIAL_BLOCK)
    assert _block_errors(ws, cfg, si, 0, count).tobytes() == full[:count].tobytes()


@settings(max_examples=10, deadline=None)
@given(cfg=accepted_configs(), trials=st.one_of(st.integers(1, 600), st.integers(_TRIAL_BLOCK + 1, 600)))
def test_worker_count_does_not_move_a_csv_byte(cfg, trials):
    """run_sweep at workers 1 and 2 writes byte-identical CSVs; above 500 trials a sweep spans 2 blocks."""
    cfg = dataclasses.replace(cfg, trials=trials)
    try:
        montecarlo._Workspace(cfg)
    except SynthesisError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for workers in (1, 2):
            path = Path(tmp) / f"w{workers}.csv"
            write_results_csv(run_sweep(cfg, workers=workers), path, cfg)
            written.append(path.read_bytes())
    assert written[0] == written[1]


def test_run_sweep_error_decreases_with_snr():
    cfg = small_config(trials=400, snr_grid_db=(0.0, 10.0, 20.0, 30.0))
    for curve in run_sweep(cfg):
        means = curve.mean_abs_error_deg
        ses = curve.std_error_deg
        for i in range(len(means) - 1):
            slack = 3.0 * float(np.hypot(ses[i], ses[i + 1]))
            assert means[i + 1] <= means[i] + slack


def test_rician_config_runs():
    cfg = small_config(channel_kind="rician", k_factor_db=13.5, num_paths=4,
                       trials=50, snr_grid_db=(20.0,))
    curves = run_sweep(cfg)
    assert all(np.isfinite(c.mean_abs_error_deg).all() for c in curves)


def test_nonadequate_estimator_runs_and_floors():
    cfg = small_config(trials=400, snr_grid_db=(35.0,),
                       estimators=(EstimatorSpec("two_stage", 7),
                                   EstimatorSpec("two_stage_nonadequate", 7)))
    adequate, nonadequate = run_sweep(cfg)
    assert nonadequate.mean_abs_error_deg[0] > 10 * adequate.mean_abs_error_deg[0]


def test_config_digest_tracks_content():
    assert config_digest(small_config()) == config_digest(small_config())
    assert config_digest(small_config()) != config_digest(small_config(master_seed=556))


def test_write_results_csv(tmp_path):
    cfg = small_config(trials=20)
    curves = run_sweep(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(curves, path, cfg)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# beamalign ")
    assert lines[1] == f"# master_seed = {cfg.master_seed}"
    assert lines[2] == f"# config_sha256 = {config_digest(cfg)}"
    assert lines[3] == "estimator,snr_db,mean_abs_error_deg,std_error_deg,trials,soundings"
    data = lines[4:]
    assert len(data) == 3 * 2
    first = data[0].split(",")
    assert first[0] == "two_stage_9"
    # full round-trip decimal formatting
    assert float(first[2]) == curves[0].mean_abs_error_deg[0]


def test_error_curve_rows():
    curve = ErrorCurve("gob_16", 16, 10, (0.0, 5.0), (1.0, 0.5), (0.1, 0.05))
    assert list(curve.rows()) == [(0.0, 1.0, 0.1, 10, 16), (5.0, 0.5, 0.05, 10, 16)]
