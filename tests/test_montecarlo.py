import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from beamalign import beams, montecarlo
from beamalign import (
    ErrorCurve,
    EstimatorSpec,
    ExperimentConfig,
    config_digest,
    run_sweep,
    run_trial,
    write_results_csv,
)
from beamalign.channel import ChannelRealization
from beamalign.cli import bundled_config, load_config
from beamalign.montecarlo import _stream, _trial_errors, _workspace


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


def test_run_trial_is_deterministic():
    cfg = small_config()
    a = run_trial(cfg, "gob_16", 0.0, 7)
    b = run_trial(cfg, "gob_16", 0.0, 7)
    assert a == b
    assert run_trial(cfg, "gob", 0.0, 7) == a  # unique kind resolves too


def test_run_trial_rejects_unknown_points():
    cfg = small_config()
    with pytest.raises(ValueError):
        run_trial(cfg, "gob_16", 5.0, 0)
    with pytest.raises(ValueError):
        run_trial(cfg, "gob_99", 0.0, 0)


def test_run_trial_two_stage_high_snr_is_exact():
    cfg = small_config(snr_grid_db=(1000.0,), trials=50)
    errs = [run_trial(cfg, "two_stage_9", 1000.0, t) for t in range(50)]
    assert max(errs) < 1e-4


def test_common_random_numbers_share_channel():
    # two identical estimator entries differ only in their noise domain; at an
    # effectively noiseless SNR they must produce identical errors, which can
    # only happen when both see the same channel draw
    cfg = small_config(snr_grid_db=(1000.0,),
                       estimators=(EstimatorSpec("gob", 16), EstimatorSpec("gob", 16)))
    ws = _workspace(cfg)
    for t in range(20):
        errs = _trial_errors(ws, cfg, 0, t)
        assert errs[0] == errs[1]


def test_estimator_entry_streams_are_stable_across_sets():
    # channel and noise streams depend only on (seed, entry index, snr, trial),
    # so estimator A at entry 0 sees identical draws regardless of other entries
    cfg_pair = small_config()
    cfg_solo = small_config(estimators=(EstimatorSpec("two_stage", 7),))
    assert run_trial(cfg_pair, "two_stage_9", 20.0, 3) == run_trial(cfg_solo, "two_stage_9", 20.0, 3)


# _trial_errors for trials 0-19 of fig4 (single path) and fig6 (Rician) at
# SNR indices 4 and 16 (0 and 30 dB), one column per estimator entry. Any
# change to the order of the channel or sounding-noise draws moves them.
PINNED_TRIAL_ERRORS = {
    ("fig4.cfg", 4): [
        [1.9330712161290613, 2.712838931465411, 0.11299101045252158],
        [0.894797688602667, 3.0353464198164755, 0.0803036455120747],
        [0.1474718204976413, 1.367685624663232, 0.6485059983532961],
        [1.7557601439711465, 1.9099149300852734, 0.6889416126597059],
        [0.31254387260776895, 1.6182895250384561, 0.31412021905811827],
        [3.5549231332321582, 44.05687050249664, 40.54960195122958],
        [0.779421546267244, 1.8680873267247264, 3.311826890268371],
        [1.9280913141984968, 0.9074834125648366, 0.9220671447328641],
        [0.9792860144667515, 1.5674623818118363, 0.5084450152616711],
        [1.6503434214978654, 2.711427874058039, 0.5340163023119828],
        [0.6468892915142685, 0.8715173216382013, 1.054114264352389],
        [0.8639864677476252, 0.7929060066925029, 0.8867778108509299],
        [0.4191768914762193, 1.8939101811225676, 0.4323083048671421],
        [1.4659599888503152, 0.3652296552175116, 1.9536302331336728],
        [2.1918135275249586, 2.2496673619866803, 0.13885312863599136],
        [1.3145939850881945, 1.830805385271347, 0.42532315829377154],
        [5.8945285293005725, 1.4721328575669972, 0.9684472968609441],
        [0.16907542906969297, 0.047907897491064944, 1.6627540485966392],
        [0.24682035346017628, 0.8534225477648398, 0.9558796541527776],
        [4.341856875858756, 0.9062604731683059, 1.7472630036489285],
    ],
    ("fig4.cfg", 16): [
        [0.011653016582762632, 1.2354951952857434, 1.227934808677368],
        [0.015718264747498267, 2.8194527920073966, 0.02149584874751298],
        [0.005425490692921642, 1.0839507616623862, 2.0919371508959017],
        [0.028137030597683577, 3.303524654523649, 0.05704886590392988],
        [0.05952911169363162, 2.81858444299332, 0.05962504776520916],
        [0.08602462555698054, 2.3115425390986957, 2.424420007651456],
        [0.0260836310930479, 1.3322405097139534, 0.6887171088048216],
        [0.06639770218743024, 0.6930137125730553, 1.2242740149275377],
        [0.005570289288385766, 2.1032269196426867, 0.6033059916575212],
        [0.0037870571410110188, 0.020972005765042212, 1.255837622202975],
        [0.017332100436299847, 1.520132934790821, 0.5638882508841432],
        [1.0028128185504366, 2.5392415847751257, 0.11387108702041161],
        [0.10485839622772097, 2.0640647871716666, 0.342113314281125],
        [0.06990774695375812, 2.216112848036717, 0.258834504213894],
        [0.029028765990087635, 1.1923583751682436, 0.7717370665027268],
        [0.07715247271349313, 0.6601233870721721, 1.0560402623175982],
        [0.03877959598625225, 2.513947579601055, 0.17077234715460676],
        [0.022083372194241946, 0.6466237421435999, 1.0224517889979623],
        [0.10379998093311116, 3.2206680938363235, 0.26283947771989347],
        [0.031171763648231376, 1.201753418367998, 0.7111840714012869],
    ],
    ("fig6.cfg", 4): [
        [0.1939879773422124, 2.5173725640651634, 1.1432790456855084, 1.420399304396486, 0.19464778985572284],
        [1.322328364947161, 1.2335894249932622, 0.7741736340897276, 2.1617089021475095, 0.5974033767242091],
        [0.7023073093182042, 2.0000981912915776, 0.40023331774511917, 0.6848716951874856, 0.5823248600702193],
        [0.26592793226116385, 2.684420302803126, 0.9098720142110821, 3.2225154034625376, 0.4262515480220941],
        [0.5255955860122583, 2.09858163590658, 0.5879706356348215, 2.604226098989205, 0.3830072990684208],
        [0.21101597027687546, 1.2827657802887167, 0.24711278439594864, 2.1155888585697973, 0.4646479165537052],
        [0.18587693530896843, 2.8129532690970365, 0.8051902100140467, 3.340632262172015, 1.2715571890457724],
        [0.013498836642655831, 1.2013960777828334, 0.2071496809877118, 2.1560291920785293, 0.6404084404673096],
        [0.39049942239857316, 1.005776773659548, 0.4568125100910976, 0.0551474096927933, 0.4562843606080129],
        [0.18495695220862096, 1.6807599108034443, 0.3082445394124893, 1.0183295439976843, 0.5570764201376073],
        [0.2643370215046126, 2.177818041725903, 0.7283941573775827, 2.9360763762590807, 0.312437561978836],
        [0.09209282317228684, 1.140047242971086, 0.5918171059362649, 0.1779044681672204, 0.5217036683838572],
        [0.6430820464489955, 2.0350240088693834, 0.6513458913261596, 2.6708105886829117, 0.3504924028196186],
        [2.08853431073409, 2.274366982587715, 0.26660392350473927, 4.386710452463433, 1.0710580084310735],
        [0.09869897095066449, 2.3544036257526493, 2.0783535574613907, 39.72560881958958, 0.3487069546475823],
        [1.7850272106440102, 0.22113268253800555, 1.716478076469329, 1.29155848634516, 0.14469872031246211],
        [2.0445431558168465, 1.1300864402322546, 0.6017779086751105, 1.3525439012815, 0.6937657655169431],
        [0.906404857295037, 0.8410056102724877, 0.5761322094059924, 0.35892805340759715, 0.4739429338436718],
        [0.09349375144704197, 2.7224129025371457, 1.3338666417365594, 0.19466581302759778, 0.05845026082759475],
        [0.17970609678776128, 0.06037331129155987, 1.6602381848380254, 1.5026738695176682, 0.04463445930153398],
    ],
    ("fig6.cfg", 16): [
        [0.041263271633482645, 3.6167439702408117, 1.6791332112334771, 0.5100826669928082, 0.09908175748820014],
        [0.010961088273994335, 2.6707462769231345, 1.2622005181525893, 0.3611717954249638, 0.06398198160100854],
        [0.08644647655671633, 2.7288657945623065, 1.266276510811661, 0.5106592187517265, 0.10823882308749688],
        [0.03250612215953996, 0.7760441285706028, 0.5964712428203522, 0.19743727442855263, 0.3396508416966877],
        [0.006719070917913683, 0.06315413436858108, 1.5367107391778774, 1.0471377533285882, 0.027194798154042132],
        [0.0026969442899673624, 1.4124261342557896, 0.03833261587613457, 0.6794229837722181, 0.5854594803492601],
        [0.051141735398835486, 2.459026911861522, 1.084933393481867, 0.7382447290927114, 0.13077955818421838],
        [0.011207588313183692, 49.79503832235525, 1.1393118813650975, 48.38159514561119, 0.12003452079046006],
        [0.051450309796127414, 0.1445037259577866, 1.318085557792859, 0.8320077279253617, 0.05869426301317304],
        [0.0007416262390371742, 2.48388745614832, 0.9732764558765652, 1.3390114549954042, 0.24105152382733763],
        [0.005252882455792474, 0.8448554544852591, 0.6177338292653864, 0.18862005138225868, 0.38954234603895443],
        [0.09372396013878159, 3.6054459878596177, 1.8308976992675738, 0.0030071066876402597, 0.026727936941668418],
        [0.014286328567379769, 3.40314086878184, 1.6712765198744748, 0.0637436078124054, 0.009875805501160073],
        [0.059083484982600964, 2.428264049295038, 0.8002215964334951, 2.9388327997640573, 0.3826738053400831],
        [0.02914334920955497, 2.36383112119173, 0.4262203621843952, 1.757927283823598, 0.6592600795105312],
        [2.0047081298845164, 1.2558354233155757, 0.13271083748501056, 0.435736943317103, 0.5753703901026963],
        [0.13164083623899359, 2.1075308757301983, 0.33298258713815443, 1.4354526172971518, 0.662633127420591],
        [0.36307936471197877, 2.363622305659309, 0.8337437409746435, 3.0671703294357826, 0.26739919689450176],
        [0.2453999920874601, 2.609830065344225, 1.1926922456657447, 0.4916433567313625, 0.12832928458309212],
        [0.029976636531201528, 0.6302923699254057, 0.7422230014655493, 0.35819137789493394, 0.29601149145281624],
    ],
}


@pytest.mark.parametrize("name, snr_index", list(PINNED_TRIAL_ERRORS))
def test_trial_errors_are_pinned(name, snr_index):
    cfg = load_config(bundled_config(name))
    ws = _workspace(cfg)
    got = [_trial_errors(ws, cfg, snr_index, t) for t in range(20)]
    np.testing.assert_allclose(got, PINNED_TRIAL_ERRORS[(name, snr_index)], rtol=1e-9, atol=0)


def test_trial_sounds_each_draw_once(monkeypatch):
    """A warm trial builds one channel matrix, no beam pair, and one estimate per entry."""
    cfg = load_config(bundled_config("fig6.cfg"))
    ws = _workspace(cfg)
    _trial_errors(ws, cfg, 4, 0)  # first use builds the codebooks' stored beams and pairs
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
    _trial_errors(ws, cfg, 4, 1)
    assert calls == Counter(matrix=1, estimate_two_stage=1, estimate_gob=2, estimate_gob_abp=2)


# sha256 of write_results_csv at 20 trials x 3 SNR points, workers 1, recorded
# before the per-draw and per-codebook sharing of sounding work. Any change of
# a single output bit fails here; only a deliberate change of the seeding
# contract (or of the version in the header) re-records these.
PINNED_CSV_SHA256 = {
    "fig4.cfg": "214b163696bc205ae80935f9d76aa4b291ac15a6730e4a6fa2da3941ab8e6792",
    "fig6.cfg": "2c8680dc76c5da20a1a2a3fed8aba06ca2feaf268c6485478e5415bd65a7f5aa",
}


@pytest.mark.parametrize("name", list(PINNED_CSV_SHA256))
def test_results_csv_bytes_are_pinned(name, tmp_path):
    cfg = dataclasses.replace(load_config(bundled_config(name)), trials=20, snr_grid_db=(0.0, 15.0, 30.0))
    path = tmp_path / "results.csv"
    write_results_csv(run_sweep(cfg, workers=1), path, cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256[name]


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
    cfg = small_config(trials=600, snr_grid_db=(10.0, 30.0))
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    for a, b in zip(serial, parallel):
        assert a == b


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
