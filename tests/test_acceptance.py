"""End-to-end acceptance checks, one test per release criterion.

Each test prints a PASS line so `pytest -s tests/test_acceptance.py`
doubles as a checklist.
"""

import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from trackmine.eventlog import (
    Entity,
    EventLog,
    EventRecord,
    Group,
    segment_cycles,
)
from trackmine.events import (
    DetectionConfig,
    DetectionSample,
    Rect,
    ZoneSpec,
    detect_events,
    detect_streams,
)
from trackmine.occurrences import Occurrence, precision
from trackmine.procnet import LinkMatrix, NodeLabel, build_dfg, link_matrix
from trackmine.ranking import (
    authority_matrix,
    dispersion,
    compare_topk,
    grad_dominant_eigvec,
    gradient_ranking,
    hits_pm_norm,
    hub_matrix,
    pagerank_norm,
)
from trackmine.sim import Actor, Scenario, cell_layout, simulate

from _oracles import power_iteration_oracle, random_psd

L0 = np.array([[1.01, 0.01, 0.00], [0.01, 1.00, 0.00], [0.00, 0.00, 0.90]])
L1 = np.array(
    [
        [1.01, 0.01, 0.00, 0.01],
        [0.01, 1.00, 0.00, 0.02],
        [0.00, 0.00, 0.90, 1.00],
        [0.01, 0.01, 0.02, 0.05],
    ]
)


def lm(values):
    return LinkMatrix(
        labels=[NodeLabel("x", str(i + 1)) for i in range(values.shape[0])],
        values=values,
    )


LM0, LM1 = lm(L0), lm(L1)


def _ok(name):
    print(f"PASS {name}")


def test_criterion_01_three_node_gradient_column():
    A = authority_matrix(LM0)
    grad_dominant_eigvec(A)  # warm numpy/BLAS so the timing covers the solve only
    t0 = time.perf_counter()
    v, _, _ = grad_dominant_eigvec(A)
    elapsed = time.perf_counter() - t0
    sq = v**2
    assert sq[0] == pytest.approx(0.723, abs=0.005)
    assert sq[1] == pytest.approx(0.277, abs=0.005)
    assert sq[2] <= 1e-12
    assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"
    _ok("criterion 1: 3-node gradient column (0.723, 0.277, ~0), < 1 ms")


def test_criterion_02_four_node_gradient_column():
    v, _, _ = grad_dominant_eigvec(authority_matrix(LM1))
    sq = v**2
    assert sq[0] == pytest.approx(1.17e-4, abs=5e-5)
    assert sq[1] == pytest.approx(3.72e-4, abs=5e-5)
    assert sq[2] == pytest.approx(0.446, abs=0.005)
    assert sq[3] == pytest.approx(0.553, abs=0.005)
    _ok("criterion 2: 4-node gradient column (1.17e-4, 3.72e-4, 0.446, 0.553)")


HITS_EXPECTED = {
    ("L0", 0.8): [0.484, 0.411, 0.105],
    ("L0", 0.3): [0.356, 0.350, 0.293],
    ("L1", 0.8): [0.0143, 0.0155, 0.436, 0.534],
    ("L1", 0.3): [0.172, 0.171, 0.310, 0.347],
}


def test_criterion_03_hits_columns():
    for (name, alpha), expected in HITS_EXPECTED.items():
        matrix = LM0 if name == "L0" else LM1
        scores = list(hits_pm_norm(matrix, alpha=alpha).scores.values())
        assert scores == pytest.approx(expected, abs=0.02), (name, alpha)
        assert np.argsort(scores).tolist() == np.argsort(expected).tolist(), (name, alpha)
    _ok("criterion 3: HITS_PM_Norm columns at alpha 0.8 and 0.3, order preserved")


def test_criterion_04_pagerank_columns():
    scores1 = list(pagerank_norm(LM1, alpha=0.8).scores.values())
    assert scores1 == pytest.approx([0.182, 0.185, 0.620, 0.0126], abs=0.03)
    scores0 = list(pagerank_norm(LM0, alpha=0.8).scores.values())
    assert scores0 == pytest.approx([1 / 3] * 3, abs=0.01)
    _ok("criterion 4: PageRank_Norm columns (column-stochastic reading)")


def test_criterion_05_gradient_matches_power_oracle():
    rng = np.random.default_rng(2024)
    total = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        A = random_psd(rng, n, gap_max=0.999)
        t0 = time.perf_counter()
        v, _, it = grad_dominant_eigvec(A)
        total += time.perf_counter() - t0
        assert it < 100_000
        ref, _ = power_iteration_oracle(A)
        assert abs(float(v @ ref)) >= 1.0 - 1e-8
    assert total < 5.0, f"gradient solves took {total:.2f} s"
    _ok(f"criterion 5: 200 random PSD matrices match power oracle ({total:.2f} s)")


def _corpus_matrices():
    yield LM0
    yield LM1
    for cycle in _three_cycle_fixture()[1]:
        yield link_matrix(build_dfg(cycle))


def test_criterion_06_normalization_and_duality():
    for matrix in _corpus_matrices():
        g_auth = gradient_ranking(matrix, kind="authority")
        g_hub = gradient_ranking(matrix, kind="hub")
        assert sum(g_auth.scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(g_hub.scores.values()) == pytest.approx(1.0, abs=1e-9)
        s = np.linalg.svd(matrix.values, compute_uv=False)
        if len(s) > 1 and s[1] / s[0] > 1 - 1e-6:
            continue  # top singular value not simple; duality undefined
        va, _, _ = grad_dominant_eigvec(authority_matrix(matrix))
        vh, _, _ = grad_dominant_eigvec(hub_matrix(matrix))
        mapped = matrix.values @ va
        norm = np.linalg.norm(mapped)
        if norm == 0:
            continue
        assert abs(float((mapped / norm) @ vh)) == pytest.approx(1.0, abs=1e-9)
    _ok("criterion 6: score normalization and authority/hub duality on the corpus")


def test_criterion_07_event_detection_fixtures():
    zone = ZoneSpec(location_id="s1", camera_id="cam1", box=Rect(0, 0, 100, 100))
    cfg = DetectionConfig()

    def track(times):
        return [
            DetectionSample("cam1", float(t), "worker-right", "T1", *Rect(25, 0, 50, 100))
            for t in times
        ]

    assert detect_events(track(range(6)), [zone], cfg) == [
        Occurrence(start_time=0.0, location_id="s1", entity_class="worker-right",
                   track_id="T1")
    ]
    assert detect_events(track([0, 1]), [zone], cfg) == []
    assert detect_events([], [zone], cfg) == []

    # monotonicity across 100 random dwell/travel tracks
    from test_events import _random_tracks

    rng = np.random.default_rng(3)
    for samples in _random_tracks(rng, n_tracks=100):
        n_base = len(detect_events(samples, [zone], cfg))
        for stricter in (
            DetectionConfig(min_duration=5.0),
            DetectionConfig(min_overlap_ratio=0.4),
        ):
            assert len(detect_events(samples, [zone], stricter)) <= n_base
    _ok("criterion 7: detection fixtures and monotonicity over 100 random tracks")


def test_criterion_08_simulator_round_trip():
    def scenario(**noise):
        return Scenario(
            zones=cell_layout(),
            actors=[
                Actor("worker-right", (("s11", 6.0), ("s14", 8.0), ("k3", 5.0),
                                       ("s15", 7.0), ("s17", 5.0))),
                Actor("worker-left", (("s21", 6.0), ("s23", 9.0), ("k3", 5.0),
                                      ("s27", 6.0), ("s22", 5.0))),
                Actor("big-AGV", (("s23", 10.0), ("s12", 8.0))),
                Actor("small-AGV", (("s14", 10.0), ("k3", 6.0))),
            ],
            **noise,
        )

    sc = scenario()
    assert len({z.location_id for z in sc.zones}) == 19
    samples, truth = simulate(sc)
    detected = detect_streams(samples, sc.zones, DetectionConfig())
    assert precision(detected, truth, match_window=2.0) == 1.0

    averages = []
    for dropout in (0.0, 0.15, 0.35):
        values = [
            precision(
                detect_streams(*(simulate(scenario(dropout=dropout, seed=seed))[0],),
                               scenario().zones, DetectionConfig()),
                simulate(scenario(dropout=dropout, seed=seed))[1],
                match_window=2.0,
            )
            for seed in range(25)
        ]
        averages.append(float(np.mean(values)))
    assert averages[0] >= averages[1] >= averages[2]
    _ok("criterion 8: zero-noise round trip precision 1.0; dropout degrades precision "
        f"({averages[0]:.3f} >= {averages[1]:.3f} >= {averages[2]:.3f})")


def _cycle_log_records(base, starts, sequences, spacing):
    records = []
    for start, seq in zip(starts, sequences):
        for i, label in enumerate(seq):
            role, loc = label.split("_")
            records.append(
                EventRecord(
                    groups=(Group(loc, (Entity("E1", role),)),),
                    timestamp=base + timedelta(seconds=start + i * spacing),
                )
            )
    return records


def _three_cycle_fixture():
    base = datetime(2024, 8, 15, 10, 0, 0)
    spread = [
        "RP_s11", "RP_s14", "RP_k3", "LP_s21", "LP_s23", "LP_k3",
        "RP_s14", "LP_s21", "RP_k3", "LP_s23", "LP_k3", "RP_s14",
        "LP_s23", "RP_k3", "LP_s21", "LP_k3",
    ]
    concentrated = [
        "RP_s11", "RP_k3", "RP_s11x", "RP_k3", "RP_s11x", "RP_k3",
        "RP_s11x", "RP_k3", "RP_s11x", "RP_k3", "LP_s21", "RP_k3",
    ]
    # anchors at 0, 510, 1014; final record at 1014 + 638
    starts = [0.0, 510.0, 1014.0]
    seq3 = concentrated
    spacing3 = 638.0 / (len(seq3) - 1)
    records = _cycle_log_records(base, starts[:2], [spread, spread], spacing=30.0)
    records += _cycle_log_records(base, [starts[2]], [seq3], spacing=spacing3)
    records.sort(key=lambda r: r.timestamp)
    log = EventLog(records=tuple(records), label="EL")
    cycles = segment_cycles(log, anchor=r"^s11$")
    return log, cycles


def test_criterion_09_cycle_analytics():
    _, cycles = _three_cycle_fixture()
    assert [c.cycle_time for c in cycles] == [510.0, 504.0, 638.0]
    ratios = [
        dispersion(gradient_ranking(link_matrix(build_dfg(c)))).participation_ratio
        for c in cycles
    ]
    assert ratios[2] < ratios[0]
    assert ratios[2] < ratios[1]
    _ok("criterion 9: cycle times (510, 504, 638) and concentrated third cycle "
        f"(participation ratios {ratios[0]:.2f}, {ratios[1]:.2f}, {ratios[2]:.2f})")


# top-10 authority label sets of the three production cycles
AUTH_TOP10 = {
    "A1": ["RP_k3", "LP_s27", "RP_s11", "LP_s23", "RP_s15",
           "BV_s23", "RP_s14", "LP_k3", "P_k3", "RP_s17"],
    "A2": ["RP_k3", "RP_s15", "LP_k3", "LP_s27", "RP_s11",
           "LP_s23", "LP_s21", "RP_s14", "SV_s14", "P_k1"],
    "A3": ["RP_s11", "RP_k3", "LP_k3", "LP_s27", "RP_s15",
           "LP_s21", "LP_s22", "SV_k3", "BV_s12", "P_k3"],
}


def test_criterion_10_common_node_diagnosis():
    out12 = compare_topk(AUTH_TOP10["A1"], AUTH_TOP10["A2"], 10)
    assert len(out12["common"]) == 7
    missing_from_a3 = out12["common"] - set(AUTH_TOP10["A3"])
    assert missing_from_a3 == {"RP_s14", "LP_s23"}
    _ok("criterion 10: 7 common top-10 nodes for A1/A2; {RP_s14, LP_s23} absent "
        "from A3")
