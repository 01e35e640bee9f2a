"""Tests of the benchmark itself, on small inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import functools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, checks, run, speed, spans, workloads  # noqa: E402
from perfbench.spans import Span  # noqa: E402

SMALL = {
    "cell_shift": functools.partial(workloads.make_cell_shift, actors=3, stops=25),
    "rank_sweep": functools.partial(workloads.make_rank_sweep, cycles=6),
    "log_io": functools.partial(workloads.make_log_io, tracks=4, per_track=40),
}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def generate(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    SMALL[name](seed, str(workdir), spans.Ops(spans.NullTracer()))
    return workdir


def small_bench(monkeypatch, tmp_path, name, trace):
    monkeypatch.setitem(workloads.GENERATORS, name, SMALL[name])
    workdir = tmp_path / "work"
    workdir.mkdir()
    return bench.Bench(name, seed=5, seconds=0, trace=trace, workdir=workdir)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def digest(workdir):
        return checks.sha256_files(workloads.input_paths(name, str(workdir)).values())

    first, again = generate(name, 1, tmp_path / "a"), generate(name, 1, tmp_path / "b")
    other = generate(name, 2, tmp_path / "c")
    assert digest(first) == digest(again)
    assert digest(first) != digest(other)


def test_self_time_subtracts_direct_children_only():
    s = [
        Span("chain", 0.0, 10.0, None, "r"),
        Span("events.detect", 1.0, 4.0, 0, "r"),
        Span("io.read", 2.0, 3.0, 1, "r"),
        Span("cycle", 5.0, 7.0, 0, "r"),
        Span("ranking.gradient", 5.5, 6.0, 3, "r"),
    ]
    assert spans.self_times(s) == pytest.approx([10 - 3 - 2, 3 - 1, 1, 2 - 0.5, 0.5])
    layers = spans.totals_by_layer(s)
    assert layers["bench"] == pytest.approx(5 + 1.5)
    assert layers["events"] == pytest.approx(2)
    assert sum(layers.values()) == pytest.approx(10)  # self times tile the root span


def test_tracer_records_parents():
    tracer = spans.Tracer("run")
    ops = spans.Ops(tracer)
    with tracer.span("chain"):
        ops.call("eventlog.parse", lambda: None)
        with pytest.raises(ZeroDivisionError):
            ops.call("ranking.gradient", lambda: 1 / 0)
    done = tracer.finished()
    assert [(s.name, s.parent) for s in done] == [
        ("chain", None), ("eventlog.parse", 0), ("ranking.gradient", 0)]
    assert (ops.attempted, ops.failed) == (2, 1)


def test_metric_names_and_the_declared_benchmark_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in [*declared, *per_layer, *run.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_correct_and_covers_its_layers(name, monkeypatch, tmp_path):
    runner = small_bench(monkeypatch, tmp_path, name, trace=1)
    metrics = runner.run_traced()
    attempted, failed, errors = runner.tally()
    assert failed == 0, errors
    assert set(metrics) >= set(bench.PER_LAYER)
    layers = {s.layer for s in runner.spans}
    assert {"eventlog", "cli", "bench"} <= layers
    if name != "log_io":
        assert {"procnet", "ranking"} <= layers


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    runner = small_bench(monkeypatch, tmp_path, "cell_shift", trace=0)
    metrics = runner.run_untraced()
    attempted, failed, errors = runner.tally()
    assert failed == 0, errors
    assert all(metrics[name] > 0 for name in bench.END_TO_END)


def test_corrupted_ranking_is_caught_and_counted(monkeypatch, tmp_path):
    from trackmine import ranking

    real = ranking.rank_nodes

    def skewed(*args, **kwargs):
        top, result, stats = real(*args, **kwargs)
        for label in result.scores:
            result.scores[label] *= 1.001
        return top, result, stats

    monkeypatch.setattr(ranking, "rank_nodes", skewed)
    runner = small_bench(monkeypatch, tmp_path, "rank_sweep", trace=1)
    runner.run_traced()
    attempted, failed, errors = runner.tally()
    assert failed > 0 and failed / attempted > 0
    assert any(e.startswith("rank.score_sum") for e in errors)
    assert any(e.startswith("cli.rank") for e in errors)


def test_corrupted_log_is_caught(tmp_path):
    workdir = generate("log_io", 3, tmp_path)
    wl = workloads.load_workload("log_io", str(workdir))
    out = workloads.chain_log_io(spans.Ops(spans.NullTracer()), wl, str(workdir))
    clean = checks.Checker()
    checks.check_chain(clean, "log_io", out)
    assert clean.failed == 0, clean.failures
    parsed = out.logs["text"]
    out.logs["text"] = type(parsed)(parsed.records[1:], label=parsed.label)
    broken = checks.Checker()
    checks.check_chain(broken, "log_io", out)
    assert broken.failures == [f"log.text_equals_built: {len(parsed.records) - 1} vs "
                               f"{len(parsed.records)} records"]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "log_io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_time_weighs_each_stretch_by_the_readings_around_it():
    ref = speed.REFERENCE_S
    meter = speed.Speedometer()
    # readings at 1 s (host at reference speed) and at 3 s (host twice as slow)
    meter.merge(starts=[1.0, 3.0], ends=[1.1, 3.1], values=[ref, 2 * ref])
    assert meter.scaled(0.0, 1.0) == pytest.approx(1.0)  # before the first: nearest
    assert meter.scaled(1.1, 3.0) == pytest.approx(1.9 / 1.5)  # mean of the two readings
    assert meter.scaled(3.1, 4.1) == pytest.approx(0.5)  # after the last: nearest
    # a reading inside the interval does not count
    assert meter.scaled(0.5, 1.6) == pytest.approx(0.5 + 0.5 / 1.5)


def test_merged_readings_stay_in_time_order():
    meter = speed.Speedometer()
    meter.merge(starts=[1.0, 5.0], ends=[1.1, 5.1], values=[1.0, 5.0])
    meter.merge(starts=[3.0], ends=[3.1], values=[3.0])
    assert (meter.starts, meter.ends, meter.values) == ([1.0, 3.0, 5.0], [1.1, 3.1, 5.1],
                                                         [1.0, 3.0, 5.0])


def test_readings_on_the_timer_drop_out_of_the_interval():
    meter = speed.Speedometer(interval=0.01)
    meter.read()
    with meter.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert len(meter.values) > 5
    inside = sum(e - s for s, e in zip(meter.starts, meter.ends) if t0 <= s and e <= t1)
    weights = speed.REFERENCE_S / max(meter.values), speed.REFERENCE_S / min(meter.values)
    lo, hi = ((t1 - t0 - inside) * w for w in weights)
    assert lo * 0.999 <= meter.scaled(t0, t1) <= hi * 1.001


def test_percentile_band_is_the_mean_of_its_percentiles():
    values = [float(v) for v in range(1, 102)]  # percentile k is 1 + k
    assert bench.percentile_band(values, 40, 60) == pytest.approx(51.0)
    assert bench.percentile_band(values, 85, 95) == pytest.approx(91.0)
