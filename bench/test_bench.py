"""Tests of the benchmark harness itself (not tier-1).

    python -m pytest bench -q

They drive ``run.py`` in its smoke mode, so they need about a minute.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import harness  # noqa: E402
import repeat  # noqa: E402
from wl_index_fleet import IndexFleet  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [name for name, _ in catalog.WORKLOADS]


def run(*arguments, tmp):
    return subprocess.run(
        RUN + list(arguments) + ["--tmp", str(tmp)],
        capture_output=True, text=True, cwd=str(tmp),  # any cwd must do
    )


@pytest.fixture(scope="module")
def check(tmp_path_factory):
    """One ``--check`` run of all five workloads: (document, stdout)."""
    tmp = tmp_path_factory.mktemp("check")
    out = tmp / "check.json"
    completed = run("--check", "--out", str(out), tmp=tmp)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert not any(name.startswith("run-") for name in os.listdir(tmp)), (
        "temp dirs must be removed on exit")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), completed.stdout


class TestBenchmarkJson:
    def test_matches_the_catalog(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            assert json.load(handle) == catalog.benchmark_json()

    def test_obeys_the_contract(self):
        spec = catalog.benchmark_json()
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(spec["workloads"]) <= 8
        assert 1 <= len(spec["end_to_end"]) <= 16
        assert 1 <= len(spec["per_layer"]) <= 128
        assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
        names = [w["name"] for w in spec["workloads"]]
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in spec["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        metrics = spec["end_to_end"] + spec["per_layer"]
        names += [m["name"] for m in metrics]
        assert len(names) == len(set(names)), "a name is used once"
        assert all(NAME.match(name) for name in names)
        assert all(UNIT.match(m["unit"]) for m in metrics)
        assert all(m["better"] in ("higher", "lower") for m in metrics)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


class TestCheckRun:
    def test_document_validates(self, check):
        document, stdout = check
        assert document["schema"] == "hbold-bench/1"
        assert document["claim"] is None
        assert stdout.rstrip().endswith('"claim": null}')
        assert list(document["workloads"]) == WORKLOADS
        for name, entry in document["workloads"].items():
            untraced, traced = entry["untraced"], entry["traced"]
            for run_result in (untraced, traced):
                assert run_result["correct"] is True, run_result["errors"]
                assert run_result["failed"] == 0 and run_result["attempted"] >= 1
                for metric, value in run_result["metrics"].items():
                    assert NAME.match(metric)
                    assert UNIT.match(value["unit"])
                    assert isinstance(value["value"], (int, float))
            expected = {m.name for m in catalog.END_TO_END if name in m.workloads}
            expected.discard("op_p95_ms")  # needs 200 ops; the smoke run has 12
            assert set(untraced["metrics"]) == expected
            assert untraced["metrics"]["failed_share"]["value"] == 0
            assert set(traced["metrics"]) == {m.name for m in catalog.PER_LAYER}
            # the end-to-end metrics the driver cannot gate ride in the traced
            # run, from its untraced rounds; 0 where they do not apply
            for metric in catalog.RECORDED:
                applies = metric.name in expected and metric.name != "failed_share"
                assert (traced["metrics"][metric.name]["value"] > 0) == applies

    def test_every_metric_is_printed_by_name_with_its_unit(self, check):
        document, stdout = check
        for entry in document["workloads"].values():
            for metric, value in entry["untraced"]["metrics"].items():
                assert re.search(rf"{re.escape(metric)}\s+\S+ {re.escape(value['unit'])}",
                                 stdout)

    def test_traced_self_times_sum_to_the_traced_wall(self, check):
        document, _ = check
        for name, entry in document["workloads"].items():
            traced = entry["traced"]
            total = sum(traced["layer_table"].values())
            assert total == pytest.approx(traced["traced_wall_s"], rel=0.02), name

    def test_trace_file_holds_a_span_tree(self, check):
        document, _ = check
        for entry in document["workloads"].values():
            with open(entry["traced"]["trace_file"], encoding="utf-8") as handle:
                spans = [json.loads(line) for line in handle]
            assert spans
            ids = {span["id"] for span in spans}
            for span in spans:
                assert set(span) == {"id", "parent", "name", "layer", "op",
                                     "start_ns", "end_ns"}
                assert span["parent"] == -1 or span["parent"] in ids
                assert span["end_ns"] >= span["start_ns"]

    def test_workloads_stress_different_layers(self, check):
        document, _ = check
        dominant = {
            name: max(entry["traced"]["layer_table"].items(), key=lambda kv: kv[1])[0]
            for name, entry in document["workloads"].items()
        }
        assert dominant == {
            "index_fleet": "sparql", "explore_sessions": "viz",
            "serve_uncached": "sparql", "serve_cached": "serving",
            "store_cycle": "rdf.durability",
        }
        store = document["workloads"]["store_cycle"]["traced"]["metrics"]
        assert store["sparql.run_busy_s"]["value"] == 0


class TestDriverContract:
    """``--workload`` alone prints the driver's object as its last line."""

    @pytest.mark.parametrize("trace", [0, 1])
    def test_last_line(self, tmp_path, trace):
        # full-size serve_cached: about a second of set-up; and a second seed
        completed = run("--workload", "serve_cached", "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), tmp=tmp_path)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        last = json.loads(completed.stdout.rstrip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        # 30 rounds for 8 s -> 4 for 1 s, however fast they run; the traced
        # run makes 2 + 2; ten waves a round
        assert last["attempted"] == 40
        declared = catalog.PER_LAYER if trace else catalog.GATED
        assert list(last["metrics"]) == [m.name for m in declared]
        for metric in declared:
            assert last["metrics"][metric.name]["unit"] == metric.unit
        if not trace:
            assert all(v["value"] > 0 for v in last["metrics"].values())

    def test_fails_without_the_program(self, tmp_path):
        """A directory with only BENCHMARK.json and bench/ has nothing to
        measure: exit non-zero, print no result."""
        import shutil

        shutil.copytree(HERE, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        completed = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "index_fleet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=str(tmp_path),
        )
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout


def test_a_second_seed_runs_clean(tmp_path):
    completed = run("--check", "--seed", "7", tmp=tmp_path)
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_repeat_flags_a_wide_spread_and_a_moving_count(capsys):
    def document(ops_per_s, queries):
        metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in catalog.GATED}
        metrics["ops_per_s"]["value"] = ops_per_s
        layer = {m.name: {"value": 0.0, "unit": m.unit} for m in catalog.PER_LAYER}
        layer["sparql.queries"]["value"] = queries
        return {"workloads": {"serve_cached": {
            "untraced": {"metrics": metrics, "calibration": {"median_ms": 1.9}},
            "traced": {"metrics": layer},
        }}}

    steady = [document(50.0 + i / 10, 7) for i in range(4)]
    assert repeat.report(steady, compare_counts=True) == []
    moving = steady + [document(90.0, 8), document(95.0, 7)]
    failures = repeat.report(moving, compare_counts=True)
    assert any("ops_per_s: spread" in f for f in failures)
    assert any("sparql.queries: count differs" in f for f in failures)
    assert "OVER" in capsys.readouterr().out


def test_an_injected_failing_op_raises_failed_share(tmp_path):
    class Down:
        def is_available(self, day):
            return False

    class OneEndpointDown(IndexFleet):
        def run_round(self, index, tracer):
            if index >= 0:  # after the warm-up
                self.endpoints[0].availability = Down()
            return super().run_round(index, tracer)

    try:
        result = harness.run_untraced(
            lambda: OneEndpointDown(2020, True, str(tmp_path)), 0.0)
    finally:
        gc.unfreeze()
    assert result["failed"] == 1
    assert result["metrics"]["failed_share"]["value"] == pytest.approx(1 / 12)
    assert result["errors"]
