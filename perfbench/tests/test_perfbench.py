"""Tests of the benchmark itself: span arithmetic, patching, and a toy-size
smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    recorded = [
        Span("root", 0.0, 10.0, -1, ""),
        Span("a", 1.0, 4.0, 0, ""),
        Span("a.inner", 2.0, 3.0, 1, ""),
        Span("b", 3.0, 6.0, 0, ""),  # overlaps a: counted once
        Span("c", 9.0, 12.0, 0, ""),  # runs past its parent: clipped
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 3.0, 3.0])
    agg = spans.aggregate(recorded)
    assert agg[("root", "root")].self_ == pytest.approx(4.0)
    assert agg[("root", "a")].busy == pytest.approx(3.0)
    assert spans.covered_length([]) == 0.0


def test_self_time_from_live_spans():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")
    first = tracer.begin("child")
    tracer.end(first)
    second = tracer.begin("child")
    tracer.end(second)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == pytest.approx([10.0 - 2.0, 1.0, 1.0])


class _Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return cls, x


def test_patch_records_spans_and_uninstall_restores():
    tracer = Tracer()
    thing = _Thing()
    original_make = vars(_Thing)["make"]
    tracer.patch(_Thing, "make", "thing.make")
    tracer.patch(thing, "method", "thing.method")
    tracer.patch(_Thing, "gone", "thing.gone")
    assert _Thing.make(3) == (_Thing, 3)
    assert thing.method(1) == 2
    tracer.paused = True
    thing.method(1)
    tracer.paused = False
    assert [s.name for s in tracer.spans] == ["thing.make", "thing.method"]
    assert tracer.missing == [("thing.gone", "_Thing.gone")]
    tracer.uninstall()
    assert vars(_Thing)["make"] is original_make
    assert "method" not in vars(thing)


def test_removed_function_reads_missing_not_zero():
    tracer = Tracer()
    tracer.missing.append(("paths.sample_paths", "paths.sample_paths"))
    value, _, note = spans.layer_metrics(tracer)["paths.sample_ms"]
    assert value is None and note == "missing"


def test_no_sources_means_nonzero_exit_and_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "train-toy", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


#: per-layer metrics each workload's traced run must produce a value for
APPLIES = {
    "train-toy": [m for m, *_ in spans.LAYER_METRICS],
    "infer-dense": [
        m for m, *_ in spans.LAYER_METRICS
        if not m.startswith(("neural.node_bwd", "neural.path_bwd", "neural.optimizer"))
        and m not in ("pruning.train_step_ms", "paths.train_step_ms",
                      "pipeline.prepare_samples_s", "pipeline.skipped")
    ],
    "scale-retrieve": [m for m, *_ in spans.LAYER_METRICS
                       if m.startswith(("kg.", "linking.", "schema."))],
}


@pytest.mark.parametrize("workload", sorted(APPLIES))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    if trace:
        expected = {m: unit for m, unit, *_ in spans.LAYER_METRICS}
        assert set(result["metrics"]) == set(spans.COMMON_LAYER_METRICS)
        for name in APPLIES[workload]:
            row = table[name]
            assert row[2] == expected[name] and row[1] != "n/a", row
        assert any(line.startswith("trace overhead") for line in lines)
        from kgpath import pipeline

        assert not hasattr(pipeline.evaluate_query, "__wrapped__")
    else:
        expected = {**run.END_TO_END, **run.TAIL, "fail_frac": "ratio"}
        expected.update({
            "train-toy": {"train_qps": "query-steps/s", "test_node_r1": "ratio",
                          "test_path_r10": "ratio", "test_vqa": "ratio"},
        }.get(workload, {"schema_hit_rate": "ratio"}))
        assert set(result["metrics"]) == set(run.END_TO_END)
        for name, unit in expected.items():
            row = table[name]
            assert row[2] == unit and row[1] != "n/a", row
        for name, unit in run.END_TO_END.items():
            assert result["metrics"][name]["unit"] == unit
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    for key in ("git_sha", "nproc", "python", "numpy", "blas", "blas_threads", "seed",
                "samples"):
        assert key in meta
