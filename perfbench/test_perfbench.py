"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys

import pytest

import cbrnn.embeddings
import cbrnn.interpret
import cbrnn.model
from perfbench import run as bench_run
from perfbench import semeval_corpus
from perfbench.clock import RefClock
from perfbench.probes import Patcher, Tracer
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload, small


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path):
    spec = small(WORKLOADS[name])
    plain = run_workload(spec, 3, 0.0, False, str(tmp_path))
    traced = run_workload(spec, 3, 0.0, True, str(tmp_path))
    assert plain["model_bytes"] == traced["model_bytes"]
    assert plain["curve_csv"] == traced["curve_csv"]
    assert plain["curve_csv"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    spec = small(WORKLOADS[name])
    result = bench_run.run(spec, 5, 0.2, trace, tmp_path)
    detail, final = bench_run.result_lines(spec, 5, 0.2, trace, result)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"], detail["checks_failed"]
    assert final["failed"] == 0 and final["attempted"] > 0
    expected = set(PER_LAYER) | {f"trace_overhead.{n}" for n, _ in END_TO_END} \
        if trace else {n for n, _ in END_TO_END}
    assert set(final["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in final["metrics"].values())
    else:
        assert detail["missing_layers"] == []
        assert (tmp_path / f"trace-{spec.name}-seed5.json").is_file()
    json.dumps(final)


def test_patching_reaches_every_namespace():
    clock = RefClock(6, 4, 5)
    patcher = Patcher()
    originals = (cbrnn.model.forward_pass, cbrnn.embeddings.compose_ngram_inputs)
    Tracer(clock).install(patcher)
    try:
        assert cbrnn.interpret.forward_pass is cbrnn.model.forward_pass
        assert cbrnn.model.forward_pass is not originals[0]
        for mod in (cbrnn.model, cbrnn.interpret):
            assert mod.compose_ngram_inputs is cbrnn.embeddings.compose_ngram_inputs
        assert cbrnn.embeddings.compose_ngram_inputs is not originals[1]
    finally:
        patcher.restore()
    assert cbrnn.model.forward_pass is originals[0]
    assert cbrnn.interpret.forward_pass is originals[0]
    assert cbrnn.interpret.compose_ngram_inputs is originals[1]


def test_semeval_corpus_is_seeded_and_on_target():
    a = semeval_corpus.generate_semeval_like(11, 500, 5, 5)
    b = semeval_corpus.generate_semeval_like(11, 500, 5, 5)
    c = semeval_corpus.generate_semeval_like(12, 500, 5, 5)
    assert a.train == b.train and a.train != c.train
    vocab = cbrnn.corpus.build_vocabulary(a.train)
    assert semeval_corpus.check_shape(a.train, vocab.size,
                                      semeval_corpus.SEMEVAL_TARGETS) == []
    long = semeval_corpus.long_sentences(3, (40, 160))
    assert [len(s.tokens) for s in long] == [40, 160]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(bench_run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bench_run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    per_layer = set(PER_LAYER) | {f"trace_overhead.{n}" for n, _ in END_TO_END}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
