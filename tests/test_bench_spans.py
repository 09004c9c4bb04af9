"""The per-layer bench wraps functions of the package by name; a rename
would silently zero its metrics."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Targets that no longer exist in the package; repairing them is a bench change.
KNOWN_STALE = {"cb2cf.model.forward", "cb2cf.model.backward",
               "cb2cf.sgns.build_item_pairs", "cb2cf.sgns.build_word_pairs"}


def test_every_bench_span_target_resolves_but_the_known_stale_ones():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    plan = tracer._build_plan()
    assert set(tracer.missing) <= KNOWN_STALE
    assert len(plan) + len(tracer.missing) == len(spans._SPANS) + len(spans._COUNTED)


# Per-layer metrics each workload's code path reaches, and that read non-zero
# in a traced run; the stale targets above are left out.
REACHED = {
    "crossval": ["net.adam_s", "net.conv_forward_s", "net.conv_backward_s", "model.train_s",
                 "model.predict_ms_per_item", "evaluation.mpr_s", "evaluation.ndcg_s",
                 "evaluation.mse_s", "features.ms_per_item", "features.fit_kmeans_s"],
    "embed": ["sgns.item_s", "sgns.word_s", "sgns.table_io_s", "corpus.tokenize_s",
              "data.load_ratings_s"],
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("workload", sorted(REACHED))
def test_a_traced_run_on_one_cpu_reads_every_reached_metric(workload):
    """Pinned to one CPU, crossval trains its folds in-process, where the
    spans are recorded; forked fold workers would take them along."""
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    zero = [m for m in REACHED[workload] if not summary["metrics"][m]["value"] > 0]
    assert not zero, zero
