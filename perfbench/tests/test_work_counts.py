"""Fast checks of the benchmark itself, run with

    python -m pytest -q perfbench/tests

from the repository root.  Two traced runs of a tiny configuration must give
identical work counts, so later changes can cite those counts as exact.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.bench import END_TO_END_UNITS, load_library, run  # noqa: E402
from perfbench.layer_metrics import UNITS, WORK_COUNTS  # noqa: E402

TINY = {
    "train": {"worlds": 2, "videos": 12, "epochs": 2, "val_fraction": 0.2},
    "generate": {"recipe_videos": 12, "recipe_epochs": 2, "heldout_videos": 4},
    "score": {"videos": 6},
}


@pytest.fixture(scope="module")
def lib():
    return load_library(ROOT)


def traced_run(lib, name, tmp_path):
    result, _ = run(lib, name, seed=3, seconds=0, trace=True, size=TINY[name], workdir=tmp_path)
    assert result["correct"], result
    assert result["attempted"] > 0 and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", ["train", "generate"])
def test_work_counts_repeat_exactly(lib, name, tmp_path):
    first = traced_run(lib, name, tmp_path)
    second = traced_run(lib, name, tmp_path)
    counts = {k: first[k] for k in WORK_COUNTS}
    assert counts == {k: second[k] for k in WORK_COUNTS}
    assert counts["layers.memory_updater_calls_per_video"] > 0, counts


def test_generate_decodes_without_backward(lib, tmp_path):
    metrics = traced_run(lib, "generate", tmp_path)
    assert metrics["autodiff.backward_ms_per_video"] == 0
    assert metrics["autodiff.graph_nodes_per_video"] == 0
    assert metrics["autodiff.ops_per_video"] > 0


def test_score_checks_pass_untraced(lib, tmp_path):
    result, report = run(lib, "score", seed=3, seconds=0, trace=False, size=TINY["score"], workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["figures"]["score_videos_per_s"]["value"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS


def test_train_runs_whole_cycles(lib, tmp_path):
    # each world once with B first and once with BIVT first, even with no time
    result, report = run(lib, "train", seed=3, seconds=0, trace=False, size=TINY["train"], workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert report["samples"] == 2 * TINY["train"]["worlds"]
