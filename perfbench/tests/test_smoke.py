"""Smoke test of the benchmark at tiny corpus sizes (about 15 seconds).

    python3 -m pytest -q perfbench/tests

Runs every workload untraced and traced, and checks that the seed code
recovers the planted answers (no failed operation), that every metric named
in BENCHMARK.json is emitted with its unit, and that the checks do catch a
wrong verdict.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_recovers_planted_answers_and_emits_metrics(trace, listed):
    proc = _bench("--workload", "all", "--size", "tiny", "--seed", "5",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    metrics = result["metrics"]
    for workload in SPEC["workloads"]:
        for metric in SPEC[listed]:
            got = metrics[f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    assert proc.stdout.count("failed_ops_frac                  0 ratio") == len(SPEC["workloads"])
    if trace == "1":
        for workload in SPEC["workloads"]:
            for command in ("align", "divergence", "cluster", "falsefriends", "evaluate"):
                assert metrics[f"{workload['name']}.cli.{command}.self_s"]["value"] >= 0
        assert metrics["divergence-wide.embeddings.scan_calls"]["value"] == 0
        assert metrics["ffscan.embeddings.scan_calls"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS["full"].items()
    }
    assert list(WORKLOADS["tiny"]) == list(WORKLOADS["full"])


def test_single_workload_prints_only_listed_metrics():
    proc = _bench("--workload", "divergence-wide", "--size", "tiny", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "ffscan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_corpus_is_deterministic_per_seed(tmp_path):
    spec = WORKLOADS["tiny"]["pipeline"].spec
    first = corpus.build(spec, tmp_path / "a", 7)
    again = corpus.build(spec, tmp_path / "b", 7)
    other = corpus.build(spec, tmp_path / "c", 8)
    assert first == again
    assert (tmp_path / "a" / "bb.vec").read_bytes() == (tmp_path / "b" / "bb.vec").read_bytes()
    assert first["false_friends"] != other["false_friends"]
    assert first["merges"] == [["aa", "bb"], ["dd", "ee"], ["aa+bb", "cc"], ["aa+bb+cc", "dd+ee"]]


def test_checks_catch_a_wrong_verdict(tmp_path):
    data = tmp_path / "corpus"
    answers = corpus.build(WORKLOADS["tiny"]["ffscan"].spec, data, 3)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["falsefriends"], ["evaluate", "--gold", str(data / "gold.tsv")]):
        subprocess.run([sys.executable, "-m", "semdiv", argv[0], "--config",
                        str(data / "config.json"), *argv[1:]], env=env, check=True,
                       capture_output=True, timeout=120)
    out = data / "out"
    assert checks.check_false_friends(out, data, answers) is None
    assert checks.check_evaluate(out, data, answers) is None

    tsv = out / "falsefriends_aa_bb.tsv"
    planted = next(iter(answers["false_friends"]))
    lines = tsv.read_text(encoding="utf-8").splitlines(keepends=True)
    wrong = [
        line.replace("\ttrue\t", "\tfalse\t") if line.startswith(planted + "\t") else line
        for line in lines
    ]
    tsv.write_text("".join(wrong), encoding="utf-8")
    assert "not flagged" in checks.check_false_friends(out, data, answers)
