#!/usr/bin/env python3
"""semdiv benchmark: a seeded synthetic corpus per workload, the real
``python -m semdiv`` command sequence on it, checks of every output against
the planted answers, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload ffscan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the repository root (the directory holding ``src/semdiv``). Load
is a closed loop with one client: the workload's commands run one after
another, each in a fresh child process as a shell would run them, with the
BLAS thread count capped at the number of usable CPUs. The sequence repeats
for ``--seconds`` (at least three times) and timings are medians over the
repetitions. Set-up (generating and writing the corpus) runs three times and
is reported as its own metric, outside ``wall_s``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time on untraced repetitions (for the ``cli.*`` wall, memory and CPU rows) and
half on traced ones, where each command runs in-process under
``perfbench/tracer.py`` with the library's public functions wrapped.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is one command (a
non-zero exit fails it) or one output check; ``failed / attempted`` is the
workload's ``failed_ops_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import run_checks, verdict_digest
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

SETUP_REPS = 3
MIN_ITERATIONS = 3
MIN_TRACED = 2
COMMANDS = ("align", "divergence", "cluster", "falsefriends", "evaluate")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    **{f"cli.{c}.wall_s": "s" for c in COMMANDS},
    **{f"cli.{c}.peak_rss_mb": "MB" for c in COMMANDS},
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    "cli.cpu_s": "s",
    "embeddings.load_calls": "count",
    "embeddings.load_s": "s",
    "embeddings.rows_parsed": "count",
    "embeddings.parse_rows_per_s": "rows/s",
    "embeddings.parse_mb_per_s": "MB/s",
    "embeddings.reparse_ratio": "ratio",
    "embeddings.normalize_s": "s",
    "embeddings.scan_calls": "count",
    "embeddings.scan_s": "s",
    "embeddings.scan_gb": "GB_computed",
    "embeddings.scan_gflop": "GFLOP_computed",
    "embeddings.scan_gbps": "GB/s",
    "alignment.fit_calls": "count",
    "alignment.fit_s": "s",
    "alignment.seed_pairs_used": "count",
    "alignment.apply_s": "s",
    "alignment.load_matrix_s": "s",
    "divergence.load_cognates_s": "s",
    "divergence.pair_s": "s",
    "divergence.pairs_scored": "count",
    "divergence.pairs_per_s": "pairs/s",
    "divergence.oov_skipped": "count",
    "divergence.histogram_s": "s",
    "divergence.write_s": "s",
    "divergence.bytes_written": "B",
    "divergence.read_matrix_s": "s",
    "falsefriends.batch_s": "s",
    "falsefriends.detect_calls": "count",
    "falsefriends.detect_self_s": "s",
    "falsefriends.detect_p50_ms": "ms",
    "falsefriends.detect_p99_ms": "ms",
    "falsefriends.flagged": "count",
    "falsefriends.write_s": "s",
    "evaluation.gold_pairs": "count",
    "evaluation.load_gold_s": "s",
    "evaluation.evaluate_s": "s",
    "clustering.upgma_s": "s",
    "clustering.write_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or set-up failed)."""


@dataclass
class CommandRun:
    name: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


@dataclass
class Iteration:
    wall_s: float
    commands: list[CommandRun]
    checks: list[tuple[str, str | None]]
    digest: str | None = None
    trace: list[dict] = field(default_factory=list)

    def ops(self) -> list[tuple[str, str | None]]:
        codes = [
            (f"exit:{c.name}", None if c.code == 0 else f"{c.name} exited with {c.code}")
            for c in self.commands
        ]
        return codes + self.checks


def child_env(pin_malloc: bool = True) -> dict[str, str]:
    """Environment of the semdiv children (and, unpinned, of the generator)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    if pin_malloc:
        # Pin glibc's mmap threshold so every array of 4 MiB or more is mapped
        # and unmapped on its own. With the default sliding threshold, freed
        # matrices may stay in the heap depending on allocation order, and the
        # same command peaked up to 7% higher on some seeds than on others.
        env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path):
    """Run a child to completion; (wall seconds, exit code, its rusage)."""
    # a fresh file: truncating one just written makes ext4 flush it first
    log.unlink(missing_ok=True)
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def set_up(name: str, size: str, seed: int, corpus: Path) -> list[float]:
    """Generate the corpus SETUP_REPS times (the same files each time)."""
    env = child_env(pin_malloc=False)
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(corpus, ignore_errors=True)
        wall, code, _ = spawn(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", name, "--size", size,
             "--seed", str(seed), "--out", str(corpus)],
            env,
            corpus.parent / "setup.log",
        )
        if code != 0:
            log = (corpus.parent / "setup.log").read_text(errors="replace")
            raise BenchError(f"corpus generation failed:\n{log[-2000:]}")
        times.append(wall)
    return times


def run_iteration(name: str, workload: Workload, corpus: Path, answers: dict,
                  env: dict[str, str], traced: bool) -> Iteration:
    out = corpus / "out"
    shutil.rmtree(out, ignore_errors=True)
    trace_dir = corpus / "trace"
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
    runs = []
    start = time.perf_counter()
    for i, command in enumerate(workload.commands):
        args = [a.replace("{gold}", str(corpus / "gold.tsv")) for a in command]
        semdiv_argv = [args[0], "--config", str(corpus / "config.json"), *args[1:]]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(trace_dir / f"{i}.json"),
                    "--workload", name, "--command-id", str(i), "--", *semdiv_argv]
        else:
            argv = [sys.executable, "-m", "semdiv", *semdiv_argv]
        wall, code, usage = spawn(argv, env, corpus / f"log_{i}_{args[0]}.txt")
        runs.append(CommandRun(args[0], wall, usage.ru_maxrss * 1024 / 1e6,
                               usage.ru_utime + usage.ru_stime, code))
    total = time.perf_counter() - start

    names = [c[0] for c in workload.commands]
    iteration = Iteration(total, runs, run_checks(names, out, corpus, answers))
    if "falsefriends" in names:
        try:
            iteration.digest = verdict_digest(out, answers)
        except (OSError, KeyError):
            iteration.digest = None
    if traced:
        for i in range(len(workload.commands)):
            path = trace_dir / f"{i}.json"
            if path.exists():
                iteration.trace.append(json.loads(path.read_text(encoding="utf-8")))
    for i, run in enumerate(runs):
        if run.code != 0:
            log = corpus / f"log_{i}_{run.name}.txt"
            print(f"{name}: {run.name} exited with {run.code}:\n"
                  + log.read_text(errors="replace")[-2000:], file=sys.stderr)
    return iteration


def measure(name: str, workload: Workload, corpus: Path, answers: dict, env: dict[str, str],
            seconds: float, min_iterations: int, traced: bool) -> list[Iteration]:
    """Repeat the sequence while the next repetition still ends within
    ``seconds``, and at least ``min_iterations`` times."""
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while (len(iterations) < min_iterations
           or time.perf_counter() - start + iterations[-1].wall_s <= seconds):
        iterations.append(run_iteration(name, workload, corpus, answers, env, traced))
    return iterations


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(iterations: list[Iteration], setup_times: list[float]) -> dict[str, float]:
    return {
        "wall_s": _median(it.wall_s for it in iterations),
        "peak_rss_mb": _median(max(c.rss_mb for c in it.commands) for it in iterations),
        "setup_s": _median(setup_times),
    }


def cli_metrics(iterations: list[Iteration]) -> dict[str, float]:
    """Per-command wall time, peak RSS and total CPU from untraced runs."""
    metrics = {}
    for command in COMMANDS:
        runs = [[c for c in it.commands if c.name == command] for it in iterations]
        metrics[f"cli.{command}.wall_s"] = _median(sum(c.wall_s for c in r) for r in runs)
        metrics[f"cli.{command}.peak_rss_mb"] = _median(
            max((c.rss_mb for c in r), default=0.0) for r in runs
        )
    metrics["cli.cpu_s"] = _median(sum(c.cpu_s for c in it.commands) for it in iterations)
    return metrics


def _percentile_ms(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_metrics(trace: list[dict], answers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (one span file per command)."""
    spans = [s for doc in trace for s in doc["spans"]]
    aggregates: dict[str, dict] = {}
    for doc in trace:
        for fn, agg in doc["aggregates"].items():
            into = aggregates.setdefault(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                              "samples_s": [], "attrs": {}})
            for key in ("calls", "total_s", "self_s"):
                into[key] += agg[key]
            into["samples_s"] += agg["samples_s"]
            for key, value in agg["attrs"].items():
                into["attrs"][key] = into["attrs"].get(key, 0) + value
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples_s": [], "attrs": {}}
    scan = aggregates.get("embeddings.similarity_scan", empty)
    detect = aggregates.get("falsefriends.detect", empty)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def attr(key, *names):
        return sum(s["attrs"].get(key, 0) for s in named(*names))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    loads = named("embeddings.load_embeddings")
    load_s = busy("embeddings.load_embeddings")
    rows = attr("rows", "embeddings.load_embeddings")
    bytes_read = sum(answers["files"][s["attrs"]["file"]]["bytes_read"] for s in loads)
    scan_gb = scan["attrs"].get("elements", 0) * 8 / 1e9
    writers = ("divergence.write_scores_csv", "divergence.write_histogram_csv",
               "divergence.write_similarity_csv", "divergence.write_summary_json")
    pair_s = busy("divergence.language_pair_divergence")
    pairs = attr("scored", "divergence.language_pair_divergence")
    metrics = {
        **{f"cli.{c}.self_s": sum(s["self_s"] for s in named(f"cli.{c}")) for c in COMMANDS},
        "embeddings.load_calls": len(loads),
        "embeddings.load_s": load_s,
        "embeddings.rows_parsed": rows,
        "embeddings.parse_rows_per_s": rate(rows, load_s),
        "embeddings.parse_mb_per_s": rate(bytes_read / 1e6, load_s),
        "embeddings.reparse_ratio": rate(len(loads), len({s["attrs"]["file"] for s in loads})),
        "embeddings.normalize_s": busy("embeddings.normalize"),
        "embeddings.scan_calls": scan["calls"],
        "embeddings.scan_s": scan["total_s"],
        "embeddings.scan_gb": scan_gb,
        "embeddings.scan_gflop": scan["attrs"].get("elements", 0) * 2 / 1e9,
        "embeddings.scan_gbps": rate(scan_gb, scan["total_s"]),
        "alignment.fit_calls": len(named("alignment.learn_alignment")),
        "alignment.fit_s": busy("alignment.learn_alignment"),
        "alignment.seed_pairs_used": attr("seed_pairs_used", "alignment.learn_alignment"),
        "alignment.apply_s": busy("alignment.apply_alignment"),
        "alignment.load_matrix_s": busy("alignment.load_alignment_matrix"),
        "divergence.load_cognates_s": busy("divergence.load_cognate_sets"),
        "divergence.pair_s": pair_s,
        "divergence.pairs_scored": pairs,
        "divergence.pairs_per_s": rate(pairs, pair_s),
        "divergence.oov_skipped": attr("oov", "divergence.language_pair_divergence"),
        "divergence.histogram_s": busy("divergence.histogram"),
        "divergence.write_s": busy(*writers),
        "divergence.bytes_written": attr("bytes", *writers),
        "divergence.read_matrix_s": busy("divergence.read_similarity_csv"),
        "falsefriends.batch_s": busy("falsefriends.detect_batch"),
        "falsefriends.detect_calls": detect["calls"],
        "falsefriends.detect_self_s": detect["self_s"],
        "falsefriends.detect_p50_ms": _percentile_ms(detect["samples_s"], 50),
        "falsefriends.detect_p99_ms": _percentile_ms(detect["samples_s"], 99),
        "falsefriends.flagged": detect["attrs"].get("flagged", 0),
        "falsefriends.write_s": busy("falsefriends.write_report_tsv", "falsefriends.write_report_json"),
        "evaluation.gold_pairs": attr("pairs", "evaluation.load_gold_pairs"),
        "evaluation.load_gold_s": busy("evaluation.load_gold_pairs"),
        "evaluation.evaluate_s": busy("evaluation.evaluate"),
        "clustering.upgma_s": busy("clustering.upgma_steps"),
        "clustering.write_s": busy("clustering.write_newick", "clustering.write_merge_csv"),
    }
    return metrics


def machine_block(env: dict[str, str], bandwidth: bool, log: Path) -> dict:
    argv = [sys.executable, str(BENCH / "machine.py")] + (["--bandwidth"] if bandwidth else [])
    _, code, _ = spawn(argv, env, log)
    text = log.read_text(errors="replace")
    if code != 0:
        return {"error": text[-500:]}
    return json.loads(text.strip().splitlines()[-1])


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns its result record."""
    workload = WORKLOADS[size][name]
    env = child_env()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    corpus = work / "corpus"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        machine = machine_block(env, trace, work / "machine.log")
        setup_times = set_up(name, size, seed, corpus)
        answers = json.loads((corpus / "answers.json").read_text(encoding="utf-8"))
        if trace:
            untraced = measure(name, workload, corpus, answers, env, seconds / 2, MIN_TRACED, False)
            traced = measure(name, workload, corpus, answers, env, seconds / 2, MIN_TRACED, True)
        else:
            untraced = measure(name, workload, corpus, answers, env, seconds, MIN_ITERATIONS, False)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = untraced + traced
    ops = [op for it in iterations for op in it.ops()]
    has_verdicts = any(c[0] == "falsefriends" for c in workload.commands)
    digests = {it.digest for it in iterations} if has_verdicts else set()
    if digests:
        ops.append(("digest_stable", None if len(digests) == 1 and None not in digests
                    else f"falsefriends verdict digests differ across repetitions: {sorted(map(str, digests))}"))
    failures = [(op, why) for op, why in ops if why is not None]

    if trace:
        per_iteration = [layer_metrics(it.trace, answers) for it in traced]
        metrics = cli_metrics(untraced)
        metrics.update({key: _median(m[key] for m in per_iteration) for key in per_iteration[0]})
        plain = _median(it.wall_s for it in untraced)
        metrics["trace.overhead_frac"] = (_median(it.wall_s for it in traced) - plain) / plain
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, setup_times)
        units = END_TO_END
    metrics = {key: metrics[key] for key in units}

    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "machine": machine,
        "scan_working_set_mb": answers.get("scan_working_set_bytes", 0) / 1e6,
        "setup_s": setup_times,
        "iterations": [
            {"wall_s": it.wall_s, "traced": bool(it.trace),
             "commands": [vars(c) for c in it.commands]} for it in iterations
        ],
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    if trace and traced:
        record["spans"] = traced[-1].trace
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable summary of one workload on stdout."""
    machine = record["machine"]
    print(f"== {record['workload']} (seed {record['seed']}, {record['size']}): {record['why']}")
    print("machine: " + json.dumps(machine))
    walls = [it["wall_s"] for it in record["iterations"]]
    print(f"repetitions: {len(walls)} (traced {sum(it['traced'] for it in record['iterations'])}), "
          f"set-up runs: {len(record['setup_s'])}")
    l3 = machine.get("l3_bytes")
    if not record["scan_working_set_mb"]:
        print("scanned space: none (no false-friend scan)")
    elif l3:
        print(f"scanned space: {record['scan_working_set_mb']:.1f} MB = "
              f"{record['scan_working_set_mb'] * 1e6 / l3:.2f} x L3 ({machine.get('l3_cache')})")
    for key, metric in record["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'failed_ops_frac':32s} {frac:.6g} ratio ({record['failed']}/{record['attempted']})")
    if record["digest"]:
        print(f"  falsefriends verdict digest sha256:{record['digest']}")
    for op, why in record["failures"]:
        print(f"  FAILED {op}: {why}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                        help="'tiny' shrinks every corpus for a quick smoke run")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names = list(WORKLOADS[args.size]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS[args.size]]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS[args.size])} or all",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "semdiv" / "__init__.py").is_file():
        print(f"no semdiv sources under {ROOT / 'src'}; run from a semdiv checkout",
              file=sys.stderr)
        return 2

    try:
        records = [run_workload(n, args.size, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        print("== summary")
        for record in records:
            frac = record["failed"] / record["attempted"]
            cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in record["metrics"].items()
                              if args.trace == 0)
            print(f"  {record['workload']:16s} {cells}  failed_ops_frac {frac:.4g} ratio")
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
