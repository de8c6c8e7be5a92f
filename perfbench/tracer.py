"""Span tracer for semdiv, kept in the benchmark's own files.

Run as a script, it executes one semdiv command in this process through
``semdiv.cli.main`` with the library's public functions wrapped, then writes
the spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json \\
        --workload ffscan --command-id 0 -- falsefriends --config c/config.json

Each wrapper replaces every binding of the original function in the loaded
``semdiv`` modules, so names that ``cli`` (or ``falsefriends``) imported are
traced too. A span records name, start, end, parent, workload and command id;
spans stay in memory until the command returns. Self time is a span's
duration minus the time its child calls cover. The per-pair hot calls
(``detect`` and ``similarity_scan``) are aggregated into counts, totals and
a latency sample instead of one span each, and ``score_pair`` is not wrapped,
which keeps the tracing overhead of the per-pair loops bounded.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path


def _path_arg(args, kwargs, position: int):
    return kwargs.get("path", args[position] if len(args) > position else None)


def _written(position: int):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(_path_arg(args, kwargs, position))}
    return attrs


def _seed_pairs_used(args, kwargs, result):
    from semdiv.embeddings import lookup_index

    source, target, seeds = args[:3]
    used = sum(
        lookup_index(source, s) is not None and lookup_index(target, t) is not None
        for s, t in seeds.pairs
    )
    return {"seed_pairs_used": used}


# module -> [(function, aggregated?, attribute extractor)]
TRACED = {
    "semdiv.embeddings": [
        ("load_embeddings", False, lambda a, k, r: {
            "rows": len(r.vocab), "file": os.path.basename(_path_arg(a, k, 0))}),
        ("normalize", False, None),
        ("similarity_scan", True, lambda a, k, r: {"elements": a[0].vectors.size}),
    ],
    "semdiv.alignment": [
        ("learn_alignment", False, _seed_pairs_used),
        ("apply_alignment", False, None),
        ("load_alignment_matrix", False, None),
    ],
    "semdiv.divergence": [
        ("load_cognate_sets", False, None),
        ("language_pair_divergence", False, lambda a, k, r: {
            "scored": r.scored_count, "oov": r.skipped_oov_count}),
        ("histogram", False, None),
        ("read_similarity_csv", False, None),
        ("write_scores_csv", False, _written(1)),
        ("write_histogram_csv", False, _written(1)),
        ("write_similarity_csv", False, _written(2)),
        ("write_summary_json", False, _written(1)),
    ],
    "semdiv.falsefriends": [
        ("detect_batch", False, lambda a, k, r: {"results": len(r.results)}),
        ("detect", True, lambda a, k, r: {"flagged": int(r.is_false_friend)}),
        ("write_report_tsv", False, None),
        ("write_report_json", False, None),
    ],
    "semdiv.evaluation": [
        ("load_gold_pairs", False, lambda a, k, r: {"pairs": len(r)}),
        ("evaluate", False, None),
    ],
    "semdiv.clustering": [
        ("upgma_steps", False, None),
        ("write_newick", False, None),
        ("write_merge_csv", False, None),
    ],
}


class Tracer:
    """In-memory spans for one command of one workload."""

    def __init__(self, workload: str, command_id: int) -> None:
        self.workload = workload
        self.command_id = command_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self._stack: list[dict] = []
        self._next_id = 0

    def call(self, name: str, aggregated: bool, attrs_fn, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = {"name": name, "child_s": 0.0, "id": None}
        if not aggregated:
            frame["id"] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        duration = end - start
        if parent is not None:
            parent["child_s"] += duration
        attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
        if aggregated:
            agg = self.aggregates.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples_s": [], "attrs": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - frame["child_s"]
            agg["samples_s"].append(duration)
            for key, value in attrs.items():
                agg["attrs"][key] = agg["attrs"].get(key, 0) + value
        else:
            parent_id = next((f["id"] for f in reversed(self._stack) if f["id"] is not None), None)
            self.spans.append({
                "id": frame["id"],
                "name": name,
                "start": start,
                "end": end,
                "parent": parent_id,
                "workload": self.workload,
                "command": self.command_id,
                "self_s": duration - frame["child_s"],
                "attrs": attrs,
            })
        return result

    def install(self) -> None:
        """Wrap every function in TRACED wherever a semdiv module binds it."""
        modules = [importlib.import_module(name) for name in TRACED]
        modules += [importlib.import_module("semdiv.cli"), importlib.import_module("semdiv")]
        for module_name, entries in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.split(".")[-1]
            for func_name, aggregated, attrs_fn in entries:
                original = getattr(module, func_name, None)
                if original is None:  # renamed or removed: its metrics read 0
                    continue
                wrapper = self._wrapper(f"{short}.{func_name}", aggregated, attrs_fn, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrapper(self, name, aggregated, attrs_fn, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, aggregated, attrs_fn, fn, args, kwargs)
        return traced

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "aggregates": self.aggregates}
        path.write_text(json.dumps(payload), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one semdiv command with span tracing.")
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--command-id", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the semdiv arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from semdiv import cli

    tracer = Tracer(args.workload, args.command_id)
    tracer.install()
    try:
        code = tracer.call(f"cli.{argv[0]}", False, None, cli.main, (argv,), {})
    finally:
        tracer.dump(Path(args.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
