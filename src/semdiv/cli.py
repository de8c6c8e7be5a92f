"""Command-line pipeline: align embedding spaces into a pivot, score cognate
divergence, cluster languages, grade false friends, and evaluate predictions.

Runs are described by a JSON config file; command-line flags override file
values. Exit codes: 0 success, 1 input/validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignment import aligned_spaces, shared_spaces, write_alignment_matrix
from .clustering import to_distance, upgma_steps, write_merge_csv, write_newick
from .divergence import (
    extreme_pairs,
    histogram,
    load_cognate_sets,
    matrix_from_summaries,
    pairwise_summaries,
    read_similarity_csv,
    write_histogram_csv,
    write_scores_csv,
    write_similarity_csv,
    write_summary_json,
)
from .embeddings import DEFAULT_VOCAB_LIMIT, lookup_index
from .evaluation import (
    eval_to_json,
    evaluate,
    format_eval_table,
    gold_from_synsets,
    load_gold_pairs,
    load_synsets,
)
from .falsefriends import (
    DEFAULT_THRESHOLD,
    class_counts,
    detect,
    detect_batch,
    write_report_json,
    write_report_tsv,
)

_CONFIG_KEYS = {
    "languages",
    "pivot",
    "embeddings",
    "alignments",
    "cognates",
    "limit",
    "threshold",
    "histogram",
    "out",
}


@dataclass
class RunConfig:
    """Declarative run description. ``alignments`` maps each non-pivot language
    to either {"seeds": path} or {"matrix": path}; the pivot always gets the
    identity map. A ``limit`` of 0, from the file or the flag, means no limit."""

    languages: list[str] = field(default_factory=list)
    pivot: str = ""
    embeddings: dict[str, str] = field(default_factory=dict)
    alignments: dict[str, dict[str, str]] = field(default_factory=dict)
    cognates: str | None = None
    limit: int | None = DEFAULT_VOCAB_LIMIT
    threshold: float = DEFAULT_THRESHOLD
    histogram: bool = False
    out: str = "out"

    def __post_init__(self) -> None:
        if self.limit == 0:
            self.limit = None

    @classmethod
    def load(cls, path: str | Path) -> RunConfig:
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        config = cls(**raw)
        base = path.parent
        config.embeddings = {
            lang: str(base / p) for lang, p in config.embeddings.items()
        }
        config.alignments = {
            lang: {kind: str(base / p) for kind, p in entry.items()}
            for lang, entry in config.alignments.items()
        }
        if config.cognates is not None:
            config.cognates = str(base / config.cognates)
        config.out = str(base / config.out)
        return config

    def override(self, args: argparse.Namespace) -> RunConfig:
        changes = {}
        if getattr(args, "langs", None):
            changes["languages"] = [l for l in args.langs.split(",") if l]
        if getattr(args, "pivot", None):
            changes["pivot"] = args.pivot
        if getattr(args, "limit", None) is not None:
            changes["limit"] = args.limit
        if getattr(args, "threshold", None) is not None:
            changes["threshold"] = args.threshold
        if getattr(args, "histogram", None):
            changes["histogram"] = True
        if getattr(args, "out", None):
            changes["out"] = args.out
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        if not self.languages:
            raise ValueError("config: no languages given")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("config: duplicate languages")
        if not self.pivot:
            raise ValueError("config: no pivot language given")
        if self.pivot in self.alignments:
            raise ValueError(
                f"config: pivot {self.pivot!r} must keep the identity alignment, "
                "remove its alignments entry"
            )
        for lang, entry in self.alignments.items():
            if set(entry) not in ({"seeds"}, {"matrix"}):
                raise ValueError(
                    f"config: alignment for {lang!r} must be exactly one of "
                    "{'seeds': path} or {'matrix': path}"
                )
        for lang, p in self.embeddings.items():
            if not Path(p).exists():
                raise ValueError(f"config: embedding file for {lang!r} not found: {p}")
        for lang, entry in self.alignments.items():
            for p in entry.values():
                if not Path(p).exists():
                    raise ValueError(f"config: alignment input for {lang!r} not found: {p}")
        if self.cognates is not None and not Path(self.cognates).exists():
            raise ValueError(f"config: cognate file not found: {self.cognates}")


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_two_langs(config: RunConfig) -> tuple[str, str]:
    if len(config.languages) != 2:
        raise ValueError(
            f"this command needs exactly two languages (use --langs), got {config.languages}"
        )
    return config.languages[0], config.languages[1]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_align(config: RunConfig) -> int:
    """Produce one alignment matrix file per non-pivot language plus an
    orthogonality report."""
    config.validate()
    out = _out_dir(config)
    # leaving the pivot out of the list spares loading it unless a seed fit needs it
    others = [lang for lang in config.languages if lang != config.pivot]
    report_lines = []
    for lang, _, amap in aligned_spaces(
        others, config.pivot, config.embeddings, config.alignments, config.limit
    ):
        write_alignment_matrix(amap, out / f"alignment_{lang}_to_{config.pivot}.txt")
        residual = amap.orthogonality_residual()
        report_lines.append(f"{lang}\t{residual:.3e}")

    report = "language\tmax_abs_orthogonality_residual\n" + "".join(
        line + "\n" for line in report_lines
    )
    (out / "alignment_report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


def cmd_divergence(config: RunConfig) -> int:
    """Write the similarity matrix, per-pair score CSVs, the extremes table,
    and (optionally) score histograms. A failing pair is reported without
    corrupting the others."""
    config.validate()
    if config.cognates is None:
        raise ValueError("config: divergence needs a cognate file")
    if len(config.languages) < 2:
        raise ValueError("divergence needs at least two languages")
    out = _out_dir(config)
    spaces = shared_spaces(
        config.languages, config.pivot, config.embeddings, config.alignments, config.limit
    )
    cognates = load_cognate_sets(config.cognates)
    summaries, failures = pairwise_summaries(cognates, config.languages, spaces)
    matrix = matrix_from_summaries(config.languages, summaries)
    write_similarity_csv(matrix.labels, matrix.values, out / "similarity_matrix.csv")

    extreme_rows = []
    for (lang1, lang2), summary in summaries.items():
        write_scores_csv(summary, out / f"scores_{lang1}_{lang2}.csv")
        best, worst = extreme_pairs(summary)
        extreme_rows.append(
            f"{lang1},{lang2},{best.word1},{best.word2},{best.similarity:.6g},"
            f"{worst.word1},{worst.word2},{worst.similarity:.6g}\n"
        )
        if config.histogram:
            write_histogram_csv(histogram(summary), out / f"histogram_{lang1}_{lang2}.csv")

    with (out / "extremes.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "lang1,lang2,most_similar_word1,most_similar_word2,most_similar,"
            "most_dissimilar_word1,most_dissimilar_word2,most_dissimilar\n"
        )
        fh.writelines(extreme_rows)
    write_summary_json(summaries, out / "divergence_summary.json")

    if failures:
        with (out / "errors.txt").open("w", encoding="utf-8", newline="\n") as fh:
            for (lang1, lang2), exc in failures.items():
                fh.write(f"{lang1}-{lang2}: {exc}\n")
        for (lang1, lang2), exc in failures.items():
            print(f"error: {lang1}-{lang2}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_cluster(config: RunConfig, matrix_path: str | None) -> int:
    """Cluster languages from a similarity-matrix CSV (by default the one
    written by the divergence command) into a Newick tree plus merge steps."""
    path = Path(matrix_path) if matrix_path else Path(config.out) / "similarity_matrix.csv"
    if not path.exists():
        raise ValueError(f"similarity matrix not found: {path} (run divergence first?)")
    out = _out_dir(config)
    matrix = read_similarity_csv(path)
    root, steps = upgma_steps(to_distance(matrix))
    write_newick(root, out / "dendrogram.nwk")
    write_merge_csv(steps, out / "merges.csv")
    for step in steps:
        print(f"merge {step.step}: {step.cluster_a} + {step.cluster_b} at {step.height:.6g}")
    return 0


def cmd_falsefriends(config: RunConfig) -> int:
    """Detect, grade, and rank false friends for one language pair."""
    config.validate()
    if config.cognates is None:
        raise ValueError("config: falsefriends needs a cognate file")
    lang1, lang2 = _require_two_langs(config)
    out = _out_dir(config)
    spaces = shared_spaces(
        [lang1, lang2], config.pivot, config.embeddings, config.alignments, config.limit
    )
    cognates = load_cognate_sets(config.cognates)
    batch = detect_batch(cognates, lang1, lang2, spaces, threshold=config.threshold)
    write_report_tsv(batch, out / f"falsefriends_{lang1}_{lang2}.tsv")
    write_report_json(batch, out / f"falsefriends_{lang1}_{lang2}.json")
    counts = class_counts(batch)
    print(
        f"{lang1}-{lang2}: {len(batch.results)} pairs scored, "
        f"hard={counts['hard']} soft={counts['soft']} "
        f"true_cognate={counts['true_cognate']}, "
        f"skipped_oov={batch.skipped_oov_count}"
    )
    return 0


def cmd_evaluate(config: RunConfig, gold_path: str | None, synset_path: str | None) -> int:
    """Score detector verdicts against a curated gold list or synset-derived
    labels; exit code reflects run validity, not metric values."""
    config.validate()
    if bool(gold_path) == bool(synset_path):
        raise ValueError("evaluate needs exactly one of --gold or --synsets")
    lang1, lang2 = _require_two_langs(config)
    out = _out_dir(config)

    if gold_path:
        gold = load_gold_pairs(gold_path, lang1, lang2)
        synset_excluded: list[tuple[str, str]] = []
    else:
        if config.cognates is None:
            raise ValueError("config: synset evaluation needs a cognate file")
        cognates = load_cognate_sets(config.cognates)
        pairs = []
        seen = set()
        for cset in cognates:
            w1, w2 = cset.form(lang1), cset.form(lang2)
            if w1 is None or w2 is None or (w1, w2) in seen:
                continue
            seen.add((w1, w2))
            pairs.append((w1, w2))
        gold, synset_excluded = gold_from_synsets(load_synsets(synset_path), pairs, lang1, lang2)
        if not gold:
            raise ValueError("no gold labels derivable: no pair has both words in the synsets")

    spaces = shared_spaces(
        [lang1, lang2], config.pivot, config.embeddings, config.alignments, config.limit
    )
    predictions = []
    for pair in gold:
        if (
            lookup_index(spaces[lang1], pair.word1) is None
            or lookup_index(spaces[lang2], pair.word2) is None
        ):
            continue
        predictions.append(detect(pair.word1, pair.word2, spaces[lang1], spaces[lang2]))

    result = evaluate(predictions, gold)
    pair_name = f"{lang1}-{lang2}"
    eval_to_json(
        result,
        out / f"eval_{lang1}_{lang2}.json",
        lang1=lang1,
        lang2=lang2,
        synset_excluded_count=len(synset_excluded),
    )
    table = format_eval_table([(pair_name, result)])
    (out / f"eval_{lang1}_{lang2}.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    if result.excluded_count:
        print(f"excluded (no prediction): {result.excluded_count}")
    if synset_excluded:
        print(f"excluded (absent from synsets): {len(synset_excluded)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON run config; flags override its values")
    shared.add_argument("--langs", help="comma-separated language subset")
    shared.add_argument("--limit", type=int, help="vocabulary cutoff per language (0 = no limit)")
    shared.add_argument("--threshold", type=float, help="hard/soft falseness threshold")
    shared.add_argument("--pivot", help="pivot language tag")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--histogram", action="store_true", default=None,
                        help="also write score histograms")

    parser = argparse.ArgumentParser(
        prog="semdiv",
        description="Cross-lingual cognate divergence and false-friend toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("align", parents=[shared], help="learn or load alignment matrices")
    sub.add_parser("divergence", parents=[shared], help="score cognate divergence per language pair")
    cluster = sub.add_parser("cluster", parents=[shared], help="cluster languages from a similarity matrix")
    cluster.add_argument("--matrix", help="similarity matrix CSV (default: <out>/similarity_matrix.csv)")
    sub.add_parser("falsefriends", parents=[shared], help="detect and grade false friends for a language pair")
    ev = sub.add_parser("evaluate", parents=[shared], help="score verdicts against a gold standard")
    ev.add_argument("--gold", help="curated gold TSV (word1, word2, FF|TC)")
    ev.add_argument("--synsets", help="synset flat file for derived gold labels")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config) if args.config else RunConfig()
        config = config.override(args)
        if args.command == "align":
            return cmd_align(config)
        if args.command == "divergence":
            return cmd_divergence(config)
        if args.command == "cluster":
            return cmd_cluster(config, args.matrix)
        if args.command == "falsefriends":
            return cmd_falsefriends(config)
        return cmd_evaluate(config, args.gold, args.synsets)
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
