"""Checks of semdiv's output files against a corpus's planted answers.

Each check is one operation for ``failed_ops_frac``: it returns None when the
outputs match and a one-line reason when they do not. Plain Python only, so
the benchmark's driver process stays small.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# similarity_matrix.csv is written at 6 significant digits; the planted means
# come from the generator's unquantized vectors
MEAN_TOL = 1e-4
# max-abs entry difference between a learned alignment and the planted map
ALIGN_TOL = 1e-4


def _matrix(path: Path) -> list[list[float]]:
    with path.open(encoding="utf-8") as fh:
        return [[float(x) for x in line.split()] for line in fh if line.strip()]


def check_alignment(out: Path, corpus: Path, answers: dict) -> str | None:
    pivot = answers["pivot"]
    for lang, planted in answers["alignments"].items():
        got = _matrix(out / f"alignment_{lang}_to_{pivot}.txt")
        want = _matrix(corpus / planted)
        if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
            return f"{lang}: alignment shape differs from the planted map"
        worst = max(abs(g - w) for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))
        if worst > ALIGN_TOL:
            return f"{lang}: alignment is {worst:.3g} from the planted map (tol {ALIGN_TOL})"
    return None


def check_similarity_matrix(out: Path, corpus: Path, answers: dict) -> str | None:
    with (out / "similarity_matrix.csv").open(encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0][1:]
    if labels != answers["languages"]:
        return f"matrix labels {labels} != {answers['languages']}"
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            want = 1.0 if i == j else answers["means"][f"{labels[min(i, j)]}-{labels[max(i, j)]}"]
            if not abs(float(cell) - want) <= MEAN_TOL:
                return f"{labels[i]}-{labels[j]}: mean {cell} vs planted {want:.6f}"
    return None


def check_divergence_counts(out: Path, corpus: Path, answers: dict) -> str | None:
    summary = json.loads((out / "divergence_summary.json").read_text(encoding="utf-8"))
    for pair in summary["pairs"]:
        key = f"{pair['lang1']}-{pair['lang2']}"
        got = (pair["scored_count"], pair["skipped_oov_count"])
        want = (answers["scored"][key], answers["oov"][key])
        if got != want:
            return f"{key}: (scored, oov) {got} != planted {want}"
        with (out / f"histogram_{key.replace('-', '_')}.csv").open(encoding="utf-8") as fh:
            total = sum(int(row["count"]) for row in csv.DictReader(fh))
        if total != want[0]:
            return f"{key}: histogram holds {total} scores, planted {want[0]}"
    if len(summary["pairs"]) != len(answers["means"]):
        return f"{len(summary['pairs'])} pair summaries, planted {len(answers['means'])}"
    return None


def check_merges(out: Path, corpus: Path, answers: dict) -> str | None:
    with (out / "merges.csv").open(encoding="utf-8") as fh:
        got = [sorted((row["cluster_a"], row["cluster_b"])) for row in csv.DictReader(fh)]
    if got != answers["merges"]:
        return f"merge order {got} != planted {answers['merges']}"
    return None


def _falsefriends_rows(out: Path, answers: dict) -> list[dict]:
    l1, l2 = answers["ff_pair"]
    with (out / f"falsefriends_{l1}_{l2}.tsv").open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE))


def check_false_friends(out: Path, corpus: Path, answers: dict) -> str | None:
    planted = answers["false_friends"]
    rows = _falsefriends_rows(out, answers)
    flagged = {r["word1"]: r for r in rows if r["is_false_friend"] == "true"}
    for word1, want in planted.items():
        got = flagged.get(word1)
        if got is None:
            return f"planted false friend {word1}/{want['word2']} not flagged"
        if (got["word2"], got["correction"], got["class"]) != (
            want["word2"], want["correction"], want["class"]
        ):
            return f"{word1}: got {got['correction']}/{got['class']}, planted {want['correction']}/{want['class']}"
    extra = sorted(set(flagged) - set(planted))
    if extra:
        return f"{len(extra)} true cognates flagged, e.g. {extra[0]}"
    if len(rows) != len(planted) + answers["true_cognates"]:
        return f"{len(rows)} pairs reported, planted {len(planted) + answers['true_cognates']}"
    return None


def check_evaluate(out: Path, corpus: Path, answers: dict) -> str | None:
    l1, l2 = answers["ff_pair"]
    result = json.loads((out / f"eval_{l1}_{l2}.json").read_text(encoding="utf-8"))
    got = {key: result[key] for key in answers["confusion"]}
    if got != answers["confusion"] or result["excluded_count"] != 0:
        return f"confusion {got} (excluded {result['excluded_count']}) != planted {answers['confusion']}"
    return None


CHECKS = {
    "align": [check_alignment],
    "divergence": [check_similarity_matrix, check_divergence_counts],
    "cluster": [check_merges],
    "falsefriends": [check_false_friends],
    "evaluate": [check_evaluate],
}


def run_checks(commands: list[str], out: Path, corpus: Path, answers: dict) -> list[tuple[str, str | None]]:
    """(check name, failure or None) for every check the commands call for."""
    results = []
    for command in commands:
        for check in CHECKS[command]:
            try:
                failure = check(out, corpus, answers)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failure = f"unreadable output: {type(exc).__name__}: {exc}"
            results.append((check.__name__, failure))
    return results


def verdict_digest(out: Path, answers: dict) -> str:
    """sha256 of the falsefriends TSV without its ``falseness`` column, so a
    last-digit change in scores is not a verdict change."""
    h = hashlib.sha256()
    for row in _falsefriends_rows(out, answers):
        h.update("\t".join(
            (row["word1"], row["word2"], row["is_false_friend"], row["correction"], row["class"])
        ).encode() + b"\n")
    return h.hexdigest()
