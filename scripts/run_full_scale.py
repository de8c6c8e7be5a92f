#!/usr/bin/env python3
"""Reproduce the reference results on pretrained public data.

Expects a data directory (default: $SEMDIV_DATA_DIR) laid out as:

    embeddings/wiki.<lang>.vec     fastText text vectors trained on Wikipedia
                                   (es, pt, fr, it, ro, la, en as available)
    alignments/<lang>_to_en.txt    published orthogonal alignment matrices
                                   into the English space, one per language
    cognates/cognates.tsv          cognate table: header "etymon<TAB>ro<TAB>fr..."
    gold/es_pt_curated.tsv         curated es-pt pairs: word1, word2, FF|TC

Every stage degrades gracefully: whatever data is present is used, the rest is
reported as skipped. Comparison lines show the expected reference value, the
measured value, and whether it lands within tolerance.
"""

import argparse
import os
import sys
from pathlib import Path

from semdiv.alignment import shared_spaces
from semdiv.clustering import to_distance, to_newick, upgma_steps
from semdiv.divergence import (
    load_cognate_sets,
    matrix_from_summaries,
    pairwise_summaries,
    write_similarity_csv,
)
from semdiv.evaluation import as_percent, evaluate, load_gold_pairs
from semdiv.falsefriends import detect, detect_batch, write_report_tsv

ROMANCE = ["es", "fr", "it", "pt", "ro", "la"]

# reference figures for the public Romance cognate dataset
REFERENCE_MEANS = {
    ("es", "fr"): 0.67, ("es", "it"): 0.69, ("es", "pt"): 0.70,
    ("es", "ro"): 0.58, ("es", "la"): 0.41, ("fr", "it"): 0.66,
    ("fr", "pt"): 0.64, ("fr", "ro"): 0.56, ("fr", "la"): 0.40,
    ("it", "pt"): 0.66, ("it", "ro"): 0.57, ("it", "la"): 0.41,
    ("pt", "ro"): 0.57, ("pt", "la"): 0.41, ("ro", "la"): 0.40,
}
REFERENCE_ES_PT_EVAL = {"accuracy": 81.12, "precision": 86.68, "recall": 75.59}
REFERENCE_PRIX_PREZ = {"correction": "premio", "falseness": 0.67}


def check(label, measured, expected, tolerance):
    ok = abs(measured - expected) <= tolerance
    mark = "ok " if ok else "OFF"
    print(f"  [{mark}] {label}: measured {measured:.4f}, reference {expected} +/- {tolerance}")
    return ok


def available_languages(data: Path, langs):
    out = []
    for lang in langs:
        vec = data / f"embeddings/wiki.{lang}.vec"
        matrix = data / f"alignments/{lang}_to_en.txt"
        if vec.exists() and (lang == "en" or matrix.exists()):
            out.append(lang)
        else:
            print(f"  skipping {lang}: missing {vec.name} or {matrix.name}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--data", default=os.environ.get("SEMDIV_DATA_DIR"),
                        help="data directory (default: $SEMDIV_DATA_DIR)")
    parser.add_argument("--out", default="fullscale_out", help="output directory")
    parser.add_argument("--limit", type=int, default=200_000, help="vocabulary cutoff")
    parser.add_argument("--threshold", type=float, default=0.3)
    args = parser.parse_args()

    if not args.data:
        sys.exit("no data directory: pass --data or set SEMDIV_DATA_DIR")
    data = Path(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("== languages ==")
    langs = available_languages(data, ROMANCE)
    print(f"  loading + aligning {' '.join(langs)} ...")
    spaces = shared_spaces(
        langs,
        "en",
        {lang: data / f"embeddings/wiki.{lang}.vec" for lang in langs},
        {lang: {"matrix": data / f"alignments/{lang}_to_en.txt"} for lang in langs},
        args.limit,
    )

    cognate_path = data / "cognates/cognates.tsv"
    if len(langs) >= 2 and cognate_path.exists():
        print("== cognate divergence ==")
        cognates = load_cognate_sets(cognate_path)
        summaries, failures = pairwise_summaries(cognates, langs, spaces)
        matrix = matrix_from_summaries(langs, summaries)
        write_similarity_csv(matrix.labels, matrix.values, out / "similarity_matrix.csv")
        for (l1, l2), summary in summaries.items():
            reference = REFERENCE_MEANS.get((l1, l2)) or REFERENCE_MEANS.get((l2, l1))
            if reference is not None:
                check(f"{l1}-{l2} mean similarity", summary.mean_similarity, reference, 0.03)
        for (l1, l2), exc in failures.items():
            print(f"  [OFF] {l1}-{l2} not scorable: {exc}")
        if failures:
            print("  dendrogram skipped: not every language pair was scored")
        else:
            root, _ = upgma_steps(to_distance(matrix))
            print(f"  dendrogram: {to_newick(root)}")
            (out / "dendrogram.nwk").write_text(to_newick(root) + "\n", encoding="utf-8")
    else:
        print(f"== cognate divergence skipped (need >= 2 languages and {cognate_path}) ==")

    if "fr" in spaces and "es" in spaces:
        print("== false friends fr-es ==")
        try:
            report = detect("prix", "prez", spaces["fr"], spaces["es"])
            print(f"  prix/prez: false_friend={report.is_false_friend} "
                  f"correction={report.correction!r} falseness={report.falseness:.3f}")
            if report.is_false_friend:
                check("prix/prez falseness", report.falseness,
                      REFERENCE_PRIX_PREZ["falseness"], 0.05)
                print(f"  reference correction: {REFERENCE_PRIX_PREZ['correction']!r}")
        except ValueError as exc:
            print(f"  prix/prez not scorable: {exc}")
        if cognate_path.exists():
            batch = detect_batch(load_cognate_sets(cognate_path), "fr", "es", spaces,
                                 threshold=args.threshold)
            write_report_tsv(batch, out / "falsefriends_fr_es.tsv")
            print(f"  wrote {len(batch.results)} verdicts to falsefriends_fr_es.tsv")

    gold_path = data / "gold/es_pt_curated.tsv"
    if "es" in spaces and "pt" in spaces and gold_path.exists():
        print("== curated es-pt evaluation ==")
        gold = load_gold_pairs(gold_path, "es", "pt")
        predictions = []
        for pair in gold:
            try:
                predictions.append(detect(pair.word1, pair.word2, spaces["es"], spaces["pt"]))
            except ValueError:
                continue
        result = evaluate(predictions, gold)
        print(f"  accuracy {as_percent(result.accuracy)}  "
              f"precision {as_percent(result.precision)}  recall {as_percent(result.recall)}  "
              f"(evaluated {result.evaluated_count}, excluded {result.excluded_count})")
        check("accuracy %", 100 * result.accuracy, REFERENCE_ES_PT_EVAL["accuracy"], 2.0)
        for metric, value in (("precision", result.precision), ("recall", result.recall)):
            if value is None:
                print(f"  [OFF] {metric} %: undefined (no positive predictions)")
            else:
                check(f"{metric} %", 100 * value, REFERENCE_ES_PT_EVAL[metric], 2.0)
    else:
        print(f"== curated evaluation skipped (need es, pt and {gold_path}) ==")


if __name__ == "__main__":
    main()
