#!/usr/bin/env python3
"""Generate a small synthetic multilingual corpus so the whole pipeline can be
exercised without downloading pretrained vectors.

Creates embedding files for three languages in rotated coordinate systems,
seed lexicons and exact alignment matrices back into the pivot, a cognate
table with a few engineered false friends, plus gold labels and a synset file
for the evaluation command. A ready-to-run config.json ties it together.
"""

import argparse
import json
from pathlib import Path

import numpy as np

LANGS = ["aa", "bb", "cc"]
PIVOT = "aa"
DIM = 32
N_CONCEPTS = 20
N_ANCHORS = 40
N_FILLERS = 120


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def unit(v):
    return v / np.linalg.norm(v)


def write_vec(path, words, rows):
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {rows.shape[1]}\n")
        for word, row in zip(words, rows):
            fh.write(word + " " + " ".join(f"{x:.8g}" for x in row) + "\n")


def write_matrix(path, matrix):
    with path.open("w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def build(out: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)

    basis = random_orthogonal(DIM, rng)
    concepts = basis[:N_CONCEPTS]          # one direction per cognate set
    complement = basis[N_CONCEPTS:]        # room for per-language drift

    # concepts 0 and 1 become false friends in bb: the "cognate" drifts away
    # while a different bb word stays on the concept
    drifted = {("bb", 0), ("bb", 1)}

    rotations = {
        lang: np.eye(DIM) if lang == PIVOT else random_orthogonal(DIM, rng)
        for lang in LANGS
    }

    vocab = {lang: [] for lang in LANGS}
    rows = {lang: [] for lang in LANGS}
    cognate_rows = []
    gold_rows = []
    synset_rows = []

    for i in range(N_CONCEPTS):
        forms = {}
        for lang in LANGS:
            word = f"{lang}_w{i}"
            if (lang, i) in drifted:
                cos = rng.uniform(0.05, 0.2)
            elif lang == PIVOT:
                cos = 1.0
            else:
                cos = rng.uniform(0.55, 0.95)
            drift_dir = unit(complement.T @ rng.normal(size=DIM - N_CONCEPTS))
            vec = cos * concepts[i] + np.sqrt(1.0 - cos * cos) * drift_dir
            vocab[lang].append(word)
            rows[lang].append(vec)
            forms[lang] = word
        cognate_rows.append(f"ety{i}\t" + "\t".join(forms[lang] for lang in LANGS))

        # a stay-on-concept replacement word for each drifted cognate
        for lang, j in sorted(drifted):
            if j != i:
                continue
            word = f"{lang}_fix{i}"
            vec = 0.9 * concepts[i] + np.sqrt(1 - 0.81) * unit(
                complement.T @ rng.normal(size=DIM - N_CONCEPTS)
            )
            vocab[lang].append(word)
            rows[lang].append(vec)

        is_ff = any((lang, i) in drifted for lang in LANGS)
        gold_rows.append(f"{forms[PIVOT]}\t{forms['bb']}\t{'FF' if is_ff else 'TC'}")
        members = [f"{PIVOT}:{forms[PIVOT]}", f"cc:{forms['cc']}"]
        if not is_ff:
            members.append(f"bb:{forms['bb']}")
            synset_rows.append(" ".join(members))
        else:
            synset_rows.append(" ".join(members))
            synset_rows.append(f"bb:{forms['bb']}")

    # shared anchor words: identical pivot-coordinate vectors, the seed lexicon
    anchor_vectors = [unit(rng.normal(size=DIM)) for _ in range(N_ANCHORS)]
    for lang in LANGS:
        for j, vec in enumerate(anchor_vectors):
            vocab[lang].append(f"{lang}_t{j}")
            rows[lang].append(vec)

    for lang in LANGS:
        for j in range(N_FILLERS):
            vocab[lang].append(f"{lang}_x{j}")
            rows[lang].append(unit(rng.normal(size=DIM)))

    for lang in LANGS:
        matrix = np.vstack(rows[lang]) @ rotations[lang]
        write_vec(out / f"{lang}.vec", vocab[lang], matrix)
        if lang != PIVOT:
            write_matrix(out / f"{lang}_to_{PIVOT}.txt", rotations[lang].T)
            with (out / f"seeds_{lang}_{PIVOT}.tsv").open("w", encoding="utf-8") as fh:
                for j in range(N_ANCHORS):
                    fh.write(f"{lang}_t{j}\t{PIVOT}_t{j}\n")

    (out / "cognates.tsv").write_text(
        "etymon\t" + "\t".join(LANGS) + "\n" + "\n".join(cognate_rows) + "\n",
        encoding="utf-8",
    )
    (out / "gold_aa_bb.tsv").write_text("\n".join(gold_rows) + "\n", encoding="utf-8")
    (out / "synsets.txt").write_text("\n".join(synset_rows) + "\n", encoding="utf-8")

    config = {
        "languages": LANGS,
        "pivot": PIVOT,
        "embeddings": {lang: f"{lang}.vec" for lang in LANGS},
        "alignments": {
            lang: {"seeds": f"seeds_{lang}_{PIVOT}.tsv"} for lang in LANGS if lang != PIVOT
        },
        "cognates": "cognates.tsv",
        "threshold": 0.3,
        "out": "out",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    print(f"wrote toy corpus to {out}/")
    print("try:")
    print(f"  semdiv align --config {out}/config.json")
    print(f"  semdiv divergence --config {out}/config.json --histogram")
    print(f"  semdiv cluster --config {out}/config.json")
    print(f"  semdiv falsefriends --config {out}/config.json --langs aa,bb")
    print(f"  semdiv evaluate --config {out}/config.json --langs aa,bb --gold {out}/gold_aa_bb.tsv")
    print(f"  semdiv evaluate --config {out}/config.json --langs aa,bb --synsets {out}/synsets.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="toydata", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    args = parser.parse_args()
    build(Path(args.out), args.seed)


if __name__ == "__main__":
    main()
