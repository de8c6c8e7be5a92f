"""Seeded synthetic corpus with planted answers for the semdiv benchmark.

Every corpus is built from a language tree. Each cognate set (concept) gets a
private orthonormal basis of the space, one axis per tree node plus two spare
axes; a language's word for the concept is a fixed unit combination of the
axes on its root-to-leaf path. Two languages' cognates therefore have an exact
cosine equal to the level of their lowest common ancestor (scaled by a
per-concept factor), so pairwise means and the UPGMA tree are known in
advance. Planted false friends replace the second language's word with a
drifted one and add a correction word that sits closer to the first word.

Vector files store pivot-space vectors rotated by a random orthogonal matrix
per language, written as fixed-width decimals (9 characters: 7 decimals for
non-negative values, 6 for negative ones). Cognate, correction and seed words
sit inside the configured ``limit``; planted out-of-vocabulary forms and
fillers are written after it, so a program that ignores the limit fails the
checks.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, CorpusSpec

HARD_DRIFT = 0.05       # cosine of a hard false friend to its cognate
SOFT_DRIFT = 0.70       # cosine of a soft false friend to its cognate
CORRECTION_SIM = 0.90   # cosine of the planted correction to the cognate
JITTER = (0.85, 1.0)    # per-concept factor on every tree level
THRESHOLD = 0.3         # hard/soft split passed to the program
CHUNK = 2048            # concepts or rows generated per block


def _leaves(node) -> list[str]:
    if isinstance(node, str):
        return [node]
    return _leaves(node[0]) + _leaves(node[1])


def _internal_nodes(node, out=None) -> list[tuple]:
    out = [] if out is None else out
    if not isinstance(node, str):
        out.append(node)
        _internal_nodes(node[0], out)
        _internal_nodes(node[1], out)
    return out


def expected_merges(tree) -> list[list[str]]:
    """UPGMA merge order of a tree whose levels are the mean similarities:
    closest clusters first, each merge named like ``merges.csv`` names it."""
    steps = sorted(_internal_nodes(tree), key=lambda n: -n[2])
    return [
        sorted("+".join(sorted(_leaves(child))) for child in node[:2]) for node in steps
    ]


def _path_levels(tree) -> dict[str, list[tuple[int, float]]]:
    """Language -> [(internal node index, level)] from the root down."""
    nodes = _internal_nodes(tree)
    index = {id(n): i for i, n in enumerate(nodes)}
    paths: dict[str, list[tuple[int, float]]] = {}

    def walk(node, above):
        if isinstance(node, str):
            paths[node] = above
            return
        here = above + [(index[id(node)], node[2])]
        walk(node[0], here)
        walk(node[1], here)

    walk(tree, [])
    return paths


def _coefficients(spec: CorpusSpec, jitter: np.ndarray) -> dict[str, np.ndarray]:
    """Language -> (concepts, axes) unit coefficient rows."""
    paths = _path_levels(spec.tree)
    n_internal = len(_internal_nodes(spec.tree))
    axes = n_internal + len(spec.languages) + 2
    coeffs = {}
    for li, lang in enumerate(spec.languages):
        c = np.zeros((len(jitter), axes))
        below = np.zeros(len(jitter))
        for node, level in paths[lang]:
            scaled = level * jitter
            c[:, node] = np.sqrt(scaled - below)
            below = scaled
        c[:, n_internal + li] = np.sqrt(1.0 - below)
        coeffs[lang] = c
    return coeffs


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _fixed_width(rows: np.ndarray) -> bytes:
    """Rows of |x| < 1 as " d.ddddddd" / " -0.dddddd" fields, 10 bytes each."""
    neg = rows < 0
    q = np.where(neg, np.rint(-rows * 1e6), np.rint(rows * 1e7)).astype(np.int64)
    q = np.minimum(q, np.where(neg, 999_999, 9_999_999))
    out = np.empty(rows.shape + (10,), dtype=np.uint8)
    out[..., 0] = ord(" ")
    out[..., 1] = np.where(neg, ord("-"), ord("0"))
    out[..., 2] = np.where(neg, ord("0"), ord("."))
    for pos in range(9, 2, -1):
        out[..., pos] = q % 10 + ord("0")
        q //= 10
    out[..., 3][neg] = ord(".")
    return out.tobytes()


def write_vectors(path: Path, words: list[str], rows: np.ndarray, limit: int) -> int:
    """Write a vector file; returns the byte size of the header plus the
    first ``limit`` rows (what a reader honouring the limit parses)."""
    n, dim = rows.shape
    width = dim * 10
    prefix = 0
    with path.open("wb") as fh:
        header = f"{n} {dim}\n".encode()
        fh.write(header)
        written = len(header)
        for start in range(0, n, CHUNK):
            block = _fixed_width(rows[start : start + CHUNK])
            lines = [
                words[start + i].encode() + block[i * width : (i + 1) * width] + b"\n"
                for i in range(len(block) // width)
            ]
            for i, line in enumerate(lines):
                if start + i == limit:
                    prefix = written
                written += len(line)
            fh.write(b"".join(lines))
    return prefix if n > limit else written


def build(spec: CorpusSpec, out: Path, seed: int) -> dict:
    """Write the corpus for ``spec`` into ``out`` and return the answers
    (also written to ``out/answers.json``)."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    langs, pivot, dim, k = spec.languages, spec.pivot, spec.dim, spec.cognates
    n_internal = len(_internal_nodes(spec.tree))
    drift_axis, corr_axis = n_internal + len(langs), n_internal + len(langs) + 1

    # which concepts are planted false friends, and which forms fall past the limit
    order = rng.permutation(k)
    n_ff = int(round(spec.ff_share * k)) if spec.ff_pair else 0
    ff_ids = np.sort(order[:n_ff])
    soft = np.zeros(k, dtype=bool)
    soft[ff_ids[rng.random(n_ff) < 0.5]] = True
    is_ff = np.zeros(k, dtype=bool)
    is_ff[ff_ids] = True
    oov = {lang: np.zeros(k, dtype=bool) for lang in langs}
    candidates = order[n_ff:]
    for lang in langs[1:]:
        if spec.rows[lang] == spec.limit:
            oov[lang][rng.choice(candidates, spec.oov_per_lang, replace=False)] = True

    jitter = rng.uniform(*JITTER, size=k)
    coeffs = _coefficients(spec, jitter)
    if spec.ff_pair:
        l1, l2 = spec.ff_pair
        c1 = coeffs[l1][is_ff]
        drift = np.where(soft[is_ff], SOFT_DRIFT, HARD_DRIFT)[:, None]
        c2 = drift * c1
        c2[:, drift_axis] = np.sqrt(1.0 - drift[:, 0] ** 2)
        coeffs[l2][is_ff] = c2
        corr = CORRECTION_SIM * c1
        corr[:, corr_axis] = math.sqrt(1.0 - CORRECTION_SIM**2)

    # pivot-space vectors of every cognate form, block by block of concepts
    vecs = {lang: np.empty((k, dim)) for lang in langs}
    corrections = np.empty((n_ff, dim))
    ff_rank = np.cumsum(is_ff) - 1
    for start in range(0, k, CHUNK):
        stop = min(start + CHUNK, k)
        basis, _ = np.linalg.qr(rng.normal(size=(stop - start, dim, coeffs[pivot].shape[1])))
        for lang in langs:
            vecs[lang][start:stop] = np.einsum("kdm,km->kd", basis, coeffs[lang][start:stop])
        sel = is_ff[start:stop]
        if sel.any():
            corrections[ff_rank[start:stop][sel]] = np.einsum(
                "kdm,km->kd", basis[sel], corr[ff_rank[start:stop][sel]]
            )

    anchors = _unit_rows(rng, spec.anchors, dim)
    answers: dict = {
        "languages": list(langs),
        "pivot": pivot,
        "files": {},
        "alignments": {},
        "means": {},
        "scored": {},
        "oov": {},
        "merges": expected_merges(spec.tree),
    }

    config_alignments = {}
    for lang in langs:
        words = [f"{lang}_{i}" for i in range(k)]
        keep = ~oov[lang]
        inside_words = [w for w, ok in zip(words, keep) if ok]
        inside = [vecs[lang][keep]]
        if spec.ff_pair and lang == spec.ff_pair[1]:
            inside_words += [f"{lang}_fix{i}" for i in ff_ids]
            inside.append(corrections)
        inside_words += [f"{lang}_t{j}" for j in range(spec.anchors)]
        inside.append(anchors)
        n_fill = spec.rows[lang] - len(inside_words)
        if n_fill < 0:
            raise ValueError(f"{lang}: {spec.rows[lang]} rows cannot hold {len(inside_words)} words")
        inside_words += [f"{lang}_x{j}" for j in range(n_fill)]
        inside.append(_unit_rows(rng, n_fill, dim))
        shuffle = rng.permutation(len(inside_words))
        file_words = [inside_words[i] for i in shuffle]
        rows = np.vstack(inside)[shuffle]
        if spec.rows[lang] == spec.limit:
            outside_words = [w for w, ok in zip(words, keep) if not ok]
            n_extra = spec.extra_rows - len(outside_words)
            outside_words += [f"{lang}_x{spec.rows[lang] + j}" for j in range(n_extra)]
            file_words += outside_words
            rows = np.vstack([rows, vecs[lang][~keep], _unit_rows(rng, n_extra, dim)])
        if lang != pivot:
            rotation = _random_orthogonal(dim, rng)
            rows = rows @ rotation
            # the planted map back into the pivot; matrix-aligned languages get
            # it as their alignment input, seed-aligned ones must recover it
            matrix = f"{lang}_to_{pivot}.txt"
            with (out / matrix).open("w", encoding="utf-8") as fh:
                fh.writelines(" ".join(f"{x:.17g}" for x in r) + "\n" for r in rotation.T)
            answers["alignments"][lang] = matrix
            if lang in spec.seed_aligned:
                seeds = "".join(f"{lang}_t{j}\t{pivot}_t{j}\n" for j in range(spec.anchors))
                (out / f"seeds_{lang}.tsv").write_text(seeds, encoding="utf-8")
                config_alignments[lang] = {"seeds": f"seeds_{lang}.tsv"}
            else:
                config_alignments[lang] = {"matrix": matrix}
        np.clip(rows, -0.9999999, 0.9999999, out=rows)
        prefix = write_vectors(out / f"{lang}.vec", file_words, rows, spec.limit)
        answers["files"][f"{lang}.vec"] = {"bytes_read": prefix}

    for i, lang1 in enumerate(langs):
        for lang2 in langs[i + 1 :]:
            scored = ~(oov[lang1] | oov[lang2])
            cos = np.einsum("kd,kd->k", vecs[lang1][scored], vecs[lang2][scored])
            key = f"{lang1}-{lang2}"
            answers["means"][key] = math.fsum(cos) / len(cos)
            answers["scored"][key] = int(scored.sum())
            answers["oov"][key] = int(k - scored.sum())

    (out / "cognates.tsv").write_text(
        "etymon\t" + "\t".join(langs) + "\n"
        + "".join(f"ety{i}\t" + "\t".join(f"{l}_{i}" for l in langs) + "\n" for i in range(k)),
        encoding="utf-8",
    )
    config = {
        "languages": list(langs),
        "pivot": pivot,
        "embeddings": {lang: f"{lang}.vec" for lang in langs},
        "alignments": config_alignments,
        "cognates": "cognates.tsv",
        "limit": spec.limit,
        "threshold": THRESHOLD,
        "out": "out",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    if spec.ff_pair:
        l1, l2 = spec.ff_pair
        scorable = ~(oov[l1] | oov[l2])
        answers["ff_pair"] = [l1, l2]
        answers["false_friends"] = {
            f"{l1}_{i}": {
                "word2": f"{l2}_{i}",
                "correction": f"{l2}_fix{i}",
                "class": "soft" if soft[i] else "hard",
            }
            for i in ff_ids
        }
        answers["true_cognates"] = int((scorable & ~is_ff).sum())
        gold_tc = rng.choice(
            np.flatnonzero(scorable & ~is_ff), spec.gold_pairs - n_ff, replace=False
        )
        gold = [(i, "FF") for i in ff_ids] + [(i, "TC") for i in gold_tc]
        gold = [gold[j] for j in rng.permutation(len(gold))]
        (out / "gold.tsv").write_text(
            "".join(f"{l1}_{i}\t{l2}_{i}\t{label}\n" for i, label in gold), encoding="utf-8"
        )
        answers["confusion"] = {"tp": n_ff, "tn": len(gold) - n_ff, "fp": 0, "fn": 0}
        scanned = min(spec.rows[l2], spec.limit)
        answers["scan_working_set_bytes"] = scanned * dim * 8
    (out / "answers.json").write_text(json.dumps(answers, indent=1) + "\n", encoding="utf-8")
    return answers


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one workload's corpus and its planted answers.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    build(WORKLOADS[args.size][args.workload].spec, Path(args.out), args.seed)


if __name__ == "__main__":
    main()
