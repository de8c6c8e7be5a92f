"""Cosine scoring of cognate pairs in a shared space, aggregated into
per-language-pair means, extremes, histograms, and a similarity matrix."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, FloatArray, _clamp, lookup

HISTOGRAM_BINS = 50

DEFAULT_ETYMON_LANGUAGE = "la"


@dataclass(frozen=True)
class CognateSet:
    """One etymon plus its per-language descendant surface forms.

    The ancestor language is scored like any other column: asking for the
    ``etymon_language`` form returns the etymon itself.
    """

    etymon: str
    forms: Mapping[str, str]
    etymon_language: str = DEFAULT_ETYMON_LANGUAGE

    def __post_init__(self) -> None:
        forms = {lang: word for lang, word in dict(self.forms).items() if word}
        if self.etymon_language in forms:
            raise ValueError(
                f"etymon language {self.etymon_language!r} cannot also be a descendant column"
            )
        if len(forms) < 2 and not (len(forms) >= 1 and self.etymon):
            raise ValueError(
                f"cognate set for etymon {self.etymon!r} needs at least two forms, "
                "or one form plus the etymon"
            )
        object.__setattr__(self, "forms", forms)

    def form(self, language: str) -> str | None:
        if language == self.etymon_language:
            return self.etymon or None
        return self.forms.get(language)


@dataclass(frozen=True)
class CognatePairScore:
    lang1: str
    lang2: str
    word1: str
    word2: str
    similarity: float

    def __post_init__(self) -> None:
        if self.lang1 == self.lang2:
            raise ValueError(f"pair score needs two distinct languages, got {self.lang1!r}")
        object.__setattr__(self, "similarity", _clamp(self.similarity))


@dataclass(frozen=True)
class OovSkip:
    """Marker for a pair that could not be scored; records which side was missing."""

    language: str
    word: str


@dataclass(frozen=True)
class LanguagePairSummary:
    lang1: str
    lang2: str
    mean_similarity: float
    scored_count: int
    skipped_oov_count: int
    scores: tuple[CognatePairScore, ...]


@dataclass(frozen=True)
class Histogram:
    """Counts over 50 uniform bins on [-1, 1]; bins are right-open except the
    last, which closes at 1.0."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    labels: tuple[str, ...]
    values: FloatArray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate language labels")
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (len(labels), len(labels)):
            raise ValueError(f"matrix shape {values.shape} does not match {len(labels)} labels")
        values.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)


def cosine_similarity(u: FloatArray, v: FloatArray) -> float:
    """cos(u, v), clamped to [-1, 1]. Zero vectors are rejected."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return _clamp(float(np.dot(u, v)) / (nu * nv))


def score_pair(
    space1: EmbeddingSpace,
    space2: EmbeddingSpace,
    word1: str,
    word2: str,
) -> CognatePairScore | OovSkip:
    """Similarity of two words across shared-space embeddings, or a skip marker
    naming the out-of-vocabulary side."""
    v1 = lookup(space1, word1)
    if v1 is None:
        return OovSkip(space1.language, word1)
    v2 = lookup(space2, word2)
    if v2 is None:
        return OovSkip(space2.language, word2)
    return CognatePairScore(
        space1.language, space2.language, word1, word2, cosine_similarity(v1, v2)
    )


def language_pair_divergence(
    cognates: Sequence[CognateSet],
    lang1: str,
    lang2: str,
    spaces: Mapping[str, EmbeddingSpace],
) -> LanguagePairSummary:
    """Score every cognate set carrying both forms; the pair's divergence figure
    is the arithmetic mean over the scored pairs. OOV pairs are counted, never
    imputed."""
    for lang in (lang1, lang2):
        if lang not in spaces:
            raise ValueError(f"no embedding space for language {lang!r}")
    space1, space2 = spaces[lang1], spaces[lang2]
    scores: list[CognatePairScore] = []
    skipped = 0
    for cset in cognates:
        w1 = cset.form(lang1)
        w2 = cset.form(lang2)
        if w1 is None or w2 is None:
            continue
        result = score_pair(space1, space2, w1, w2)
        if isinstance(result, OovSkip):
            skipped += 1
        else:
            scores.append(result)
    if not scores:
        raise ValueError(f"no scorable pairs for {lang1}-{lang2}")
    mean = math.fsum(s.similarity for s in scores) / len(scores)
    return LanguagePairSummary(lang1, lang2, mean, len(scores), skipped, tuple(scores))


def extreme_pairs(summary: LanguagePairSummary) -> tuple[CognatePairScore, CognatePairScore]:
    """(most similar, most dissimilar) scored pair; ties keep the earlier one."""
    if not summary.scores:
        raise ValueError("summary has no scores")
    best = worst = summary.scores[0]
    for score in summary.scores[1:]:
        if score.similarity > best.similarity:
            best = score
        if score.similarity < worst.similarity:
            worst = score
    return best, worst


def histogram(summary: LanguagePairSummary) -> Histogram:
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    sims = np.array([s.similarity for s in summary.scores], dtype=np.float64)
    # bin k holds [edges[k], edges[k+1]); 1.0 falls past the last edge and is
    # clipped into the last bin, which closes it
    bins = np.clip(np.searchsorted(edges, sims, side="right") - 1, 0, HISTOGRAM_BINS - 1)
    counts = np.bincount(bins, minlength=HISTOGRAM_BINS)
    return Histogram(tuple(float(e) for e in edges), tuple(int(c) for c in counts))


def pairwise_summaries(
    cognates: Sequence[CognateSet],
    languages: Sequence[str],
    spaces: Mapping[str, EmbeddingSpace],
) -> tuple[dict[tuple[str, str], LanguagePairSummary], dict[tuple[str, str], ValueError]]:
    """One summary per unordered language pair, keyed in input-list order,
    plus the error of each pair that could not be scored; a failing pair
    leaves the others untouched."""
    if len(languages) < 2:
        raise ValueError("need at least 2 languages")
    if len(set(languages)) != len(languages):
        raise ValueError("duplicate languages")
    summaries: dict[tuple[str, str], LanguagePairSummary] = {}
    failures: dict[tuple[str, str], ValueError] = {}
    for i, lang1 in enumerate(languages):
        for lang2 in languages[i + 1 :]:
            try:
                summaries[(lang1, lang2)] = language_pair_divergence(
                    cognates, lang1, lang2, spaces
                )
            except ValueError as exc:
                failures[(lang1, lang2)] = exc
    return summaries, failures


def matrix_from_summaries(
    languages: Sequence[str],
    summaries: Mapping[tuple[str, str], LanguagePairSummary],
) -> SimilarityMatrix:
    """Unit diagonal, mirrored pair means, NaN for pairs without a summary."""
    n = len(languages)
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    index = {lang: i for i, lang in enumerate(languages)}
    for (lang1, lang2), summary in summaries.items():
        i, j = index[lang1], index[lang2]
        values[i, j] = values[j, i] = summary.mean_similarity
    return SimilarityMatrix(tuple(languages), values)


def similarity_matrix(
    cognates: Sequence[CognateSet],
    languages: Sequence[str],
    spaces: Mapping[str, EmbeddingSpace],
) -> SimilarityMatrix:
    """Symmetric matrix of mean cognate similarities with unit diagonal; each
    unordered pair is computed once and mirrored. Raises the first pair's
    error if any pair fails."""
    summaries, failures = pairwise_summaries(cognates, languages, spaces)
    if failures:
        raise next(iter(failures.values()))
    return matrix_from_summaries(languages, summaries)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_cognate_sets(
    path: str | Path, etymon_language: str = DEFAULT_ETYMON_LANGUAGE
) -> list[CognateSet]:
    """Read a cognate TSV: header row "etymon<TAB>lang1<TAB>lang2...", one set
    per row, empty cell = absent form."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        header = [h.strip() for h in header_line.rstrip("\r\n").split("\t")]
        if not header or header[0] != "etymon":
            raise ValueError(f"{path}: first header column must be 'etymon', got {header[:1]}")
        columns = header[1:]
        if len(set(columns)) != len(columns):
            raise ValueError(f"{path}: duplicate language columns")
        sets: list[CognateSet] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\r\n").split("\t")
            if len(cells) > len(header):
                raise ValueError(
                    f"{path} line {lineno}: {len(cells)} cells for {len(header)} columns"
                )
            cells += [""] * (len(header) - len(cells))
            etymon = cells[0].strip()
            forms = {
                lang: cell.strip()
                for lang, cell in zip(columns, cells[1:])
                if cell.strip()
            }
            try:
                sets.append(CognateSet(etymon, forms, etymon_language))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not sets:
        raise ValueError(f"{path}: no cognate sets found")
    return sets


def write_scores_csv(summary: LanguagePairSummary, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("lang1,lang2,word1,word2,similarity\n")
        for s in summary.scores:
            fh.write(f"{s.lang1},{s.lang2},{s.word1},{s.word2},{s.similarity:.6g}\n")


def write_histogram_csv(hist: Histogram, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts):
            fh.write(f"{lo:.6g},{hi:.6g},{count}\n")


def write_summary_json(
    summaries: Mapping[tuple[str, str], LanguagePairSummary], path: str | Path
) -> None:
    payload = {
        "pairs": [
            {
                "lang1": s.lang1,
                "lang2": s.lang2,
                "mean_similarity": s.mean_similarity,
                "scored_count": s.scored_count,
                "skipped_oov_count": s.skipped_oov_count,
            }
            for s in (summaries[k] for k in sorted(summaries))
        ]
    }
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_similarity_csv(
    labels: Sequence[str], values: FloatArray, path: str | Path
) -> None:
    values = np.asarray(values, dtype=np.float64)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("language," + ",".join(labels) + "\n")
        for label, row in zip(labels, values):
            fh.write(label + "," + ",".join(f"{v:.6g}" for v in row) + "\n")


def read_similarity_csv(path: str | Path) -> SimilarityMatrix:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = [line.rstrip("\r\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    header = lines[0].split(",")
    if header[0] != "language":
        raise ValueError(f"{path}: expected 'language' header, got {header[0]!r}")
    labels = header[1:]
    if len(lines) - 1 != len(labels):
        raise ValueError(f"{path}: {len(labels)} labels but {len(lines) - 1} rows")
    values = np.empty((len(labels), len(labels)))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells[0] != labels[i]:
            raise ValueError(f"{path}: row label {cells[0]!r} does not match column {labels[i]!r}")
        if len(cells) - 1 != len(labels):
            raise ValueError(f"{path}: row {cells[0]!r} has {len(cells) - 1} values")
        values[i] = [float(c) for c in cells[1:]]
    return SimilarityMatrix(tuple(labels), values)
