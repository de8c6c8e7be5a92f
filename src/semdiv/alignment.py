"""Orthogonal maps that place monolingual embedding spaces into a shared
pivot space, fit as a constrained least-squares rotation over seed pairs."""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .embeddings import (
    DEFAULT_VOCAB_LIMIT,
    EmbeddingSpace,
    FloatArray,
    load_embeddings,
    lookup,
    normalize,
)

# Third-party matrices are often only loosely orthogonal; warn past this.
LOOSE_ORTHOGONALITY_TOL = 1e-3


@dataclass(frozen=True)
class SeedLexicon:
    """Bilingual seed dictionary: (source word, target word) pairs.

    Duplicate pairs are removed; a word may appear in several pairs
    (multi-translation entries are kept as separate rows).
    """

    source_language: str
    target_language: str
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(tuple(p) for p in self.pairs))
        if not deduped:
            raise ValueError("seed lexicon must contain at least one pair")
        object.__setattr__(self, "pairs", deduped)


def load_seed_lexicon(
    path: str | Path, source_language: str, target_language: str
) -> SeedLexicon:
    """Read a two-column TSV of seed pairs; '#' comment lines are ignored."""
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path} line {lineno}: expected 2 columns, got {len(fields)}")
            pairs.append((fields[0], fields[1]))
    if not pairs:
        raise ValueError(f"{path}: no seed pairs found")
    return SeedLexicon(source_language, target_language, tuple(pairs))


@dataclass(frozen=True, eq=False)
class AlignmentMap:
    """Square matrix mapping row vectors of the source space into the target
    space's coordinates. Intended to be orthogonal (rotation/reflection)."""

    source_language: str
    target_language: str
    matrix: FloatArray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"alignment matrix must be square, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("alignment matrix contains non-finite entries")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def orthogonality_residual(self) -> float:
        """Max-abs entry of (M^T M - I); 0 for a perfectly orthogonal map."""
        gram = self.matrix.T @ self.matrix
        return float(np.abs(gram - np.eye(self.dim)).max())


def identity_alignment(language: str, dim: int) -> AlignmentMap:
    return AlignmentMap(language, language, np.eye(dim))


def learn_alignment(
    source: EmbeddingSpace, target: EmbeddingSpace, seeds: SeedLexicon
) -> AlignmentMap:
    """Fit the orthogonal map W minimizing ||XW - Y||_F over the seed pairs.

    X and Y stack the resolved source/target seed vectors row-wise; the
    closed-form optimum is W = U V^T from the SVD U S V^T of X^T Y.
    Unresolvable seed words are dropped with a summary warning.
    """
    if source.dim != target.dim:
        raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
    if seeds.source_language != source.language or seeds.target_language != target.language:
        raise ValueError(
            f"seed lexicon is {seeds.source_language}->{seeds.target_language}, "
            f"spaces are {source.language}->{target.language}"
        )
    if not (source.normalized and target.normalized):
        warnings.warn("seed vectors come from non-normalized spaces", stacklevel=2)

    xs: list[FloatArray] = []
    ys: list[FloatArray] = []
    unresolved = 0
    for src_word, tgt_word in seeds.pairs:
        sv = lookup(source, src_word)
        tv = lookup(target, tgt_word)
        if sv is None or tv is None:
            unresolved += 1
            continue
        xs.append(sv)
        ys.append(tv)
    if not xs:
        raise ValueError("no usable seed pairs (all words out of vocabulary)")
    if unresolved:
        warnings.warn(f"dropped {unresolved} seed pairs not found in the vocabularies", stacklevel=2)
    if len(xs) < source.dim:
        warnings.warn(
            f"only {len(xs)} usable seed pairs for dimension {source.dim}; "
            "the fit may be underdetermined",
            stacklevel=2,
        )

    x = np.vstack(xs)
    y = np.vstack(ys)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise np.linalg.LinAlgError("seed vectors contain non-finite values")
    u, _, vt = np.linalg.svd(x.T @ y)
    return AlignmentMap(source.language, target.language, u @ vt)


def apply_alignment(space: EmbeddingSpace, amap: AlignmentMap) -> EmbeddingSpace:
    """Map every row into the target coordinates; vocab and order unchanged.

    Orthogonal maps preserve norms, so the normalized flag carries over.
    """
    if space.language != amap.source_language:
        raise ValueError(
            f"language mismatch: space is {space.language!r}, "
            f"map source is {amap.source_language!r}"
        )
    if space.dim != amap.dim:
        raise ValueError(f"dimension mismatch: space {space.dim} vs map {amap.dim}")
    return replace(space, vectors=space.vectors @ amap.matrix)


def load_alignment_matrix(
    path: str | Path, source_language: str, target_language: str
) -> AlignmentMap:
    """Parse a dim x dim whitespace-separated decimal matrix file.

    Orthogonality is checked but only warned about beyond the loose tolerance,
    since published matrices are not always exactly orthogonal.
    """
    path = Path(path)
    rows: list[list[float]] = []
    first_width: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise ValueError(f"{path} line {lineno}: non-numeric entry") from None
            if first_width is None:
                first_width = len(values)
            elif len(values) != first_width:
                raise ValueError(
                    f"{path} line {lineno}: ragged row "
                    f"({len(values)} entries, expected {first_width})"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    if len(rows) != first_width:
        raise ValueError(f"{path}: expected a square matrix, got {len(rows)} x {first_width}")
    amap = AlignmentMap(source_language, target_language, np.array(rows))
    residual = amap.orthogonality_residual()
    if residual > LOOSE_ORTHOGONALITY_TOL:
        warnings.warn(
            f"{path}: matrix is loosely orthogonal (residual {residual:.3g})",
            stacklevel=2,
        )
    return amap


def write_alignment_matrix(amap: AlignmentMap, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in amap.matrix:
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


@contextmanager
def _about(language: str) -> Iterator[None]:
    """Prefix errors raised in the block with the language they concern."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError; keep its type so callers can
        # still tell numeric failures apart
        raise np.linalg.LinAlgError(f"language {language!r}: {exc}") from exc
    except (ValueError, OSError) as exc:
        raise ValueError(f"language {language!r}: {exc}") from exc


def aligned_spaces(
    languages: Sequence[str],
    pivot: str,
    embeddings: Mapping[str, str | Path],
    alignments: Mapping[str, Mapping[str, str | Path]],
    limit: int | None = DEFAULT_VOCAB_LIMIT,
) -> Iterator[tuple[str, EmbeddingSpace, AlignmentMap]]:
    """Yield (language, normalized space in its own coordinates, map into the
    pivot) for each listed language, loading one language at a time.

    The pivot gets the identity map; every other language uses its
    ``{"matrix": path}`` or ``{"seeds": path}`` entry in ``alignments``. The
    pivot's embeddings are loaded only when the pivot is listed or some listed
    language is seed-aligned. Errors are prefixed with the language they
    concern; a ``LinAlgError`` keeps its type.
    """

    def load(lang: str) -> EmbeddingSpace:
        path = embeddings.get(lang)
        if path is None:
            raise ValueError("no embedding file configured")
        return normalize(load_embeddings(path, lang, limit=limit))

    seeded = any("seeds" in alignments.get(lang, {}) for lang in languages if lang != pivot)
    pivot_space = None
    if pivot in languages or seeded:
        with _about(pivot):
            pivot_space = load(pivot)
    for lang in languages:
        if lang == pivot:
            yield lang, pivot_space, identity_alignment(lang, pivot_space.dim)
            continue
        with _about(lang):
            own = load(lang)
            entry = alignments.get(lang)
            if entry is None:
                raise ValueError("no alignment source configured")
            if "matrix" in entry:
                amap = load_alignment_matrix(entry["matrix"], lang, pivot)
            else:
                seeds = load_seed_lexicon(entry["seeds"], lang, pivot)
                amap = learn_alignment(own, pivot_space, seeds)
        yield lang, own, amap


def shared_spaces(
    languages: Sequence[str],
    pivot: str,
    embeddings: Mapping[str, str | Path],
    alignments: Mapping[str, Mapping[str, str | Path]],
    limit: int | None = DEFAULT_VOCAB_LIMIT,
) -> dict[str, EmbeddingSpace]:
    """Each listed language mapped into pivot coordinates and re-normalized,
    making cross-language cosine meaningful. The pivot's space is used as
    loaded, without an identity product."""
    shared: dict[str, EmbeddingSpace] = {}
    for lang, space, amap in aligned_spaces(languages, pivot, embeddings, alignments, limit):
        shared[lang] = space if lang == pivot else normalize(apply_alignment(space, amap))
    return shared
