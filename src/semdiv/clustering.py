"""Size-weighted average-linkage (UPGMA) clustering of languages from a
divergence matrix, with Newick serialization of the dendrogram."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import FloatArray

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal over language labels."""

    labels: tuple[str, ...]
    entries: FloatArray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        entries = np.array(self.entries, dtype=np.float64)
        if entries.shape != (len(labels), len(labels)):
            raise ValueError(f"matrix shape {entries.shape} does not match {len(labels)} labels")
        if not np.isfinite(entries).all():
            raise ValueError("distance entries must be finite")
        if entries.size and np.abs(entries - entries.T).max() > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        if entries.size and np.abs(np.diagonal(entries)).max() != 0.0:
            raise ValueError("distance matrix must have a zero diagonal")
        if entries.size and entries.min() < 0.0:
            raise ValueError("distance entries must be non-negative")
        entries.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class DendrogramNode:
    """Leaf (label set, height 0) or internal merge of two children."""

    height: float
    size: int
    label: str | None = None
    left: DendrogramNode | None = None
    right: DendrogramNode | None = None

    @staticmethod
    def leaf(label: str) -> DendrogramNode:
        return DendrogramNode(0.0, 1, label=label)

    @staticmethod
    def join(left: DendrogramNode, right: DendrogramNode, height: float) -> DendrogramNode:
        if height < max(left.height, right.height) - 1e-12:
            raise ValueError(
                f"merge height {height} below child height "
                f"{max(left.height, right.height)}"
            )
        return DendrogramNode(float(height), left.size + right.size, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def leaves(self) -> tuple[str, ...]:
        if self.is_leaf:
            return (self.label,)
        return self.left.leaves() + self.right.leaves()


@dataclass(frozen=True)
class MergeStep:
    step: int
    cluster_a: str
    cluster_b: str
    height: float


def to_distance(matrix) -> DistanceMatrix:
    """Distance form (1 - similarity) of a symmetric unit-diagonal similarity
    matrix; accepts the divergence module's SimilarityMatrix."""
    labels = tuple(matrix.labels)
    values = np.asarray(matrix.values, dtype=np.float64)
    if values.size and np.abs(values - values.T).max() > SYMMETRY_TOL:
        raise ValueError("similarity matrix is asymmetric beyond tolerance")
    entries = 1.0 - values
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 0.0)
    return DistanceMatrix(labels, entries)


def _min_leaf(node: DendrogramNode) -> str:
    if node.is_leaf:
        return node.label
    return min(_min_leaf(node.left), _min_leaf(node.right))


def _cluster_name(node: DendrogramNode) -> str:
    return "+".join(sorted(node.leaves()))


def upgma_steps(dist: DistanceMatrix) -> tuple[DendrogramNode, list[MergeStep]]:
    """Agglomerate by repeatedly merging the closest clusters at half their
    distance; inter-cluster distance is the size-weighted mean over all
    cross-pairs. Returns the dendrogram root and the merges in order."""
    labels = dist.labels
    n = len(labels)
    if n < 2:
        raise ValueError(f"clustering needs at least 2 labels, got {n}")

    def key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    nodes = {i: DendrogramNode.leaf(labels[i]) for i in range(n)}
    mins = {i: labels[i] for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    pair_d = {
        (i, j): float(dist.entries[i, j]) for i in range(n) for j in range(i + 1, n)
    }
    active = list(range(n))
    steps: list[MergeStep] = []
    next_id = n

    while len(active) > 1:
        # closest pair first; ties go to the lexicographically smallest
        # sorted pair of cluster labels
        best_pair = None
        best_rank = None
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                i, j = active[a], active[b]
                rank = (pair_d[key(i, j)], tuple(sorted((mins[i], mins[j]))))
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best_pair = (i, j)
        i, j = best_pair
        if mins[j] < mins[i]:
            i, j = j, i
        distance = pair_d[key(i, j)]
        node = DendrogramNode.join(nodes[i], nodes[j], distance / 2.0)
        steps.append(
            MergeStep(len(steps) + 1, _cluster_name(nodes[i]), _cluster_name(nodes[j]), node.height)
        )

        new_id = next_id
        next_id += 1
        for k in active:
            if k in (i, j):
                continue
            merged = (sizes[i] * pair_d[key(i, k)] + sizes[j] * pair_d[key(j, k)]) / (
                sizes[i] + sizes[j]
            )
            pair_d[key(new_id, k)] = merged
        nodes[new_id] = node
        mins[new_id] = mins[i]
        sizes[new_id] = sizes[i] + sizes[j]
        active = [k for k in active if k not in (i, j)] + [new_id]

    return nodes[active[0]], steps


def to_newick(root: DendrogramNode) -> str:
    """Nested-parenthesis tree text; branch lengths are parent height minus
    child height at 4 decimal places. Children are ordered by smallest leaf
    label for byte-stable output."""

    def render(node: DendrogramNode, parent_height: float | None) -> str:
        if node.is_leaf:
            text = node.label
        else:
            children = sorted((node.left, node.right), key=_min_leaf)
            parts = ",".join(render(child, node.height) for child in children)
            text = f"({parts})"
        if parent_height is None:
            return text
        return f"{text}:{parent_height - node.height:.4f}"

    return render(root, None) + ";"


def canonical_form(node: DendrogramNode):
    """Nested tuples with children sorted by smallest leaf label; equal for
    trees that differ only in child order."""
    if node.is_leaf:
        return node.label
    children = sorted((node.left, node.right), key=_min_leaf)
    return (round(node.height, 12), canonical_form(children[0]), canonical_form(children[1]))


def write_newick(root: DendrogramNode, path: str | Path) -> None:
    Path(path).write_text(to_newick(root) + "\n", encoding="utf-8")


def write_merge_csv(steps: Sequence[MergeStep], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,cluster_a,cluster_b,height\n")
        for s in steps:
            fh.write(f"{s.step},{s.cluster_a},{s.cluster_b},{s.height:.6g}\n")
