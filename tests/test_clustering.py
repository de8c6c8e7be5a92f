import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROMANCE_LABELS, ROMANCE_SIMILARITY
from semdiv.clustering import (
    DendrogramNode,
    DistanceMatrix,
    canonical_form,
    to_distance,
    to_newick,
    upgma_steps,
)
from semdiv.divergence import SimilarityMatrix


def romance_distance(labels=ROMANCE_LABELS):
    keep = [ROMANCE_LABELS.index(lab) for lab in labels]
    values = ROMANCE_SIMILARITY[np.ix_(keep, keep)]
    return to_distance(SimilarityMatrix(tuple(labels), values))


def four_leaf_fixture():
    entries = np.array(
        [
            [0.0, 2.0, 4.0, 6.0],
            [2.0, 0.0, 4.0, 6.0],
            [4.0, 4.0, 0.0, 6.0],
            [6.0, 6.0, 6.0, 0.0],
        ]
    )
    return DistanceMatrix(("A", "B", "C", "D"), entries)


def random_distance(rng, n):
    raw = rng.uniform(0.05, 1.0, size=(n, n))
    entries = (raw + raw.T) / 2.0
    np.fill_diagonal(entries, 0.0)
    return entries


def cophenetic(root):
    out = {}

    def visit(node):
        if node.is_leaf:
            return [node.label]
        left, right = visit(node.left), visit(node.right)
        for x in left:
            for y in right:
                out[frozenset((x, y))] = 2.0 * node.height
        return left + right

    visit(root)
    return out


class TestToDistance:
    def test_two_by_two(self):
        dist = to_distance(SimilarityMatrix(("a", "b"), [[1.0, 0.70], [0.70, 1.0]]))
        assert np.allclose(dist.entries, [[0, 0.30], [0.30, 0]], atol=1e-15)

    def test_identical_languages_give_zero_matrix(self):
        dist = to_distance(SimilarityMatrix(("a", "b", "c"), np.ones((3, 3))))
        assert np.array_equal(dist.entries, np.zeros((3, 3)))

    def test_romance_min_off_diagonal_is_es_pt(self):
        dist = romance_distance()
        off = dist.entries + 2.0 * np.eye(6)
        i, j = divmod(int(np.argmin(off)), 6)
        assert {dist.labels[i], dist.labels[j]} == {"es", "pt"}
        assert off.min() == pytest.approx(0.30, abs=1e-12)

    def test_asymmetric_rejected(self):
        values = np.array([[1.0, 0.5], [0.7, 1.0]])
        with pytest.raises(ValueError, match="asymmetric"):
            to_distance(SimilarityMatrix(("a", "b"), values))

    def test_similarity_above_one_rejected(self):
        values = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            to_distance(SimilarityMatrix(("a", "b"), values))


class TestUpgma:
    def test_two_leaves_join_at_half_distance(self):
        dist = DistanceMatrix(("X", "Y"), [[0.0, 0.3], [0.3, 0.0]])
        root = upgma_steps(dist)[0]
        assert root.height == pytest.approx(0.15, abs=1e-15)
        assert root.size == 2

    def test_four_leaf_merge_heights(self):
        root, steps = upgma_steps(four_leaf_fixture())
        assert [s.height for s in steps] == [1.0, 2.0, 3.0]
        assert [(s.cluster_a, s.cluster_b) for s in steps] == [
            ("A", "B"),
            ("A+B", "C"),
            ("A+B+C", "D"),
        ]
        assert root.size == 4

    def test_romance_first_merge_is_es_pt(self):
        _, steps = upgma_steps(romance_distance())
        assert {steps[0].cluster_a, steps[0].cluster_b} == {"es", "pt"}

    def test_modern_romance_merge_order(self):
        # hand-run of the size-weighted average linkage on the printed means
        _, steps = upgma_steps(romance_distance(("es", "fr", "it", "pt", "ro")))
        assert [(s.cluster_a, s.cluster_b) for s in steps] == [
            ("es", "pt"),
            ("es+pt", "it"),
            ("es+it+pt", "fr"),
            ("es+fr+it+pt", "ro"),
        ]
        expected_heights = [0.15, 0.1625, 1.03 / 6.0, 0.215]
        assert np.allclose([s.height for s in steps], expected_heights, atol=1e-12)

    def test_single_label_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            upgma_steps(DistanceMatrix(("A",), [[0.0]]))

    def test_tie_breaks_lexicographically(self):
        # every pair at the same distance: first merge must be {a, b}
        entries = np.full((3, 3), 0.4)
        np.fill_diagonal(entries, 0.0)
        _, steps = upgma_steps(DistanceMatrix(("c", "a", "b"), entries))
        assert (steps[0].cluster_a, steps[0].cluster_b) == ("a", "b")

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_heights_non_decreasing(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = tuple(f"L{i}" for i in range(n))
        _, steps = upgma_steps(DistanceMatrix(labels, random_distance(rng, n)))
        heights = [s.height for s in steps]
        assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_leaf_count_and_coverage(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = tuple(f"L{i}" for i in range(n))
        root = upgma_steps(DistanceMatrix(labels, random_distance(rng, n)))[0]
        assert root.size == n
        assert sorted(root.leaves()) == sorted(labels)

    def test_ultrametric_input_reproduced_by_cophenetic_distances(self):
        # tree (a,b)@0.25, (c,d)@0.5, root@1.0 in distance form
        entries = np.array(
            [
                [0.0, 0.5, 2.0, 2.0],
                [0.5, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 1.0],
                [2.0, 2.0, 1.0, 0.0],
            ]
        )
        dist = DistanceMatrix(("a", "b", "c", "d"), entries)
        root = upgma_steps(dist)[0]
        coph = cophenetic(root)
        for i, x in enumerate(dist.labels):
            for j in range(i + 1, 4):
                assert coph[frozenset((x, dist.labels[j]))] == entries[i, j]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_label_permutation_same_tree(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = tuple(f"L{i}" for i in range(n))
        entries = random_distance(rng, n)
        perm = rng.permutation(n)
        base = upgma_steps(DistanceMatrix(labels, entries))[0]
        shuffled, _ = upgma_steps(
            DistanceMatrix(
                tuple(labels[i] for i in perm), entries[np.ix_(perm, perm)]
            )
        )
        assert canonical_form(base) == canonical_form(shuffled)
        assert to_newick(base) == to_newick(shuffled)


class TestNewick:
    def test_two_leaf_form(self):
        root = upgma_steps(DistanceMatrix(("X", "Y"), [[0.0, 0.3], [0.3, 0.0]]))[0]
        assert to_newick(root) == "(X:0.1500,Y:0.1500);"

    def test_four_leaf_form(self):
        root = upgma_steps(four_leaf_fixture())[0]
        assert to_newick(root) == "(((A:1.0000,B:1.0000):1.0000,C:2.0000):1.0000,D:3.0000);"

    def test_single_leaf(self):
        assert to_newick(DendrogramNode.leaf("Z")) == "Z;"

    def test_children_sorted_by_smallest_leaf(self):
        left = DendrogramNode.leaf("zeta")
        right = DendrogramNode.leaf("alpha")
        root = DendrogramNode.join(left, right, 0.5)
        assert to_newick(root) == "(alpha:0.5000,zeta:0.5000);"


class TestDistanceMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(("a", "b"), [[0.0, np.nan], [np.nan, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(("a", "b"), [[0.1, 0.5], [0.5, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DistanceMatrix(("a", "b"), [[0.0, -0.5], [-0.5, 0.0]])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(("a", "b"), [[0.0, 0.5], [0.6, 0.0]])

    def test_join_rejects_height_below_children(self):
        ab = DendrogramNode.join(DendrogramNode.leaf("a"), DendrogramNode.leaf("b"), 1.0)
        with pytest.raises(ValueError, match="below child height"):
            DendrogramNode.join(ab, DendrogramNode.leaf("c"), 0.5)
