import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_orthogonal, space_of, unit_rows, write_matrix, write_vec
from semdiv.alignment import (
    AlignmentMap,
    SeedLexicon,
    apply_alignment,
    identity_alignment,
    learn_alignment,
    load_alignment_matrix,
    load_seed_lexicon,
    shared_spaces,
    write_alignment_matrix,
)
from semdiv.divergence import cosine_similarity
from semdiv.embeddings import normalize


def paired_spaces(rng, n, dim, rotation=None, noise=0.0):
    """Source space plus a target whose seed rows are source @ rotation (+ noise)."""
    x = unit_rows(n, dim, rng)
    y = x if rotation is None else x @ rotation
    if noise:
        y = y + noise * rng.normal(size=y.shape)
        y = y / np.linalg.norm(y, axis=1, keepdims=True)
    source = space_of("src", [f"s{i}" for i in range(n)], x, normalized=True)
    target = space_of("tgt", [f"t{i}" for i in range(n)], y, normalized=True)
    seeds = SeedLexicon("src", "tgt", tuple((f"s{i}", f"t{i}") for i in range(n)))
    return source, target, seeds


class TestSeedLexicon:
    def test_duplicates_removed(self):
        lex = SeedLexicon("a", "b", (("x", "y"), ("x", "y"), ("x", "z")))
        assert lex.pairs == (("x", "y"), ("x", "z"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SeedLexicon("a", "b", ())

    def test_load_tsv_with_comments(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("# header comment\ncasa\thouse\n\nperro\tdog\n", encoding="utf-8")
        lex = load_seed_lexicon(path, "es", "en")
        assert lex.pairs == (("casa", "house"), ("perro", "dog"))

    def test_load_tsv_column_count(self, tmp_path):
        path = tmp_path / "seeds.tsv"
        path.write_text("casa\thouse\textra\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            load_seed_lexicon(path, "es", "en")

    def test_multi_translation_entries_kept(self):
        lex = SeedLexicon("a", "b", (("banco", "bank"), ("banco", "bench")))
        assert lex.pairs == (("banco", "bank"), ("banco", "bench"))


class TestLearnAlignment:
    def test_identical_targets_give_identity(self):
        rng = np.random.default_rng(1)
        source, target, seeds = paired_spaces(rng, 40, 6)
        amap = learn_alignment(source, target, seeds)
        assert np.abs(amap.matrix - np.eye(6)).max() < 1e-6

    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(2)
        planted = random_orthogonal(10, rng)
        source, target, seeds = paired_spaces(rng, 500, 10, rotation=planted)
        amap = learn_alignment(source, target, seeds)
        assert np.abs(amap.matrix - planted).max() < 1e-6
        assert amap.orthogonality_residual() < 1e-6

    def test_noisy_fit_stays_orthogonal(self):
        rng = np.random.default_rng(3)
        planted = random_orthogonal(8, rng)
        source, target, seeds = paired_spaces(rng, 200, 8, rotation=planted, noise=0.05)
        amap = learn_alignment(source, target, seeds)
        assert amap.orthogonality_residual() < 1e-6

    def test_unresolvable_pairs_dropped_with_count(self):
        rng = np.random.default_rng(4)
        source, target, _ = paired_spaces(rng, 12, 3)
        seeds = SeedLexicon(
            "src", "tgt",
            tuple((f"s{i}", f"t{i}") for i in range(12)) + (("missing", "t0"), ("s0", "gone")),
        )
        with pytest.warns(UserWarning, match="dropped 2 seed pairs"):
            amap = learn_alignment(source, target, seeds)
        assert amap.orthogonality_residual() < 1e-6

    def test_warns_when_seeds_below_dim(self):
        rng = np.random.default_rng(5)
        source, target, _ = paired_spaces(rng, 3, 6)
        seeds = SeedLexicon("src", "tgt", (("s0", "t0"), ("s1", "t1")))
        with pytest.warns(UserWarning, match="underdetermined"):
            learn_alignment(source, target, seeds)

    def test_no_usable_seeds_is_error(self):
        rng = np.random.default_rng(6)
        source, target, _ = paired_spaces(rng, 4, 3)
        seeds = SeedLexicon("src", "tgt", (("nope", "nada"),))
        with pytest.raises(ValueError, match="no usable seed pairs"):
            learn_alignment(source, target, seeds)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        source = space_of("src", ["s0"], unit_rows(1, 3, rng), normalized=True)
        target = space_of("tgt", ["t0"], unit_rows(1, 4, rng), normalized=True)
        seeds = SeedLexicon("src", "tgt", (("s0", "t0"),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            learn_alignment(source, target, seeds)

    def test_optimal_among_random_orthogonal_candidates(self):
        rng = np.random.default_rng(8)
        source, target, seeds = paired_spaces(rng, 120, 6, rotation=random_orthogonal(6, rng), noise=0.2)
        amap = learn_alignment(source, target, seeds)
        x, y = source.vectors, target.vectors
        learned_error = np.linalg.norm(x @ amap.matrix - y)
        for _ in range(100):
            candidate = random_orthogonal(6, rng)
            assert learned_error <= np.linalg.norm(x @ candidate - y) + 1e-12


class TestApplyAlignment:
    def test_identity_map_is_noop(self):
        rng = np.random.default_rng(9)
        space = space_of("xx", ["a", "b"], unit_rows(2, 4, rng), normalized=True)
        out = apply_alignment(space, identity_alignment("xx", 4))
        assert np.array_equal(out.vectors, space.vectors)
        assert out.normalized

    def test_quarter_turn(self):
        space = space_of("xx", ["a"], [[1.0, 0.0]], normalized=True)
        quarter = AlignmentMap("xx", "yy", [[0.0, 1.0], [-1.0, 0.0]])
        out = apply_alignment(space, quarter)
        assert np.allclose(out.vectors[0], [0, 1], atol=1e-15)

    def test_language_mismatch(self):
        space = space_of("xx", ["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="language mismatch"):
            apply_alignment(space, identity_alignment("yy", 2))

    def test_dim_mismatch(self):
        space = space_of("xx", ["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_alignment(space, AlignmentMap("xx", "yy", np.eye(3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_intra_space_cosines_preserved(self, seed):
        rng = np.random.default_rng(seed)
        space = space_of("xx", [f"w{i}" for i in range(10)], unit_rows(10, 5, rng), normalized=True)
        out = apply_alignment(space, AlignmentMap("xx", "yy", random_orthogonal(5, rng)))
        for i in range(0, 10, 3):
            for j in range(1, 10, 4):
                before = cosine_similarity(space.vectors[i], space.vectors[j])
                after = cosine_similarity(out.vectors[i], out.vectors[j])
                assert abs(before - after) < 1e-6


class TestLoadMatrix:
    def test_identity_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1\n", encoding="utf-8")
        amap = load_alignment_matrix(path, "a", "b")
        assert np.array_equal(amap.matrix, np.eye(2))
        assert amap.orthogonality_residual() == 0.0

    def test_permutation_passes_orthogonality(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 1\n1 0\n", encoding="utf-8")
        amap = load_alignment_matrix(path, "a", "b")
        assert amap.orthogonality_residual() == 0.0

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0 0\n0 1 0\n0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_alignment_matrix(path, "a", "b")

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-numeric"):
            load_alignment_matrix(path, "a", "b")

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0 0\n0 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="square"):
            load_alignment_matrix(path, "a", "b")

    def test_loose_orthogonality_warns_not_errors(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0\n0 1.01\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="loosely orthogonal"):
            amap = load_alignment_matrix(path, "a", "b")
        assert amap.matrix[1, 1] == 1.01

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        amap = AlignmentMap("a", "b", random_orthogonal(5, rng))
        write_alignment_matrix(amap, tmp_path / "m.txt")
        back = load_alignment_matrix(tmp_path / "m.txt", "a", "b")
        assert np.abs(back.matrix - amap.matrix).max() < 1e-8


class TestSharedSpacePair:
    """Two languages loaded from files and put into one pivot's coordinates."""

    def test_identity_maps_return_normalized_inputs(self, tmp_path):
        rng = np.random.default_rng(11)
        a_rows = 2 * unit_rows(1, 3, rng)
        b_rows = 3 * unit_rows(1, 3, rng)
        write_vec(tmp_path / "aa.vec", ["x"], a_rows)
        write_vec(tmp_path / "bb.vec", ["y"], b_rows)
        write_matrix(tmp_path / "bb_to_aa.txt", np.eye(3))
        out = shared_spaces(
            ["aa", "bb"],
            "aa",
            {"aa": tmp_path / "aa.vec", "bb": tmp_path / "bb.vec"},
            {"bb": {"matrix": tmp_path / "bb_to_aa.txt"}},
        )
        assert np.allclose(out["aa"].vectors, normalize(space_of("aa", ["x"], a_rows)).vectors,
                           atol=1e-15)
        assert np.allclose(out["bb"].vectors, normalize(space_of("bb", ["y"], b_rows)).vectors,
                           atol=1e-15)

    def test_planted_rotation_restores_cross_cosines(self, tmp_path):
        rng = np.random.default_rng(12)
        rotation = random_orthogonal(6, rng)
        a_pivot = unit_rows(8, 6, rng)
        b_pivot = unit_rows(8, 6, rng)
        before = [
            cosine_similarity(a_pivot[i], b_pivot[i]) for i in range(8)
        ]
        write_vec(tmp_path / "aa.vec", [f"a{i}" for i in range(8)], a_pivot @ rotation)
        write_vec(tmp_path / "bb.vec", [f"b{i}" for i in range(8)], b_pivot)
        write_matrix(tmp_path / "aa_to_bb.txt", rotation.T)
        out = shared_spaces(
            ["aa", "bb"],
            "bb",
            {"aa": tmp_path / "aa.vec", "bb": tmp_path / "bb.vec"},
            {"aa": {"matrix": tmp_path / "aa_to_bb.txt"}},
        )
        after = [cosine_similarity(out["aa"].vectors[i], out["bb"].vectors[i]) for i in range(8)]
        assert np.abs(np.array(after) - np.array(before)).max() < 1e-6

    def test_pivot_mismatch(self, tmp_path):
        # a seed-aligned language whose dimension disagrees with the pivot's
        write_vec(tmp_path / "aa.vec", ["x"], [[1.0, 0.0]])
        write_vec(tmp_path / "bb.vec", ["y"], [[0.0, 1.0, 0.0]])
        (tmp_path / "seeds.tsv").write_text("y\tx\n", encoding="utf-8")
        with pytest.raises(ValueError, match="language 'bb': dimension mismatch"):
            shared_spaces(
                ["aa", "bb"],
                "aa",
                {"aa": tmp_path / "aa.vec", "bb": tmp_path / "bb.vec"},
                {"bb": {"seeds": tmp_path / "seeds.tsv"}},
            )


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_noise_free_recovery_property(seed, dim):
    rng = np.random.default_rng(seed)
    planted = random_orthogonal(dim, rng)
    source, target, seeds = paired_spaces(rng, 4 * dim, dim, rotation=planted)
    amap = learn_alignment(source, target, seeds)
    assert np.abs(amap.matrix - planted).max() < 1e-6
    assert amap.orthogonality_residual() < 1e-6
