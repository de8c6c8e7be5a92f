import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import space_of, unit_rows
from semdiv.divergence import (
    HISTOGRAM_BINS,
    CognatePairScore,
    CognateSet,
    LanguagePairSummary,
    OovSkip,
    cosine_similarity,
    extreme_pairs,
    histogram,
    language_pair_divergence,
    load_cognate_sets,
    matrix_from_summaries,
    pairwise_summaries,
    read_similarity_csv,
    score_pair,
    similarity_matrix,
    write_similarity_csv,
)

nonzero_vectors = st.lists(
    st.floats(-100, 100), min_size=2, max_size=8
).filter(lambda v: any(abs(x) > 1e-3 for x in v))


def planted_pair_spaces():
    """Two 3-word languages whose cognate similarities are exactly 1.0 and 0.5;
    the third word of each side has no counterpart vector."""
    e = np.eye(4)
    space1 = space_of("l1", ["uno", "dos", "tres"], [e[0], e[1], e[3]], normalized=True)
    space2 = space_of(
        "l2",
        ["one", "two", "three"],
        [e[0], 0.5 * e[1] + np.sqrt(0.75) * e[2], e[3]],
        normalized=True,
    )
    return {"l1": space1, "l2": space2}


def planted_cognates(rows):
    return [CognateSet(f"ety{i}", forms) for i, forms in enumerate(rows)]


class TestCosine:
    def test_identical(self):
        assert cosine_similarity([1.0, 0, 0], [1.0, 0, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0], [0, 1.0]) == 0.0

    def test_hand_arithmetic(self):
        # dot 8, norms 3 * 3
        assert cosine_similarity([1.0, 2, 2], [2.0, 1, 2]) == pytest.approx(8 / 9, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(nonzero_vectors)
    def test_self_and_negation(self, v):
        u = np.array(v)
        assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-9)
        assert cosine_similarity(u, -u) == pytest.approx(-1.0, abs=1e-9)

    @given(nonzero_vectors, st.integers(0, 2**32 - 1))
    def test_bounds_and_symmetry(self, v, seed):
        rng = np.random.default_rng(seed)
        u = np.array(v)
        w = rng.normal(size=len(v)) + 0.01
        sim = cosine_similarity(u, w)
        assert -1.0 <= sim <= 1.0
        assert sim == cosine_similarity(w, u)


class TestScorePair:
    def test_identical_planted_vectors(self):
        spaces = planted_pair_spaces()
        score = score_pair(spaces["l1"], spaces["l2"], "uno", "one")
        assert isinstance(score, CognatePairScore)
        assert score.similarity == pytest.approx(1.0, abs=1e-12)
        assert (score.lang1, score.lang2) == ("l1", "l2")

    def test_oov_side_recorded(self):
        spaces = planted_pair_spaces()
        skip = score_pair(spaces["l1"], spaces["l2"], "uno", "missing")
        assert skip == OovSkip("l2", "missing")
        skip = score_pair(spaces["l1"], spaces["l2"], "gone", "one")
        assert skip == OovSkip("l1", "gone")

    def test_direction_symmetry_exact(self):
        spaces = planted_pair_spaces()
        fwd = score_pair(spaces["l1"], spaces["l2"], "dos", "two")
        rev = score_pair(spaces["l2"], spaces["l1"], "two", "dos")
        assert fwd.similarity == rev.similarity

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_direction_symmetry_property(self, seed):
        rng = np.random.default_rng(seed)
        space1 = space_of("l1", ["w"], unit_rows(1, 7, rng), normalized=True)
        space2 = space_of("l2", ["v"], unit_rows(1, 7, rng), normalized=True)
        fwd = score_pair(space1, space2, "w", "v")
        rev = score_pair(space2, space1, "v", "w")
        assert fwd.similarity == rev.similarity


class TestLanguagePairDivergence:
    def test_planted_mean(self):
        spaces = planted_pair_spaces()
        cognates = planted_cognates(
            [{"l1": "uno", "l2": "one"}, {"l1": "dos", "l2": "two"}]
        )
        summary = language_pair_divergence(cognates, "l1", "l2", spaces)
        assert summary.mean_similarity == pytest.approx(0.75, abs=1e-12)
        assert summary.scored_count == 2
        assert summary.skipped_oov_count == 0

    def test_oov_counted_missing_forms_ignored(self):
        spaces = planted_pair_spaces()
        cognates = planted_cognates(
            [
                {"l1": "uno", "l2": "one"},
                {"l1": "uno", "l2": "absent"},  # OOV: skip
                {"l1": "uno"},  # no l2 form: neither scored nor skipped
                {"l1": "dos", "l2": "two"},
            ]
        )
        summary = language_pair_divergence(cognates, "l1", "l2", spaces)
        assert summary.scored_count == 2
        assert summary.skipped_oov_count == 1

    def test_all_oov_is_error(self):
        spaces = planted_pair_spaces()
        cognates = planted_cognates([{"l1": "zzz", "l2": "yyy"}])
        with pytest.raises(ValueError, match="no scorable pairs"):
            language_pair_divergence(cognates, "l1", "l2", spaces)

    def test_missing_space_is_error(self):
        with pytest.raises(ValueError, match="no embedding space"):
            language_pair_divergence([], "l1", "nolang", planted_pair_spaces())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_mean_matches_fsum(self, seed, n):
        rng = np.random.default_rng(seed)
        space1 = space_of("l1", [f"a{i}" for i in range(n)], unit_rows(n, 5, rng), normalized=True)
        space2 = space_of("l2", [f"b{i}" for i in range(n)], unit_rows(n, 5, rng), normalized=True)
        cognates = planted_cognates([{"l1": f"a{i}", "l2": f"b{i}"} for i in range(n)])
        summary = language_pair_divergence(cognates, "l1", "l2", {"l1": space1, "l2": space2})
        expected = math.fsum(s.similarity for s in summary.scores) / len(summary.scores)
        assert abs(summary.mean_similarity - expected) < 1e-9
        assert summary.scored_count == len(summary.scores) == n


def summary_of(sims):
    scores = tuple(
        CognatePairScore("l1", "l2", f"a{i}", f"b{i}", s) for i, s in enumerate(sims)
    )
    mean = math.fsum(sims) / len(sims)
    return LanguagePairSummary("l1", "l2", mean, len(sims), 0, scores)


class TestExtremes:
    def test_max_and_min(self):
        best, worst = extreme_pairs(summary_of([0.2, 0.9, 0.4]))
        assert best.similarity == 0.9
        assert worst.similarity == 0.2

    def test_single_score_twice(self):
        best, worst = extreme_pairs(summary_of([0.5]))
        assert best is worst

    def test_ties_keep_earlier_position(self):
        best, worst = extreme_pairs(summary_of([0.9, 0.9, 0.1, 0.1]))
        assert best.word1 == "a0"
        assert worst.word1 == "a2"


class TestHistogram:
    def test_all_ones_fill_last_bin(self):
        hist = histogram(summary_of([1.0, 1.0, 1.0]))
        assert hist.counts[-1] == 3
        assert sum(hist.counts) == 3

    def test_minus_one_first_bin(self):
        hist = histogram(summary_of([-1.0]))
        assert hist.counts[0] == 1

    def test_zero_and_small_share_bin(self):
        # bin 25 covers [0.0, 0.04) at width 0.04
        hist = histogram(summary_of([0.0, 0.01]))
        assert hist.bin_edges[25] == 0.0
        assert hist.counts[25] == 2

    def test_edges_shape(self):
        hist = histogram(summary_of([0.3]))
        assert len(hist.bin_edges) == 51
        assert hist.bin_edges[0] == -1.0
        assert hist.bin_edges[-1] == 1.0
        assert all(a < b for a, b in zip(hist.bin_edges, hist.bin_edges[1:]))

    @pytest.mark.parametrize("k", range(51))
    def test_edge_lands_in_its_own_bin(self, k):
        # edges[k] opens bin k; the last edge, 1.0, is closed into bin 49
        edge = float(np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)[k])
        hist = histogram(summary_of([edge]))
        assert hist.bin_edges[k] == edge
        assert hist.counts[min(k, HISTOGRAM_BINS - 1)] == 1

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=200))
    def test_counts_conserved(self, sims):
        hist = histogram(summary_of(sims))
        assert sum(hist.counts) == len(sims)
        # reference: bin each score on its own, closing the last bin at 1.0
        expected = [0] * HISTOGRAM_BINS
        for s in sims:
            k = int(np.searchsorted(hist.bin_edges, s, side="right")) - 1
            expected[min(max(k, 0), HISTOGRAM_BINS - 1)] += 1
        assert list(hist.counts) == expected


def three_language_setup():
    spaces = planted_pair_spaces()
    e = np.eye(4)
    spaces["l3"] = space_of("l3", ["ein", "zwei"], [e[0], e[1]], normalized=True)
    cognates = planted_cognates(
        [
            {"l1": "uno", "l2": "one", "l3": "ein"},
            {"l1": "dos", "l2": "two", "l3": "zwei"},
        ]
    )
    return cognates, spaces


class TestSimilarityMatrix:
    def test_two_language_planted(self):
        spaces = planted_pair_spaces()
        cognates = planted_cognates(
            [{"l1": "uno", "l2": "one"}, {"l1": "dos", "l2": "two"}]
        )
        matrix = similarity_matrix(cognates, ["l1", "l2"], spaces)
        assert np.allclose(matrix.values, [[1, 0.75], [0.75, 1]], atol=1e-12)

    def test_symmetric_unit_diagonal(self):
        cognates, spaces = three_language_setup()
        matrix = similarity_matrix(cognates, ["l1", "l2", "l3"], spaces)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.array_equal(np.diagonal(matrix.values), np.ones(3))

    def test_permutation_equivariant(self):
        cognates, spaces = three_language_setup()
        first = similarity_matrix(cognates, ["l1", "l2", "l3"], spaces)
        second = similarity_matrix(cognates, ["l3", "l1", "l2"], spaces)
        perm = [first.labels.index(lab) for lab in second.labels]
        assert np.array_equal(second.values, first.values[np.ix_(perm, perm)])

    def test_failing_pair_reported_beside_the_others(self):
        cognates, spaces = three_language_setup()
        del spaces["l3"]
        summaries, failures = pairwise_summaries(cognates, ["l1", "l2", "l3"], spaces)
        assert list(summaries) == [("l1", "l2")]
        assert list(failures) == [("l1", "l3"), ("l2", "l3")]
        matrix = matrix_from_summaries(["l1", "l2", "l3"], summaries)
        assert np.isnan(matrix.values[0, 2]) and np.isnan(matrix.values[2, 1])
        with pytest.raises(ValueError, match="no embedding space for language 'l3'"):
            similarity_matrix(cognates, ["l1", "l2", "l3"], spaces)

    def test_needs_two_languages(self):
        cognates, spaces = three_language_setup()
        with pytest.raises(ValueError, match="at least 2"):
            similarity_matrix(cognates, ["l1"], spaces)

    def test_csv_roundtrip(self, tmp_path):
        cognates, spaces = three_language_setup()
        matrix = similarity_matrix(cognates, ["l1", "l2", "l3"], spaces)
        write_similarity_csv(matrix.labels, matrix.values, tmp_path / "m.csv")
        back = read_similarity_csv(tmp_path / "m.csv")
        assert back.labels == matrix.labels
        assert np.allclose(back.values, matrix.values, atol=1e-6)
        assert np.array_equal(back.values, back.values.T)


class TestCognateSet:
    def test_form_accessor_covers_etymon_column(self):
        cset = CognateSet("victoria", {"ro": "victorie", "it": "vittoria"}, "la")
        assert cset.form("ro") == "victorie"
        assert cset.form("la") == "victoria"
        assert cset.form("fr") is None

    def test_single_form_plus_etymon_allowed(self):
        CognateSet("aqua", {"es": "agua"}, "la")

    def test_single_form_without_etymon_rejected(self):
        with pytest.raises(ValueError, match="at least two forms"):
            CognateSet("", {"es": "agua"}, "la")

    def test_etymon_language_cannot_be_column(self):
        with pytest.raises(ValueError, match="descendant"):
            CognateSet("aqua", {"la": "aqua", "es": "agua"}, "la")

    def test_load_tsv(self, tmp_path):
        path = tmp_path / "cognates.tsv"
        path.write_text(
            "etymon\tes\tfr\n"
            "octo\tocho\thuit\n"
            "aqua\tagua\t\n",
            encoding="utf-8",
        )
        sets = load_cognate_sets(path)
        assert sets[0].form("es") == "ocho"
        assert sets[0].form("fr") == "huit"
        assert sets[1].form("fr") is None
        assert sets[1].form("la") == "aqua"

    def test_load_requires_etymon_header(self, tmp_path):
        path = tmp_path / "cognates.tsv"
        path.write_text("word\tes\nfoo\tbar\n", encoding="utf-8")
        with pytest.raises(ValueError, match="etymon"):
            load_cognate_sets(path)

    def test_load_reports_bad_row(self, tmp_path):
        path = tmp_path / "cognates.tsv"
        path.write_text("etymon\tes\tfr\nocto\tocho\thuit\n\tsolo\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            load_cognate_sets(path)

    def test_load_rejects_excess_cells(self, tmp_path):
        path = tmp_path / "cognates.tsv"
        path.write_text("etymon\tes\nocto\tocho\thuit\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_cognate_sets(path)
