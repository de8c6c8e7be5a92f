"""Acceptance gate. Desk-scale criteria (1-6) run on synthetic data in CI;
full-scale criteria (7-9) reproduce reference results on pretrained public
embeddings and are skipped unless SEMDIV_DATA_DIR points at the data layout
described in the README."""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ROMANCE_LABELS,
    ROMANCE_SIMILARITY,
    oracle_false_friend,
    random_orthogonal,
    space_of,
    unit_rows,
)
from semdiv.alignment import (
    AlignmentMap,
    SeedLexicon,
    apply_alignment,
    learn_alignment,
    shared_spaces,
)
from semdiv.clustering import DistanceMatrix, to_distance, to_newick, upgma_steps
from semdiv.divergence import (
    CognatePairScore,
    CognateSet,
    LanguagePairSummary,
    SimilarityMatrix,
    cosine_similarity,
    histogram,
    language_pair_divergence,
    load_cognate_sets,
    similarity_matrix,
)
from semdiv.evaluation import as_percent, evaluate, load_gold_pairs
from semdiv.falsefriends import Falseness, classify, detect

pytestmark = pytest.mark.acceptance


# ---------------------------------------------------------------------------
# criterion 1: planted orthogonal map is recovered exactly and fast
# ---------------------------------------------------------------------------

def test_c1_orthogonal_map_recovery():
    rng = np.random.default_rng(11)
    dim, n_seeds = 10, 500
    planted = random_orthogonal(dim, rng)
    x = unit_rows(n_seeds, dim, rng)
    source = space_of("src", [f"s{i}" for i in range(n_seeds)], x, normalized=True)
    target = space_of("tgt", [f"t{i}" for i in range(n_seeds)], x @ planted, normalized=True)
    seeds = SeedLexicon("src", "tgt", tuple((f"s{i}", f"t{i}") for i in range(n_seeds)))

    start = time.perf_counter()
    amap = learn_alignment(source, target, seeds)
    elapsed = time.perf_counter() - start

    assert np.abs(amap.matrix - planted).max() < 1e-6
    assert amap.orthogonality_residual() < 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: alignment never moves intra-language cosines
# ---------------------------------------------------------------------------

def test_c2_monolingual_invariance():
    rng = np.random.default_rng(22)
    space = space_of(
        "xx", [f"w{i}" for i in range(300)], unit_rows(300, 24, rng), normalized=True
    )
    mapped = apply_alignment(space, AlignmentMap("xx", "pivot", random_orthogonal(24, rng)))
    pairs = rng.integers(0, 300, size=(1000, 2))
    worst = 0.0
    for i, j in pairs:
        before = cosine_similarity(space.vectors[i], space.vectors[j])
        after = cosine_similarity(mapped.vectors[i], mapped.vectors[j])
        worst = max(worst, abs(before - after))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criterion 3: detector agrees with a brute-force scan on 200 random instances
# ---------------------------------------------------------------------------

def test_c3_detector_matches_brute_force_scan():
    rng = np.random.default_rng(33)
    for _ in range(200):
        vocab_size = int(rng.integers(2, 1001))
        dim = int(rng.integers(2, 17))
        space1 = space_of("l1", ["c1"], unit_rows(1, dim, rng), normalized=True)
        space2 = space_of(
            "l2",
            [f"w{i}" for i in range(vocab_size)],
            unit_rows(vocab_size, dim, rng),
            normalized=True,
        )
        c2 = f"w{int(rng.integers(vocab_size))}"
        report = detect("c1", c2, space1, space2)
        verdict, correction, falseness = oracle_false_friend("c1", c2, space1, space2)
        assert report.is_false_friend == verdict
        assert report.correction == correction
        assert abs(report.falseness - falseness) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 4: average-linkage fixture and Romance first merge
# ---------------------------------------------------------------------------

def test_c4_upgma_fixture_heights_and_newick():
    entries = np.array(
        [
            [0.0, 2.0, 4.0, 6.0],
            [2.0, 0.0, 4.0, 6.0],
            [4.0, 4.0, 0.0, 6.0],
            [6.0, 6.0, 6.0, 0.0],
        ]
    )
    root, steps = upgma_steps(DistanceMatrix(("A", "B", "C", "D"), entries))
    assert [s.height for s in steps] == [1.0, 2.0, 3.0]
    assert to_newick(root) == "(((A:1.0000,B:1.0000):1.0000,C:2.0000):1.0000,D:3.0000);"


def test_c4_romance_first_merge_is_es_pt():
    dist = to_distance(SimilarityMatrix(ROMANCE_LABELS, ROMANCE_SIMILARITY))
    _, steps = upgma_steps(dist)
    assert {steps[0].cluster_a, steps[0].cluster_b} == {"es", "pt"}


# ---------------------------------------------------------------------------
# criterion 5: confusion counts (3,4,1,2) render 70.00 / 75.00 / 60.00
# ---------------------------------------------------------------------------

def test_c5_metric_arithmetic():
    from semdiv.evaluation import FALSE_FRIEND, TRUE_COGNATE, GoldPair
    from semdiv.falsefriends import FalseFriendReport

    def pred(i, verdict):
        return FalseFriendReport(
            "es", "pt", f"w{i}", f"v{i}", verdict,
            "fix" if verdict else None, 0.5 if verdict else 0.0, 0.1, 0.6 if verdict else 0.1,
        )

    gold, predictions = [], []
    plan = [(3, FALSE_FRIEND, True), (4, TRUE_COGNATE, False),
            (1, TRUE_COGNATE, True), (2, FALSE_FRIEND, False)]
    i = 0
    for count, label, verdict in plan:
        for _ in range(count):
            gold.append(GoldPair(f"w{i}", f"v{i}", "es", "pt", label))
            predictions.append(pred(i, verdict))
            i += 1

    result = evaluate(predictions, gold)
    assert (result.tp, result.tn, result.fp, result.fn) == (3, 4, 1, 2)
    assert as_percent(result.accuracy) == "70.00"
    assert as_percent(result.precision) == "75.00"
    assert as_percent(result.recall) == "60.00"


# ---------------------------------------------------------------------------
# criterion 6: property suites
# ---------------------------------------------------------------------------

def _nonzero_vector(length):
    return st.lists(st.floats(-50, 50), min_size=length, max_size=length).filter(
        lambda v: any(abs(x) > 1e-3 for x in v)
    )


vector_pairs = st.integers(2, 10).flatmap(
    lambda n: st.tuples(_nonzero_vector(n), _nonzero_vector(n))
)


@given(vector_pairs)
def test_c6_cosine_bounds_and_symmetry(pair):
    u, v = np.array(pair[0]), np.array(pair[1])
    sim = cosine_similarity(u, v)
    assert -1.0 <= sim <= 1.0
    assert sim == cosine_similarity(v, u)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_c6_falseness_never_negative(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(2, 50)), int(rng.integers(2, 8))
    space1 = space_of("l1", ["c1"], unit_rows(1, dim, rng), normalized=True)
    space2 = space_of(
        "l2", [f"w{i}" for i in range(n)], unit_rows(n, dim, rng), normalized=True
    )
    report = detect("c1", f"w{int(rng.integers(n))}", space1, space2)
    assert report.falseness >= 0.0
    assert (report.falseness == 0.0) == (not report.is_false_friend)
    assert report.best_similarity >= report.cognate_similarity


@given(st.floats(0.0, 2.0), st.floats(0.01, 1.0), st.floats(0.001, 1.0))
def test_c6_classify_monotone_in_threshold(falseness, low, extra):
    from semdiv.falsefriends import FalseFriendReport

    report = FalseFriendReport(
        "a", "b", "w1", "w2", falseness > 0,
        "fix" if falseness > 0 else None, falseness, 0.0, falseness,
    )
    at_low = classify(report, low).kind
    at_high = classify(report, low + extra).kind
    assert not (at_low is Falseness.SOFT and at_high is Falseness.HARD)


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=300))
def test_c6_histogram_counts_conserved(sims):
    scores = tuple(
        CognatePairScore("l1", "l2", f"a{i}", f"b{i}", s) for i, s in enumerate(sims)
    )
    summary = LanguagePairSummary(
        "l1", "l2", math.fsum(sims) / len(sims), len(sims), 0, scores
    )
    hist = histogram(summary)
    assert sum(hist.counts) == summary.scored_count


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_c6_matrix_symmetric_with_unit_diagonal(seed, n_langs):
    rng = np.random.default_rng(seed)
    n_words = 6
    spaces = {
        f"l{k}": space_of(
            f"l{k}", [f"w{k}_{i}" for i in range(n_words)],
            unit_rows(n_words, 5, rng), normalized=True,
        )
        for k in range(n_langs)
    }
    cognates = [
        CognateSet(f"e{i}", {f"l{k}": f"w{k}_{i}" for k in range(n_langs)})
        for i in range(n_words)
    ]
    matrix = similarity_matrix(cognates, sorted(spaces), spaces)
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.array_equal(np.diagonal(matrix.values), np.ones(n_langs))


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_c6_newick_stable_under_label_permutation(seed, n):
    rng = np.random.default_rng(seed)
    labels = tuple(f"L{i}" for i in range(n))
    raw = rng.uniform(0.05, 1.0, size=(n, n))
    entries = (raw + raw.T) / 2.0
    np.fill_diagonal(entries, 0.0)
    perm = rng.permutation(n)
    base, _ = upgma_steps(DistanceMatrix(labels, entries))
    shuffled, _ = upgma_steps(
        DistanceMatrix(tuple(labels[i] for i in perm), entries[np.ix_(perm, perm)])
    )
    assert to_newick(base) == to_newick(shuffled)


# ---------------------------------------------------------------------------
# criteria 7-9: full-scale reproduction targets (optional, data-dependent)
# ---------------------------------------------------------------------------

DATA_DIR = os.environ.get("SEMDIV_DATA_DIR")


def _data_path(*parts):
    return Path(DATA_DIR).joinpath(*parts) if DATA_DIR else None


def _have(*relative):
    return DATA_DIR is not None and all(_data_path(p).exists() for p in relative)


def _romance_spaces(*langs):
    return shared_spaces(
        langs,
        "en",
        {l: _data_path(f"embeddings/wiki.{l}.vec") for l in langs},
        {l: {"matrix": _data_path(f"alignments/{l}_to_en.txt")} for l in langs},
    )


needs = pytest.mark.skipif(
    DATA_DIR is None, reason="full-scale data not present (set SEMDIV_DATA_DIR)"
)


@needs
@pytest.mark.fullscale
def test_c7_romance_similarity_means():
    required = [f"embeddings/wiki.{l}.vec" for l in ("es", "pt", "fr", "it", "ro", "la")]
    required += [f"alignments/{l}_to_en.txt" for l in ("es", "pt", "fr", "it", "ro", "la")]
    required += ["cognates/cognates.tsv"]
    if not _have(*required):
        pytest.skip("missing embeddings, alignment matrices, or cognate list")
    cognates = load_cognate_sets(_data_path("cognates/cognates.tsv"))
    spaces = _romance_spaces("es", "pt", "fr", "it", "ro", "la")

    es_pt = language_pair_divergence(cognates, "es", "pt", spaces)
    assert abs(es_pt.mean_similarity - 0.70) <= 0.03

    ro_means = {
        other: language_pair_divergence(cognates, "ro", other, spaces).mean_similarity
        for other in ("es", "pt", "fr", "it", "la")
    }
    assert abs(ro_means["la"] - 0.40) <= 0.03
    assert ro_means["la"] == min(ro_means.values())


@needs
@pytest.mark.fullscale
def test_c8_curated_es_pt_evaluation():
    required = [
        "embeddings/wiki.es.vec", "embeddings/wiki.pt.vec",
        "alignments/es_to_en.txt", "alignments/pt_to_en.txt",
        "gold/es_pt_curated.tsv",
    ]
    if not _have(*required):
        pytest.skip("missing embeddings, alignment matrices, or curated gold list")
    gold = load_gold_pairs(_data_path("gold/es_pt_curated.tsv"), "es", "pt")
    spaces = _romance_spaces("es", "pt")
    predictions = []
    for pair in gold:
        try:
            predictions.append(detect(pair.word1, pair.word2, spaces["es"], spaces["pt"]))
        except ValueError:
            continue
    result = evaluate(predictions, gold)
    assert abs(100 * result.accuracy - 81.12) <= 2.0
    assert abs(100 * result.precision - 86.68) <= 2.0
    assert abs(100 * result.recall - 75.59) <= 2.0


@needs
@pytest.mark.fullscale
def test_c9_prix_prez_verdict():
    required = [
        "embeddings/wiki.fr.vec", "embeddings/wiki.es.vec",
        "alignments/fr_to_en.txt", "alignments/es_to_en.txt",
    ]
    if not _have(*required):
        pytest.skip("missing embeddings or alignment matrices")
    spaces = _romance_spaces("fr", "es")
    report = detect("prix", "prez", spaces["fr"], spaces["es"])
    assert report.is_false_friend
    assert report.correction == "premio"
    assert abs(report.falseness - 0.67) <= 0.05
