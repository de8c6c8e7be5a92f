"""The benchmark's workloads: a corpus shape and the semdiv command sequence
run on it. Kept free of numpy so the driver process stays small (a child's
``ru_maxrss`` starts from its parent's resident size at fork)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes and structure of one workload's corpus; ``languages[0]`` is the
    pivot. A tree node is a language tag or (left, right, similarity level),
    with levels rising from the root towards the leaves. A language whose
    ``rows`` equal ``limit`` gets ``extra_rows`` more rows after the limit."""

    languages: tuple[str, ...]
    tree: tuple
    dim: int
    cognates: int
    limit: int
    rows: dict            # language -> rows inside the limit (<= limit)
    extra_rows: int
    seed_aligned: tuple[str, ...]
    oov_per_lang: int = 0
    ff_pair: tuple[str, str] | None = None
    ff_share: float = 0.0
    gold_pairs: int = 0
    anchors: int = 0

    @property
    def pivot(self) -> str:
        return self.languages[0]


FIVE = ("aa", "bb", "cc", "dd", "ee")
EIGHT = ("aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh")


@dataclass(frozen=True)
class Workload:
    why: str                                # as in BENCHMARK.json
    spec: CorpusSpec
    commands: tuple[tuple[str, ...], ...]   # "{gold}" stands for the gold file


def _pipeline(limit: int, cognates: int, gold: int, dim: int, anchors: int) -> Workload:
    return Workload(
        why="Quick-start session on 5 languages x 300 dims: 14 text parses in 5"
        " processes, so parse, I/O and memory dominate; scan and scoring are small",
        spec=CorpusSpec(
            languages=FIVE,
            tree=((("aa", "bb", 0.88), "cc", 0.72), ("dd", "ee", 0.80), 0.40),
            dim=dim,
            cognates=cognates,
            limit=limit,
            rows={lang: limit for lang in FIVE},
            extra_rows=limit // 4,
            seed_aligned=("bb", "cc"),
            oov_per_lang=10,
            ff_pair=("aa", "bb"),
            ff_share=0.05,
            gold_pairs=gold,
            anchors=anchors,
        ),
        commands=(
            ("align",),
            ("divergence", "--histogram"),
            ("cluster",),
            ("falsefriends", "--langs", "aa,bb"),
            ("evaluate", "--langs", "aa,bb", "--gold", "{gold}"),
        ),
    )


def _ffscan(scanned: int, query: int, cognates: int, gold: int, dim: int, anchors: int) -> Workload:
    return Workload(
        why="falsefriends + evaluate on one pair whose scanned space (60k x 300, 144"
        " MB) is over 4x the L3: the memory-bound per-pair scan dominates",
        spec=CorpusSpec(
            languages=("aa", "bb"),
            tree=("aa", "bb", 0.85),
            dim=dim,
            cognates=cognates,
            limit=scanned,
            rows={"aa": query, "bb": scanned},
            extra_rows=scanned // 10,
            seed_aligned=("bb",),
            oov_per_lang=20,
            ff_pair=("aa", "bb"),
            ff_share=0.05,
            gold_pairs=gold,
            anchors=anchors,
        ),
        commands=(("falsefriends",), ("evaluate", "--gold", "{gold}")),
    )


def _divergence_wide(cognates: int, dim: int, anchors: int) -> Workload:
    limit = cognates + 2 * anchors + 1000
    return Workload(
        why="8 languages x 64 dims, 15k cognate sets, no scan: per-pair scoring,"
        " histograms and CSV writers dominate; the scan layer is bypassed",
        spec=CorpusSpec(
            languages=EIGHT,
            tree=(
                ((("aa", "bb", 0.90), "cc", 0.80), "dd", 0.70),
                ((("ee", "ff", 0.86), "gg", 0.76), "hh", 0.66),
                0.35,
            ),
            dim=dim,
            cognates=cognates,
            limit=limit,
            rows={lang: limit for lang in EIGHT},
            extra_rows=limit // 8,
            seed_aligned=("bb", "dd", "ff", "hh"),
            oov_per_lang=20,
            anchors=anchors,
        ),
        commands=(("divergence", "--histogram"), ("cluster",)),
    )


WORKLOADS = {
    "full": {
        "pipeline": _pipeline(limit=12_000, cognates=1_000, gold=400, dim=300, anchors=400),
        "ffscan": _ffscan(scanned=60_000, query=6_000, cognates=1_000, gold=500, dim=300, anchors=400),
        "divergence-wide": _divergence_wide(cognates=15_000, dim=64, anchors=128),
    },
    # seconds-scale versions for the smoke test
    "tiny": {
        "pipeline": _pipeline(limit=600, cognates=200, gold=60, dim=64, anchors=96),
        "ffscan": _ffscan(scanned=1_500, query=400, cognates=200, gold=60, dim=64, anchors=96),
        "divergence-wide": _divergence_wide(cognates=300, dim=32, anchors=48),
    },
}
