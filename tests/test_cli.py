import json
import shutil

import numpy as np
import pytest

from helpers import build_eval_project, write_matrix, write_vec
from semdiv.cli import RunConfig, main


def run(*argv):
    return main([str(a) for a in argv])


def read_matrix_file(path):
    return np.array(
        [[float(x) for x in line.split()] for line in path.read_text().splitlines()]
    )


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


class TestAlign:
    def test_loaded_matrices_reported(self, toy_project):
        assert run("align", "--config", toy_project.config) == 0
        report = (toy_project.out / "alignment_report.txt").read_text()
        assert report.splitlines()[0].startswith("language")
        for lang in ("bb", "cc"):
            written = read_matrix_file(toy_project.out / f"alignment_{lang}_to_aa.txt")
            assert np.abs(written - toy_project.rotations[lang].T).max() < 1e-9

    def test_learned_from_seeds_recovers_rotations(self, toy_project):
        assert run("align", "--config", toy_project.config_seeds) == 0
        for lang in ("bb", "cc"):
            written = read_matrix_file(toy_project.out / f"alignment_{lang}_to_aa.txt")
            assert np.abs(written - toy_project.rotations[lang].T).max() < 1e-6
        for line in (toy_project.out / "alignment_report.txt").read_text().splitlines()[1:]:
            assert float(line.split("\t")[1]) < 1e-6

    def test_identity_seeds_give_identity(self, tmp_path, toy_project):
        shutil.copy(toy_project.root / "aa.vec", toy_project.root / "ee.vec")
        config = tmp_path / "identity.json"
        config.write_text(
            json.dumps(
                {
                    "languages": ["aa", "ee"],
                    "pivot": "aa",
                    "embeddings": {
                        "aa": str(toy_project.root / "aa.vec"),
                        "ee": str(toy_project.root / "ee.vec"),
                    },
                    "alignments": {"ee": {"seeds": str(toy_project.root / "seeds_bb_aa.tsv")}},
                    "out": "out",
                }
            ),
            encoding="utf-8",
        )
        assert run("align", "--config", config) == 0
        written = read_matrix_file(tmp_path / "out" / "alignment_ee_to_aa.txt")
        assert np.abs(written - np.eye(8)).max() < 1e-6

    def test_all_matrix_config_never_parses_pivot(self, toy_project, capsys):
        (toy_project.root / "broken.vec").write_text("not a vector file\n", encoding="utf-8")
        config = json.loads(toy_project.config.read_text())
        config["embeddings"]["aa"] = "broken.vec"
        broken_pivot = toy_project.root / "broken_pivot.json"
        broken_pivot.write_text(json.dumps(config), encoding="utf-8")
        assert run("align", "--config", broken_pivot) == 0
        # the file is really unreadable: a command that needs the pivot fails on it
        assert run("divergence", "--config", broken_pivot) == 1
        assert "language 'aa'" in capsys.readouterr().err

    def test_missing_seed_file_names_language(self, toy_project, capsys):
        config = json.loads(toy_project.config_seeds.read_text())
        config["alignments"]["bb"]["seeds"] = "nowhere.tsv"
        bad = toy_project.root / "bad.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert run("align", "--config", bad) == 1
        assert "'bb'" in capsys.readouterr().err


class TestDivergence:
    def test_matrix_matches_planted_means(self, toy_project):
        assert run("divergence", "--config", toy_project.config) == 0
        rows = read_csv_rows(toy_project.out / "similarity_matrix.csv")
        values = {row[0]: [float(x) for x in row[1:]] for row in rows}
        order = ["aa", "bb", "cc"]
        for (l1, l2), mean in toy_project.expected_means.items():
            assert values[l1][order.index(l2)] == pytest.approx(mean, abs=1e-9)
            assert values[l2][order.index(l1)] == pytest.approx(mean, abs=1e-9)
        for lang in order:
            assert values[lang][order.index(lang)] == 1.0

    def test_scores_extremes_and_summary(self, toy_project):
        run("divergence", "--config", toy_project.config)
        scores = read_csv_rows(toy_project.out / "scores_aa_bb.csv")
        assert len(scores) == 4
        extremes = read_csv_rows(toy_project.out / "extremes.csv")
        aa_bb = next(row for row in extremes if row[:2] == ["aa", "bb"])
        # ties at 1.0 keep the earlier cognate; rock/fels is the planted low end
        assert aa_bb[2:5] == ["sun", "sonne", "1"]
        assert aa_bb[5:] == ["rock", "fels", "0.2"]
        summary = json.loads((toy_project.out / "divergence_summary.json").read_text())
        assert {p["lang1"] for p in summary["pairs"]} == {"aa", "bb"}
        assert all(p["skipped_oov_count"] == 0 for p in summary["pairs"])

    def test_histogram_toggle(self, toy_project):
        run("divergence", "--config", toy_project.config, "--histogram")
        rows = read_csv_rows(toy_project.out / "histogram_aa_bb.csv")
        assert len(rows) == 50
        assert sum(int(r[2]) for r in rows) == 4

    def test_no_histogram_by_default(self, toy_project):
        run("divergence", "--config", toy_project.config)
        assert not (toy_project.out / "histogram_aa_bb.csv").exists()

    def test_byte_identical_reruns(self, toy_project):
        for out in ("o1", "o2"):
            flags = ("--config", toy_project.config, "--out", str(toy_project.root / out))
            run("align", *flags)
            run("divergence", *flags, "--histogram")
            run("cluster", *flags)
            run("falsefriends", *flags, "--langs", "aa,bb")
        for name in (
            "alignment_bb_to_aa.txt",
            "alignment_report.txt",
            "similarity_matrix.csv",
            "scores_aa_bb.csv",
            "extremes.csv",
            "histogram_aa_bb.csv",
            "divergence_summary.json",
            "dendrogram.nwk",
            "merges.csv",
            "falsefriends_aa_bb.tsv",
            "falsefriends_aa_bb.json",
        ):
            first = (toy_project.root / "o1" / name).read_bytes()
            second = (toy_project.root / "o2" / name).read_bytes()
            assert first == second, name

    def test_failing_pair_isolated(self, toy_project, capsys):
        cognates = toy_project.root / "cognates_dd.tsv"
        cognates.write_text(
            "etymon\taa\tbb\tdd\n"
            "sol_\tsun\tsonne\txx1\n"
            "luna_\tmoon\tmond\txx2\n",
            encoding="utf-8",
        )
        write_vec(toy_project.root / "dd.vec", ["other"], np.eye(8)[:1])
        write_matrix(toy_project.root / "dd_to_aa.txt", np.eye(8))
        config = json.loads(toy_project.config.read_text())
        config["languages"] = ["aa", "bb", "dd"]
        config["embeddings"] = {"aa": "aa.vec", "bb": "bb.vec", "dd": "dd.vec"}
        config["alignments"] = {
            "bb": {"matrix": "bb_to_aa.txt"},
            "dd": {"matrix": "dd_to_aa.txt"},
        }
        config["cognates"] = "cognates_dd.tsv"
        bad = toy_project.root / "config_dd.json"
        bad.write_text(json.dumps(config), encoding="utf-8")

        assert run("divergence", "--config", bad) == 1
        err = capsys.readouterr().err
        assert "aa-dd" in err and "bb-dd" in err
        assert (toy_project.out / "scores_aa_bb.csv").exists()
        errors = (toy_project.out / "errors.txt").read_text()
        assert "aa-dd" in errors and "bb-dd" in errors
        rows = read_csv_rows(toy_project.out / "similarity_matrix.csv")
        assert rows[0][3] == "nan"  # aa-dd entry

    def test_langs_flag_subsets(self, toy_project):
        assert run("divergence", "--config", toy_project.config, "--langs", "aa,bb") == 0
        assert (toy_project.out / "scores_aa_bb.csv").exists()
        assert not (toy_project.out / "scores_aa_cc.csv").exists()


class TestCluster:
    def test_composes_with_divergence(self, toy_project):
        run("divergence", "--config", toy_project.config)
        assert run("cluster", "--config", toy_project.config) == 0
        merges = read_csv_rows(toy_project.out / "merges.csv")
        # closest planted pair is aa-cc at distance 0.15
        assert {merges[0][1], merges[0][2]} == {"aa", "cc"}
        assert float(merges[0][3]) == pytest.approx(0.075, abs=1e-9)
        newick = (toy_project.out / "dendrogram.nwk").read_text()
        assert newick.startswith("((aa:0.0750,cc:0.0750):")
        assert newick.rstrip().endswith(";")

    def test_two_language_matrix(self, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_text("language,x,y\nx,1,0.5\ny,0.5,1\n", encoding="utf-8")
        assert run("cluster", "--matrix", matrix, "--out", tmp_path / "out") == 0
        newick = (tmp_path / "out" / "dendrogram.nwk").read_text().strip()
        assert newick == "(x:0.2500,y:0.2500);"

    def test_asymmetric_matrix_rejected(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("language,x,y\nx,1,0.5\ny,0.7,1\n", encoding="utf-8")
        assert run("cluster", "--matrix", matrix, "--out", tmp_path / "out") == 1
        assert "asymmetric" in capsys.readouterr().err

    def test_missing_matrix_explains(self, tmp_path, capsys):
        assert run("cluster", "--out", tmp_path / "nowhere") == 1
        assert "similarity matrix not found" in capsys.readouterr().err


class TestFalseFriends:
    def test_exactly_one_engineered_false_friend(self, toy_project, capsys):
        assert run(
            "falsefriends", "--config", toy_project.config, "--langs", "aa,bb"
        ) == 0
        lines = (toy_project.out / "falsefriends_aa_bb.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        flagged = [row for row in rows if row[2] == "true"]
        word1, word2, correction, falseness = toy_project.expected_false_friend
        assert len(flagged) == 1
        assert flagged[0][0] == word1 and flagged[0][1] == word2
        assert flagged[0][3] == correction
        assert float(flagged[0][4]) == pytest.approx(falseness, abs=1e-9)
        assert flagged[0][5] == "hard"
        # descending falseness puts the false friend first
        assert rows[0][0] == word1
        out = capsys.readouterr().out
        assert "hard=1" in out and "true_cognate=3" in out

    def test_threshold_flag_softens(self, toy_project):
        run(
            "falsefriends", "--config", toy_project.config,
            "--langs", "aa,bb", "--threshold", "0.8",
        )
        payload = json.loads((toy_project.out / "falsefriends_aa_bb.json").read_text())
        assert payload["class_counts"] == {"hard": 0, "soft": 1, "true_cognate": 3}

    def test_raising_threshold_never_adds_hard_verdicts(self, toy_project):
        hard_counts = []
        for threshold in ("0.3", "0.5", "0.8"):
            run(
                "falsefriends", "--config", toy_project.config,
                "--langs", "aa,bb", "--threshold", threshold,
            )
            payload = json.loads(
                (toy_project.out / "falsefriends_aa_bb.json").read_text()
            )
            hard_counts.append(payload["class_counts"]["hard"])
        assert hard_counts == sorted(hard_counts, reverse=True)
        assert hard_counts == [1, 1, 0]

    def test_needs_exactly_two_langs(self, toy_project, capsys):
        assert run("falsefriends", "--config", toy_project.config) == 1
        assert "exactly two languages" in capsys.readouterr().err


class TestEvaluate:
    def test_hand_confusion_renders_70(self, tmp_path, capsys):
        project = build_eval_project(tmp_path)
        assert run(
            "evaluate", "--config", project.config, "--gold", project.gold,
            "--langs", "xx,yy",
        ) == 0
        out = capsys.readouterr().out
        assert "70.00" in out and "75.00" in out and "60.00" in out
        payload = json.loads((project.out / "eval_xx_yy.json").read_text())
        assert (payload["tp"], payload["tn"], payload["fp"], payload["fn"]) == (3, 4, 1, 2)
        table = (project.out / "eval_xx_yy.txt").read_text().splitlines()
        assert table[1].split() == ["xx-yy", "70.00", "75.00", "60.00"]

    def test_synset_gold_labels(self, toy_project):
        synsets = toy_project.root / "synsets.txt"
        # sonne together with sun, baum with tree; fels present but apart;
        # mond missing entirely -> excluded
        synsets.write_text(
            "aa:sun bb:sonne\n"
            "aa:tree bb:baum\n"
            "aa:rock\n"
            "bb:fels\n",
            encoding="utf-8",
        )
        assert run(
            "evaluate", "--config", toy_project.config, "--synsets", synsets,
            "--langs", "aa,bb",
        ) == 0
        payload = json.loads((toy_project.out / "eval_aa_bb.json").read_text())
        # rock/fels: labeled FF and detected (tp); sun+tree pairs: tn
        assert payload["tp"] == 1 and payload["tn"] == 2
        assert payload["synset_excluded_count"] == 1

    def test_empty_gold_is_error(self, tmp_path, capsys):
        project = build_eval_project(tmp_path)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert run(
            "evaluate", "--config", project.config, "--gold", empty, "--langs", "xx,yy"
        ) == 1
        assert "no gold pairs" in capsys.readouterr().err

    def test_requires_one_gold_source(self, tmp_path, capsys):
        project = build_eval_project(tmp_path)
        assert run("evaluate", "--config", project.config, "--langs", "xx,yy") == 1
        assert "exactly one of" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"languages": ["a"], "pivot": "a", "typo": 1}))
        assert run("align", "--config", config) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_embedding_path_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "languages": ["a", "b"],
                    "pivot": "a",
                    "embeddings": {"a": "missing.vec", "b": "missing.vec"},
                    "alignments": {"b": {"matrix": "m.txt"}},
                }
            )
        )
        assert run("align", "--config", config) == 1
        assert "not found" in capsys.readouterr().err

    def test_pivot_must_keep_identity(self, toy_project, capsys):
        config = json.loads(toy_project.config.read_text())
        config["alignments"]["aa"] = {"matrix": "bb_to_aa.txt"}
        bad = toy_project.root / "bad_pivot.json"
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert run("align", "--config", bad) == 1
        assert "identity" in capsys.readouterr().err

    def test_limit_zero_in_config_loads_every_row(self, toy_project):
        config = json.loads(toy_project.config.read_text())
        config["limit"] = 0
        unlimited = toy_project.root / "unlimited.json"
        unlimited.write_text(json.dumps(config), encoding="utf-8")
        assert RunConfig.load(unlimited).limit is None
        assert run("divergence", "--config", unlimited) == 0
        summary = json.loads((toy_project.out / "divergence_summary.json").read_text())
        assert [(p["scored_count"], p["skipped_oov_count"]) for p in summary["pairs"]] == [
            (4, 0)
        ] * 3

    def test_numeric_failure_exits_2(self, toy_project, monkeypatch, capsys):
        def broken_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", broken_svd)
        assert run("align", "--config", toy_project.config_seeds) == 2
        assert "numeric failure" in capsys.readouterr().err


class TestClusterOnReferenceFigures:
    def test_reference_similarity_table_clusters_es_pt_first(self, tmp_path):
        from helpers import ROMANCE_LABELS, ROMANCE_SIMILARITY
        from semdiv.divergence import write_similarity_csv

        matrix = tmp_path / "similarity_matrix.csv"
        write_similarity_csv(ROMANCE_LABELS, ROMANCE_SIMILARITY, matrix)
        assert run("cluster", "--matrix", matrix, "--out", tmp_path / "out") == 0
        merges = read_csv_rows(tmp_path / "out" / "merges.csv")
        assert {merges[0][1], merges[0][2]} == {"es", "pt"}
        assert float(merges[0][3]) == pytest.approx(0.15, abs=1e-12)
        heights = [float(row[3]) for row in merges]
        assert heights == sorted(heights)
