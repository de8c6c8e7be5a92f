import importlib.util
import sys
from pathlib import Path

import numpy as np

from helpers import random_orthogonal, write_matrix, write_vec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_full_scale_data(root: Path) -> None:
    """es and pt spaces stored in rotated coordinates with their maps into the
    English pivot, a cognate table, and a curated gold list with one planted
    false friend: es "exquisito" is orthogonal to pt "esquisito" and closest
    to pt "delicioso". Cognate similarities are 1, 1, 0.8 and 0."""
    dim = 8
    e = np.eye(dim)
    rng = np.random.default_rng(3)
    es = {"casa": e[0], "perro": e[1], "agua": e[2], "exquisito": e[3]}
    pt = {"casa": e[0], "cao": e[1], "agua": 0.8 * e[2] + 0.6 * e[4],
          "esquisito": e[5], "delicioso": 0.9 * e[3] + np.sqrt(0.19) * e[6]}
    for sub in ("embeddings", "alignments", "cognates", "gold"):
        (root / sub).mkdir()
    for lang, words in (("es", es), ("pt", pt)):
        rotation = random_orthogonal(dim, rng)
        write_vec(root / f"embeddings/wiki.{lang}.vec", list(words),
                  np.vstack(list(words.values())) @ rotation)
        write_matrix(root / f"alignments/{lang}_to_en.txt", rotation.T)
    (root / "cognates/cognates.tsv").write_text(
        "etymon\tes\tpt\n"
        "casa\tcasa\tcasa\n"
        "canis\tperro\tcao\n"
        "aqua\tagua\tagua\n"
        "exquisitus\texquisito\tesquisito\n",
        encoding="utf-8",
    )
    (root / "gold/es_pt_curated.tsv").write_text(
        "casa\tcasa\tTC\nagua\tagua\tTC\nexquisito\tesquisito\tFF\n", encoding="utf-8"
    )


def test_run_full_scale_smoke(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    build_full_scale_data(data)
    out = tmp_path / "out"
    monkeypatch.setenv("SEMDIV_DATA_DIR", str(data))
    monkeypatch.setattr(sys, "argv", ["run_full_scale.py", "--out", str(out)])

    assert load_script("run_full_scale").main() is None  # no sys.exit: exit status 0

    assert (out / "similarity_matrix.csv").read_text().startswith("language,es,pt\n")
    assert (out / "dendrogram.nwk").read_text().strip() == "(es:0.1500,pt:0.1500);"
    printed = capsys.readouterr().out
    assert "es-pt mean similarity: measured 0.7000" in printed
    assert "evaluated 3, excluded 0" in printed
