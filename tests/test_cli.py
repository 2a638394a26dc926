import json

import numpy as np
import pytest
from scipy.io import wavfile

from coughrank.audio import FEATURE_COLUMNS
from coughrank.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main, read_config
from coughrank.metrics import PredictionSet
from coughrank.tables import read_features, write_features, write_predictions

from conftest import DATA_DIR


def write_wav(path, freq, rate=8000, duration=0.4, seed=None):
    t = np.arange(int(rate * duration)) / rate
    wave = 0.4 * np.sin(2 * np.pi * freq * t)
    if seed is not None:
        wave += 0.05 * np.random.default_rng(seed).normal(size=t.size)
    wavfile.write(path, rate, (wave * 32767).astype(np.int16))


def make_features_csv(path, n_pos=25, n_neg=35, gap=2.0, seed=0):
    """Synthetic labeled feature table; every column separates the classes."""
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    labels = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(size=(n, len(FEATURE_COLUMNS)))
    X += gap * labels[:, None]
    rows = [(f"s{i:03d}", int(labels[i]), X[i]) for i in range(n)]
    write_features(path, rows)
    return [r[0] for r in rows], labels


def make_external_csv(path, sample_ids, labels, n_models=8, seed=1):
    rng = np.random.default_rng(seed)
    sets = []
    for m in range(n_models):
        sep = 0.25 + 0.08 * m
        for strategy in ("1", "2", "3"):
            scores = np.clip(
                0.5 + (labels - 0.5) * sep + rng.normal(0, 0.12, labels.size),
                0.01,
                0.99,
            )
            sets.append(
                PredictionSet(
                    model_name=f"ext{m}",
                    strategy_id=strategy,
                    sample_ids=list(sample_ids),
                    true_labels=labels,
                    scores=scores,
                )
            )
    write_predictions(path, sets)


class TestReadConfig:
    def test_parses_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 7\nname = knn\nsmote_k = 3\n")
        assert read_config(path) == {"seed": 7, "name": "knn", "smote_k": 3}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception):
            read_config(path)


class TestExtract:
    def test_features_written_with_labels(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        for i, freq in enumerate((220, 440, 880)):
            write_wav(wav_dir / f"clip{i}.wav", freq, seed=i)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\nclip0,1\nclip1,0\nclip2,covid\n")
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_OK
        ids, parsed_labels, matrix = read_features(out)
        assert ids == ["clip0", "clip1", "clip2"]
        assert parsed_labels == [1, 0, 1]
        assert matrix.shape == (3, 193)
        header = out.read_text().splitlines()[0]
        assert len(header.split(",")) == 195

    @pytest.mark.parametrize(
        "body, bad_line",
        [("clip0,1\nclip1\n", 3), ("clip0,1\n\nclip1,0\n", 3)],
        ids=["one_column", "blank_line"],
    )
    def test_short_labels_row_is_input_error(self, tmp_path, capsys, body, bad_line):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "clip0.wav", 300)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\n" + body)
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_INPUT
        assert f"{labels}:{bad_line}:" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        write_wav(wav_dir / "b.wav", 500)
        out1 = tmp_path / "f1.csv"
        out2 = tmp_path / "f2.csv"
        assert main(["extract", str(wav_dir), "--out", str(out1)]) == EXIT_OK
        assert main(["extract", str(wav_dir), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_directory_is_input_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "features.csv"
        assert main(["extract", str(empty), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()


class TestEvaluate:
    def test_matrices_built_per_strategy(self, tmp_path):
        labels = np.array([0, 1] * 10)
        ids = [f"s{i}" for i in range(20)]
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, ids, labels, n_models=3, seed=2)
        out = tmp_path / "out"
        code = main(["evaluate", str(preds), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DEGENERATE)
        for strategy in ("1", "2", "3"):
            dm = (out / f"decision_matrix_strategy{strategy}.csv").read_text()
            assert dm.splitlines()[0].startswith("model,acc,auc")
            assert len(dm.splitlines()) == 4

    def test_matrix_passthrough(self, tmp_path):
        src = DATA_DIR / "decision_matrix_asymptomatic_strategy1.csv"
        out = tmp_path / "out"
        code = main(["evaluate", "--matrix", str(src), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / src.name).read_bytes() == src.read_bytes()

    def test_missing_inputs_rejected(self, tmp_path):
        assert main(["evaluate", "--out", str(tmp_path / "o")]) == EXIT_INPUT

    def test_single_model_rejected(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, [f"s{i}" for i in range(10)], np.array([0, 1] * 5), n_models=1)
        assert main(["evaluate", str(preds), "--out", str(tmp_path / "o")]) == EXIT_INPUT


class TestRank:
    def run_rank(self, tmp_path, category, name="out"):
        matrices = [
            str(DATA_DIR / f"decision_matrix_{category}_strategy{s}.csv")
            for s in (1, 2, 3)
        ]
        out = tmp_path / name
        code = main(
            ["rank", *matrices, "--criteria", str(DATA_DIR / "criteria.csv"), "--out", str(out)]
        )
        assert code == EXIT_OK
        return out, json.loads((out / "report.json").read_text())

    def test_published_asymptomatic_winners(self, tmp_path):
        out, report = self.run_rank(tmp_path, "asymptomatic")
        assert report["ensemble"]["soft_best"] == "Extra-Trees"
        assert report["ensemble"]["hard_best"] == "HGBoost"
        assert report["ensemble"]["hard_totals"]["HGBoost"] == 27
        assert report["ensemble"]["hard_totals"]["Extra-Trees"] == 26
        assert report["ensemble"]["hard_totals"]["RF"] == 25
        for f in ("closeness.csv", "ensemble_report.csv", "run_manifest.json"):
            assert (out / f).exists()
        for s in ("1", "2", "3"):
            assert (out / f"weights_strategy{s}.csv").exists()
            assert (out / f"topsis_report_strategy{s}.csv").exists()

    def test_published_symptomatic_winners(self, tmp_path):
        _, report = self.run_rank(tmp_path, "symptomatic")
        assert report["ensemble"]["soft_best"] == "Extra-Trees"
        assert report["ensemble"]["hard_best"] == "Extra-Trees"
        assert report["ensemble"]["hard_totals"]["Extra-Trees"] == 28
        assert report["ensemble"]["hard_totals"]["RF"] == 25
        assert report["ensemble"]["hard_totals"]["XGBoost"] == 22

    def test_rerun_byte_identical(self, tmp_path):
        out1, _ = self.run_rank(tmp_path, "asymptomatic", "run1")
        out2, _ = self.run_rank(tmp_path, "asymptomatic", "run2")
        for f in sorted(p.name for p in out1.iterdir()):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f

    def test_manifest_digests_inputs(self, tmp_path):
        out, report = self.run_rank(tmp_path, "symptomatic")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert len(manifest["input_digests"]) == 4
        for digest in manifest["input_digests"].values():
            assert len(digest) == 64
        assert manifest == report["manifest"]


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    features = tmp_path / "features.csv"
    ids, labels = make_features_csv(features)
    external = tmp_path / "external.csv"
    make_external_csv(external, ids, labels)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                str(features),
                "--external",
                str(external),
                "--out",
                str(out),
                "--seed",
                "42",
            ]
        )
        assert code in (EXIT_OK, EXIT_DEGENERATE)
        outs.append(out)
    return outs


class TestPipeline:
    def test_report_covers_all_models_and_strategies(self, pipeline_runs):
        report = json.loads((pipeline_runs[0] / "report.json").read_text())
        models = set(report["ensemble"]["hard_totals"])
        assert models == {"knn", "logreg"} | {f"ext{m}" for m in range(8)}
        assert set(report["topsis"]) == {"1", "2", "3"}
        assert set(report["weights"]["1"]) == {
            "acc", "auc", "precision", "recall", "specificity", "f1", "fpr", "fnr",
        }
        for strategy in ("1", "2", "3"):
            assert abs(sum(report["weights"][strategy].values()) - 1.0) < 1e-6

    def test_in_repo_models_score_well(self, pipeline_runs):
        out = pipeline_runs[0]
        for strategy in ("1", "2", "3"):
            text = (out / f"evaluation_reports_strategy{strategy}.csv").read_text()
            for line in text.splitlines()[1:]:
                cells = line.split(",")
                if cells[0] in ("knn", "logreg"):
                    assert float(cells[2]) >= 0.99  # auc column

    def test_artifacts_written(self, pipeline_runs):
        out = pipeline_runs[0]
        expected = [
            "predictions.csv",
            "criteria.csv",
            "closeness.csv",
            "ensemble_report.csv",
            "run_manifest.json",
            "report.json",
        ]
        expected += [f"decision_matrix_strategy{s}.csv" for s in "123"]
        for f in expected:
            assert (out / f).exists(), f

    def test_rerun_byte_identical(self, pipeline_runs):
        run1, run2 = pipeline_runs
        for f in sorted(p.name for p in run1.iterdir()):
            assert (run1 / f).read_bytes() == (run2 / f).read_bytes(), f

    def test_missing_labels_rejected(self, tmp_path):
        features = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        write_features(
            features,
            [(f"s{i}", None, rng.normal(size=193)) for i in range(10)],
        )
        assert main(["pipeline", str(features), "--out", str(tmp_path / "o")]) == EXIT_INPUT


class TestRfecv:
    def test_curve_written(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        make_features_csv(features, n_pos=20, n_neg=20, seed=3)
        out = tmp_path / "curve.csv"
        code = main(["rfecv", str(features), "--step", "64", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n_features,mean_auc"
        sizes = [int(l.split(",")[0]) for l in lines[1:]]
        assert sizes[0] == 193
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert "selected" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["rfecv", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT
