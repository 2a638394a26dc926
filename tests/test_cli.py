import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from coughrank.audio import FEATURE_COLUMNS, extract_features, load_and_resample
from coughrank import InputError, cli
from coughrank.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main, read_config
from coughrank.metrics import METRIC_NAMES, PredictionSet
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
        path.write_text("# comment\nthreshold_objective = recall\nsmote_k = 3\n")
        assert read_config(path) == {"threshold_objective": "recall", "smote_k": 3}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception):
            read_config(path)

    def test_repeated_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("smote_k = 3\n# again\nsmote_k = 4\n")
        with pytest.raises(InputError) as exc:
            read_config(path)
        assert str(exc.value) == f"{path}:3: repeated key 'smote_k'"


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
        [("clip0,1\nclip1\n", 3), ("clip0,1\n\nclip1,0\n", 3), ("clip0,1\nclip1,0,extra\n", 3)],
        ids=["one_column", "blank_line", "three_columns"],
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

    def test_label_vocabulary(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        names = ("a", "b", "c", "d", "e")
        for i, name in enumerate(names):
            write_wav(wav_dir / f"{name}.wav", 200 + 100 * i)
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "sample_id,label\na,Covid\nb,positive\nc,NEGATIVE\nd,Non-Covid\ne,0\n"
        )
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_OK
        ids, parsed_labels, _ = read_features(out)
        assert ids == list(names)
        assert parsed_labels == [1, 1, 0, 0, 0]

    def test_unknown_label_is_input_error(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,1\nb,maybe\n")
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{labels}:3:" in err and "'maybe'" in err
        assert not out.exists()

    def test_upper_case_suffix_is_read(self, tmp_path):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        write_wav(wav_dir / "b.WAV", 500)
        write_wav(wav_dir / "c.Wav", 700)
        (wav_dir / "notes.txt").write_text("not audio\n")
        out = tmp_path / "features.csv"
        assert main(["extract", str(wav_dir), "--out", str(out)]) == EXIT_OK
        ids, _, matrix = read_features(out)
        assert ids == ["a", "b", "c"]
        assert matrix.shape == (3, 193)

    def test_suffix_case_twins_are_input_error(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        write_wav(wav_dir / "a.WAV", 500)
        out = tmp_path / "features.csv"
        assert main(["extract", str(wav_dir), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(wav_dir / "a.wav") in err and str(wav_dir / "a.WAV") in err
        assert not out.exists()

    def test_wav_without_label_row_is_input_error(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        for i, name in enumerate(("a", "b", "c")):
            write_wav(wav_dir / f"{name}.wav", 300 + 100 * i)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,1\nc,0\n")
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(labels) in err and "'b'" in err
        assert not out.exists()

    def test_label_row_without_wav_is_input_error(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        write_wav(wav_dir / "b.wav", 500)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,1\nzz,0\nb,0\n")
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{labels}:3:" in err and "'zz'" in err
        assert not out.exists()

    def test_repeated_sample_id_is_input_error(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "a.wav", 300)
        write_wav(wav_dir / "b.wav", 500)
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,1\nb,0\na,0\n")
        out = tmp_path / "features.csv"
        code = main(["extract", str(wav_dir), "--out", str(out), "--labels", str(labels)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{labels}:4:" in err and "repeated sample_id 'a'" in err
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

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("zero_rate", "sample rate must be positive, got 0 Hz"),
            ("nan", "samples must be finite"),
            ("directory", "Is a directory"),
        ],
    )
    def test_undecodable_wav_is_skipped(self, tmp_path, caplog, fault, message):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        write_wav(wav_dir / "good.wav", 440)
        bad = wav_dir / "bad.wav"
        if fault == "zero_rate":
            write_wav(bad, 440)
            data = bytearray(bad.read_bytes())
            data[24:32] = bytes(8)  # the fmt chunk's sample rate and byte rate
            bad.write_bytes(bytes(data))
        elif fault == "nan":
            wavfile.write(bad, 8000, np.full(800, np.nan, dtype=np.float32))
        else:
            bad.mkdir()
        out = tmp_path / "features.csv"
        with caplog.at_level(logging.INFO, logger="coughrank"):
            assert main(["extract", str(wav_dir), "--out", str(out)]) == EXIT_OK
        assert read_features(out)[0] == ["good"]
        assert f"skipping {bad}: {message}" in caplog.text
        assert caplog.text.count(str(bad)) == 1 and "PosixPath(" not in caplog.text
        assert "wrote 1 feature rows" in caplog.text and "(1 failures)" in caplog.text

    @pytest.fixture
    def mixed_dir(self, tmp_path, monkeypatch):
        """8 WAVs, 3 of them undecodable, featurized by four workers."""
        monkeypatch.setattr(cli, "_BLAS_THREADED", False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        for i in range(8):
            path = wav_dir / f"c{i}.wav"
            if i in (1, 4, 6):
                path.write_bytes(b"RIFF not a wave")
            else:
                write_wav(path, 200 + 90 * i, duration=0.2 + 0.1 * i, seed=i)
        return wav_dir

    def test_pool_keeps_file_order(self, tmp_path, caplog, monkeypatch, mixed_dir):
        written = []

        def capture(path, rows):
            written.extend(rows)
            return write_features(path, rows)

        monkeypatch.setattr(cli.tables, "write_features", capture)
        out = tmp_path / "features.csv"
        with caplog.at_level(logging.INFO, logger="coughrank"):
            assert main(["extract", str(mixed_dir), "--out", str(out)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        skipped = [m.split(":")[0] for m in messages if m.startswith("skipping ")]
        assert skipped == [f"skipping {mixed_dir / f'c{i}.wav'}" for i in (1, 4, 6)]
        assert messages[-1].endswith("(3 failures)")
        good = ["c0", "c2", "c3", "c5", "c7"]
        assert [row[0] for row in written] == good == read_features(out)[0]
        for sample_id, _, vec in written:
            clip = load_and_resample(mixed_dir / f"{sample_id}.wav")
            assert vec.tobytes() == extract_features(clip).concat().tobytes()

    def test_defect_in_a_worker_exits_1(self, tmp_path, caplog, monkeypatch, mixed_dir):
        """A defect on c3 is not an input error: no skip, no output."""
        doomed = load_and_resample(mixed_dir / "c3.wav").samples.size

        def faulty(clip):
            if clip.samples.size == doomed:
                raise RuntimeError("defect")
            return extract_features(clip)

        monkeypatch.setattr(cli, "extract_features", faulty)
        out = tmp_path / "features.csv"
        with caplog.at_level(logging.INFO, logger="coughrank"):
            assert main(["extract", str(mixed_dir), "--out", str(out)]) == EXIT_INTERNAL
        assert "internal error: defect" in caplog.text
        assert "c3.wav" not in caplog.text and "wrote" not in caplog.text
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("name,direction\nacc,benefit\nbrier,cost\n", "'brier' is not one of"),
            ("name,direction\nacc,benefit\nacc,cost\n", ":3: repeated criterion 'acc'"),
            ("name,direction\n", ": no criteria"),
        ],
        ids=["unknown", "repeated", "none"],
    )
    def test_bad_criteria_file_names_it(self, tmp_path, capsys, body, message):
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, [f"s{i}" for i in range(20)], np.array([0, 1] * 10), n_models=2)
        criteria = tmp_path / "criteria.csv"
        criteria.write_text(body)
        argv = ["evaluate", str(preds), "--criteria", str(criteria), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {criteria}") and message in err

    def test_one_class_group_names_file_and_group(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "model,strategy,sample_id,true_label,score\n"
            "good,1,s0,1,0.2\ngood,1,s1,1,0.8\n"
            "flat,1,s0,1,0.2\nflat,1,s1,1,0.8\n"
        )
        code = main(["evaluate", str(preds), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{preds}: model 'flat' in strategy 1:" in err
        assert "AUC requires both classes present" in err

    def test_repeated_sample_id_in_group_names_line(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "model,strategy,sample_id,true_label,score\n"
            "a,1,s0,0,0.2\na,1,s1,1,0.8\n"
            "b,1,s0,0,0.3\nb,1,s1,1,0.7\n"
            "a,1,s1,0,0.4\n"
        )
        code = main(["evaluate", str(preds), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{preds}:6: sample_id 's1' repeated in model 'a', strategy 1" in err

    def test_threshold_out_of_range_names_flag_not_group(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, [f"s{i}" for i in range(10)], np.array([0, 1] * 5))
        code = main(
            ["evaluate", str(preds), "--threshold", "1.5", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--threshold must lie in (0, 1)" in err
        assert "model" not in err and str(preds) not in err

    def test_label_outside_int64_names_line(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "model,strategy,sample_id,true_label,score\n"
            "a,1,s0,0,0.2\na,1,s1,1,0.8\n"
            "b,1,s0,99999999999999999999,0.3\nb,1,s1,1,0.7\n"
        )
        code = main(["evaluate", str(preds), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert (
            f"{preds}:4: label '99999999999999999999' is outside the int64 range"
            in capsys.readouterr().err
        )

    def test_single_model_rejected(self, tmp_path):
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, [f"s{i}" for i in range(10)], np.array([0, 1] * 5), n_models=1)
        assert main(["evaluate", str(preds), "--out", str(tmp_path / "o")]) == EXIT_INPUT

    def test_single_model_names_file_and_strategy(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        make_external_csv(preds, [f"s{i}" for i in range(10)], np.array([0, 1] * 5), n_models=1)
        assert main(["evaluate", str(preds), "--out", str(tmp_path / "o")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {preds}: strategy 1: need at least 2 models, got 1" in err

    def test_predictions_with_matrix_rejected(self, tmp_path, capsys):
        preds = tmp_path / "absent.csv"
        matrix = DATA_DIR / "decision_matrix_asymptomatic_strategy1.csv"
        out = tmp_path / "out"
        code = main(["evaluate", str(preds), "--matrix", str(matrix), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(preds) in err and str(matrix) in err
        assert not (out / matrix.name).exists()

    def test_header_only_predictions_names_file(self, tmp_path, capsys):
        preds = tmp_path / "predictions.csv"
        preds.write_text("model,strategy,sample_id,true_label,score\n")
        out = tmp_path / "out"
        assert main(["evaluate", str(preds), "--out", str(out)]) == EXIT_INPUT
        assert f"error: {preds}: no prediction rows" in capsys.readouterr().err
        assert not (out / "criteria.csv").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b,2,s1,0,0.7\n", ":11: model 'b' in strategy 2: sample_id 's1' has label 0,"
             " but model 'a' has label 1"),
            ("b,2,s9,1,0.7\n", ":11: model 'b' in strategy 2: sample_id 's9' has label 1,"
             " but model 'a' has no row"),
            ("", ": model 'b' in strategy 2: no row for sample_id 's1'"),
        ],
        ids=["flipped", "foreign", "missing"],
    )
    def test_group_unlike_first_of_strategy_names_it(self, tmp_path, capsys, row, message):
        # strategy 2's first group in model-name order is a's, though b's comes first
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "model,strategy,sample_id,true_label,score\n"
            "a,1,s0,0,0.2\na,1,s1,1,0.8\nb,1,s0,0,0.3\nb,1,s1,1,0.7\n"
            "b,2,s2,1,0.4\nb,2,s0,0,0.3\n"
            "a,2,s0,0,0.2\na,2,s1,1,0.8\na,2,s2,1,0.6\n" + row
        )
        out = tmp_path / "out"
        assert main(["evaluate", str(preds), "--out", str(out)]) == EXIT_INPUT
        assert f"error: {preds}{message}\n" == capsys.readouterr().err
        assert not (out / "criteria.csv").exists()


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

    def test_all_constant_matrix_names_its_file(self, tmp_path, capsys):
        matrices = []
        for values in (["0.5", "0.7"], ["0.5", "0.5"]):
            path = tmp_path / f"matrix{len(matrices) + 1}.csv"
            rows = [f"{m}," + ",".join([v] * len(METRIC_NAMES)) for m, v in zip("ab", values)]
            path.write_text("\n".join(["model," + ",".join(METRIC_NAMES)] + rows) + "\n")
            matrices.append(str(path))
        assert main(["rank", *matrices, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert (
            f"error: {matrices[1]}: all criteria are constant; weights undefined"
            in capsys.readouterr().err
        )

    def test_manifest_lists_only_files_this_run_wrote(self, tmp_path):
        out, _ = self.run_rank(tmp_path, "asymptomatic")
        (out / "unrelated.csv").write_text("x\n1\n")
        matrices = [str(DATA_DIR / f"decision_matrix_asymptomatic_strategy{s}.csv") for s in (1, 2)]
        assert main(["rank", *matrices, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["artifacts"] == [
            "closeness.csv",
            "ensemble_report.csv",
            "topsis_report_strategy1.csv",
            "topsis_report_strategy2.csv",
            "weights_strategy1.csv",
            "weights_strategy2.csv",
        ]
        assert (out / "weights_strategy3.csv").exists()

    @pytest.mark.parametrize(
        "second, message",
        [("ac", "'b' is missing here"), ("abc", "'c' is not in the first matrix")],
        ids=["lacks", "adds"],
    )
    def test_model_set_mismatch_names_file_and_model(self, tmp_path, capsys, second, message):
        matrices = []
        for name, models in (("a.csv", "ab"), ("b.csv", second), ("c.csv", second)):
            path = tmp_path / name
            rows = [
                f"{m}," + ",".join([str(0.1 * (k + 1))] * len(METRIC_NAMES))
                for k, m in enumerate(models)
            ]
            path.write_text("\n".join(["model," + ",".join(METRIC_NAMES)] + rows) + "\n")
            matrices.append(str(path))
        assert main(["rank", *matrices, "--out", str(tmp_path / "out")]) == EXIT_INPUT
        assert (
            f"error: {matrices[1]}: matrices disagree on the model set: {message}\n"
            == capsys.readouterr().err
        )


@pytest.mark.parametrize("command", ["rank", "evaluate"])
@pytest.mark.parametrize(
    "rows, where, message",
    [
        ([("a", "0.5"), ("b", "inf")], ":3", "decision matrix values must be finite"),
        ([("a", "0.5"), ("b", "0.7"), ("a", "0.6")], ":4", "repeated model 'a'"),
        ([("a", "0.5")], "", "a decision matrix needs at least 2 alternatives"),
    ],
    ids=["inf", "repeated_model", "one_row"],
)
def test_decision_matrix_fault_names_file(tmp_path, capsys, command, rows, where, message):
    matrix = tmp_path / "matrix.csv"
    lines = [f"{m}," + ",".join([v] * len(METRIC_NAMES)) for m, v in rows]
    matrix.write_text("\n".join(["model," + ",".join(METRIC_NAMES)] + lines) + "\n")
    flag = ["--matrix"] if command == "evaluate" else []
    assert main([command, *flag, str(matrix), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert f"error: {matrix}{where}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "wavs", "--out", "f.csv", "--config", "run.cfg"],
        ["extract", "wavs", "--out", "f.csv", "--seed", "1"],
        ["evaluate", "p.csv", "--out", "o", "--config", "run.cfg"],
        ["evaluate", "p.csv", "--out", "o", "--seed", "1"],
        ["rank", "m.csv", "--out", "o", "--config", "run.cfg"],
        ["rank", "m.csv", "--out", "o", "--seed", "1"],
        ["rank", "m.csv", "--out", "o", "--tie-eps", "0.1"],
        ["pipeline", "f.csv", "--out", "o", "--tie-eps", "0.1"],
        ["rfecv", "f.csv", "--out", "c.csv", "--config", "run.cfg"],
        ["extract", "wavs", "--out", "f.csv", "--rate", "16000"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_removed_flag_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT


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

    @pytest.mark.parametrize("name", ["knn", "logreg"])
    def test_external_model_named_like_in_repo_model_rejected(
        self, tmp_path, capsys, name
    ):
        features = tmp_path / "features.csv"
        ids, labels = make_features_csv(features, n_pos=10, n_neg=10)
        external = tmp_path / "external.csv"
        sets = [
            PredictionSet(
                model_name=model,
                strategy_id="2",
                sample_ids=ids,
                true_labels=labels,
                scores=np.linspace(0.1, 0.9, labels.size),
            )
            for model in ("ext0", name)
        ]
        write_predictions(external, sets)
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(external) in err and repr(name) in err and "strategy 2" in err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "body, bad_line",
        [
            ("threshold_objective = acc\nsmote-k = 3\n", 2),
            ("threshold_objective = auroc\n", 1),
            ("seed = 7\n", 1),
            ("threshold_objective = f1\nsmote_k = x\n", 2),
            ("smote_k = 0\n", 1),
            ("smote_k = true\n", 1),
            ("smote_k = 2.5\n", 1),
            ("smote_k = 3\nthreshold_objective = fpr\n", 2),
            ("threshold_objective = fnr\n", 1),
            ("threshold_objective = auc\n", 1),
        ],
        ids=[
            "unknown_key",
            "unknown_objective",
            "seed_key",
            "smote_k_word",
            "smote_k_zero",
            "smote_k_bool",
            "smote_k_float",
            "cost_objective_fpr",
            "cost_objective_fnr",
            "cutoff_free_objective_auc",
        ],
    )
    def test_bad_config_rejected_before_training(
        self, tmp_path, capsys, body, bad_line
    ):
        features = tmp_path / "features.csv"
        make_features_csv(features, n_pos=10, n_neg=10)
        config = tmp_path / "run.cfg"
        config.write_text(body)
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert f"{config}:{bad_line}:" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_non_binary_external_label_names_file_and_group(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        make_features_csv(features, n_pos=10, n_neg=10)
        external = tmp_path / "external.csv"
        external.write_text(
            "model,strategy,sample_id,true_label,score\next0,2,s000,2,0.5\n"
        )
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{external}: model 'ext0' in strategy 2:" in err
        assert "labels must be binary 0/1" in err
        assert not (out / "predictions.csv").exists()

    def test_header_only_external_rejected_before_training(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        make_features_csv(features, n_pos=10, n_neg=10)
        external = tmp_path / "external.csv"
        external.write_text("model,strategy,sample_id,true_label,score\n")
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        assert f"error: {external}: no prediction rows" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_repeated_external_sample_id_names_line(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        ids, labels = make_features_csv(features, n_pos=10, n_neg=10)
        external = tmp_path / "external.csv"
        write_predictions(
            external,
            [
                PredictionSet(
                    model_name="ext0",
                    strategy_id="2",
                    sample_ids=ids + ids[:1],
                    true_labels=np.append(labels, 1 - labels[0]),
                    scores=np.linspace(0.1, 0.9, labels.size + 1),
                )
            ],
        )
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        bad_line = len(ids) + 2
        assert f"{external}:{bad_line}: sample_id {ids[0]!r} repeated in model 'ext0', strategy 2" in err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("fault", ["missing", "foreign", "flipped"])
    def test_external_group_must_match_features(self, tmp_path, capsys, fault):
        features = tmp_path / "features.csv"
        ids, labels = make_features_csv(features, n_pos=10, n_neg=10)
        bad_ids, bad_labels = list(ids), labels.copy()
        if fault == "missing":
            del bad_ids[4], bad_ids[7]
            bad_labels = np.delete(bad_labels, [4, 8])
        elif fault == "foreign":
            bad_ids[4] = "zz"
        else:
            bad_labels[4] = 1 - bad_labels[4]
        external = tmp_path / "external.csv"
        write_predictions(
            external,
            [
                PredictionSet(
                    model_name=model,
                    strategy_id="2",
                    sample_ids=sids,
                    true_labels=y,
                    scores=np.linspace(0.1, 0.9, y.size),
                )
                for model, sids, y in (("ext0", ids, labels), ("ext1", bad_ids, bad_labels))
            ],
        )
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        if fault == "missing":
            assert f"{external}: model 'ext1' in strategy 2: no row for sample_id {ids[4]!r}" in err
        else:
            line = len(ids) + 2 + 4
            sid = bad_ids[4]
            assert f"{external}:{line}: model 'ext1' in strategy 2: sample_id {sid!r}" in err
            assert str(features) in err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "groups, fault",
        [
            ([("ext0", "123"), ("ext1", "1")], "'ext1' lacks strategy 2"),
            ([("ext0", "1234")], "'ext0' has strategy 4"),
        ],
        ids=["only_strategy_1", "strategy_4"],
    )
    def test_external_model_must_cover_strategies_1_to_3(
        self, tmp_path, capsys, monkeypatch, groups, fault
    ):
        features = tmp_path / "features.csv"
        ids, labels = make_features_csv(features, n_pos=10, n_neg=10)
        external = tmp_path / "external.csv"
        write_predictions(
            external,
            [
                PredictionSet(model, s, ids, labels, np.linspace(0.1, 0.9, labels.size))
                for model, strategies in groups
                for s in strategies
            ],
        )

        def no_training(*args, **kwargs):
            pytest.fail("training started")

        monkeypatch.setattr(cli, "run_strategies", no_training)
        out = tmp_path / "out"
        code = main(["pipeline", str(features), "--external", str(external), "--out", str(out)])
        assert code == EXIT_INPUT
        assert (
            f"error: {external}: external model {fault}; each needs exactly strategies 1, 2 and 3"
            in capsys.readouterr().err
        )
        assert not (out / "predictions.csv").exists()

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


@pytest.mark.parametrize("command", ["pipeline", "rfecv"])
def test_repeated_feature_sample_id_rejected_before_training(
    tmp_path, capsys, monkeypatch, command
):
    features = tmp_path / "features.csv"
    ids, _ = make_features_csv(features, n_pos=10, n_neg=10)
    lines = features.read_text().splitlines(keepends=True)
    features.write_text("".join(lines + [lines[5]]))

    def no_training(*args, **kwargs):
        pytest.fail("training started")

    monkeypatch.setattr(cli, "run_strategies", no_training)
    monkeypatch.setattr(cli, "rfecv", no_training)
    out = tmp_path / "out"
    assert main([command, str(features), "--out", str(out)]) == EXIT_INPUT
    assert f"{features}:22: repeated sample_id {ids[4]!r}" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize(
    "column, text, message",
    [
        (-1, "nan", "features must be finite"),
        (-1, "inf", "features must be finite"),
        (1, "2", "label must be 0 or 1, got '2'"),
        (1, "99999999999999999999", "label must be 0 or 1, got '99999999999999999999'"),
    ],
    ids=["nan", "inf", "2", "outside_int64"],
)
@pytest.mark.parametrize("command", ["pipeline", "rfecv"])
def test_bad_feature_row_names_line(
    tmp_path, capsys, monkeypatch, command, column, text, message
):
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=10, n_neg=10)
    lines = features.read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = text
    lines[5] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")

    def no_training(*args, **kwargs):
        pytest.fail("training started")

    monkeypatch.setattr(cli, "run_strategies", no_training)
    monkeypatch.setattr(cli, "rfecv", no_training)
    assert main([command, str(features), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert f"error: {features}:6: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pipeline", "rfecv"])
def test_partly_labelled_features_name_line(tmp_path, capsys, monkeypatch, command):
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=10, n_neg=10)
    lines = features.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = ""
    lines[5] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n")

    def no_training(*args, **kwargs):
        pytest.fail("training started")

    monkeypatch.setattr(cli, "run_strategies", no_training)
    monkeypatch.setattr(cli, "rfecv", no_training)
    assert main([command, str(features), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {features}:6: label must be 0 or 1, as in the first row" in err
    assert "label column required" not in err


@pytest.mark.parametrize(
    "argv, n_pos, folds",
    [(["pipeline"], 9, 10), (["rfecv", "--folds", "7"], 6, 7)],
    ids=["pipeline", "rfecv"],
)
def test_too_few_class_members_rejected_before_training(
    tmp_path, capsys, monkeypatch, argv, n_pos, folds
):
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=n_pos, n_neg=20)

    def no_training(*args, **kwargs):
        pytest.fail("training started")

    monkeypatch.setattr(cli, "run_strategies", no_training)
    monkeypatch.setattr(cli, "rfecv", no_training)
    out = tmp_path / "out"
    assert main([argv[0], str(features), *argv[1:], "--out", str(out)]) == EXIT_INPUT
    assert (
        f"{features}: class 1 has {n_pos} members; "
        f"{folds}-fold cross-validation needs at least {folds}"
    ) in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("seed", ["1.5", "-1", '"7"'], ids=["float", "negative", "string"])
@pytest.mark.parametrize("command", ["pipeline", "rfecv"])
def test_bad_seed_rejected_before_reading(tmp_path, capsys, monkeypatch, command, seed):
    def no_reading(*args, **kwargs):
        pytest.fail("features read")

    monkeypatch.setattr(cli, "_load_dataset", no_reading)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "features.csv"), "--seed", seed, "--out", str(out)])
    assert exc.value.code == EXIT_INPUT
    assert f"argument --seed: must be an integer >= 0, got {seed!r}" in capsys.readouterr().err


RFECV_RANGES = {"--folds": "an integer >= 2", "--step": "an integer in 1 .. 192"}


@pytest.mark.parametrize(
    "flag, value",
    [("--folds", "1"), ("--folds", "-3"), ("--step", "0"), ("--step", "193")],
    ids=["folds_1", "folds_-3", "step_0", "step_193"],
)
def test_bad_rfecv_option_rejected_before_reading(tmp_path, capsys, monkeypatch, flag, value):
    def no_reading(*args, **kwargs):
        pytest.fail("features read")

    monkeypatch.setattr(cli, "_load_dataset", no_reading)
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as exc:
        main(["rfecv", str(tmp_path / "features.csv"), flag, value, "--out", str(out)])
    assert exc.value.code == EXIT_INPUT
    wanted = f"argument {flag}: must be {RFECV_RANGES[flag]}, got {value!r}"
    assert wanted in capsys.readouterr().err


@pytest.mark.parametrize("smote_k, trains", [(10, False), (9, True)])
def test_smote_k_checked_against_training_folds(
    tmp_path, capsys, monkeypatch, smote_k, trains
):
    # 12 positives over 10 folds leave 10 or 11 in each training fold
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=12, n_neg=20)
    config = tmp_path / "run.cfg"
    config.write_text(f"smote_k = {smote_k}\n")

    def training(*args, **kwargs):
        raise cli.InputError("training started")

    monkeypatch.setattr(cli, "run_strategies", training)
    out = tmp_path / "out"
    code = main(["pipeline", str(features), "--config", str(config), "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert ("training started" in err) == trains
    if not trains:
        assert (
            f"{config}: smote_k = 10 needs more than 10 minority rows per "
            "training fold; class 1 has 10 in its smallest"
        ) in err


def test_cli_import_loads_no_scipy():
    """Only `extract` needs scipy and its thread pool; importing the CLI
    must load neither, and importing the package alone loads none of its
    modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    for statement, prefix in [
        ("import coughrank.cli", "scipy"),
        ("import coughrank.cli", "concurrent.futures"),
        ("import coughrank", "coughrank."),
    ]:
        probe = f"import sys; {statement}; print([m for m in sys.modules if m.startswith({prefix!r})])"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", statement


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [(None, ["1", "1", "1"]), ("3", ["3", "1", "1"])])
def test_cli_import_sets_one_blas_thread_unless_set(preset, want):
    """Importing the CLI sets each BLAS thread variable the user left unset
    to 1, before numpy starts loading; a value the user set stays."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys\n"
        "seen = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])\n"
        "sys.meta_path.insert(0, Watch())\n"
        "import coughrank.cli\n"
        f"print(seen, [os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"[{want!r}] {want!r}"


@pytest.mark.parametrize(
    "first, preset, workers",
    [("numpy", None, 1), ("numpy", "1", 3), ("coughrank.cli", None, 3)],
    ids=["numpy_first", "numpy_first_blas_set", "cli_first"],
)
def test_cpu_pool_has_one_worker_if_numpy_loaded_first_with_blas_unset(first, preset, workers):
    """numpy loaded before the CLI keeps its default BLAS threads unless the
    user set a count, so the pool then runs one worker instead of one per CPU."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        f"import {first}\n"
        "import os\n"
        "from coughrank import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "with cli._cpu_pool() as pool:\n"
        "    print(pool._max_workers)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(workers)


@pytest.mark.parametrize(
    "affinity, cpu_count, workers",
    [({0, 1, 2}, 8, 3), (None, 5, 5), (None, None, 1)],
    ids=["affinity", "no_affinity", "no_affinity_no_count"],
)
def test_cpu_pool_has_one_worker_per_usable_cpu(monkeypatch, affinity, cpu_count, workers):
    # the process that runs the tests loaded numpy first: pin the flag that records it
    monkeypatch.setattr(cli, "_BLAS_THREADED", False)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    with cli._cpu_pool() as pool:
        assert pool._max_workers == workers


@pytest.mark.parametrize("command", ["evaluate", "rank", "pipeline", "rfecv"])
def test_numpy_only_command_loads_no_scipy(tmp_path, command):
    """README says these four run on numpy alone: in a fresh interpreter
    a whole run loads no scipy module (the bare import is the test above)."""
    features, preds = tmp_path / "features.csv", tmp_path / "predictions.csv"
    ids, labels = make_features_csv(features, seed=3)
    make_external_csv(preds, ids, labels)
    args = {
        "evaluate": [preds, "--out", tmp_path / "out"],
        "rank": [DATA_DIR / f"decision_matrix_symptomatic_strategy{s}.csv" for s in (1, 2, 3)]
        + ["--out", tmp_path / "out"],
        "pipeline": [features, "--external", preds, "--out", tmp_path / "out"],
        "rfecv": [features, "--step", "64", "--out", tmp_path / "curve.csv"],
    }[command]
    argv = [command] + [str(a) for a in args]
    probe = (
        f"import sys; from coughrank.cli import main; code = main({argv!r}); "
        "print(code, [m for m in sys.modules if m.startswith('scipy')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_undefined_threshold_objective_names_file_cell_and_objective(tmp_path, capsys):
    """With constant features every neighbour ties, k-NN takes the first
    training rows, all negative, and scores every row 0; no cutoff of the
    sweep then defines f1. That is an input error, not a defect."""
    features = tmp_path / "features.csv"
    labels = [0] * 991 + [1] * 10
    write_features(
        features, [(f"s{i:04d}", y, np.ones(len(FEATURE_COLUMNS))) for i, y in enumerate(labels)]
    )
    out = tmp_path / "out"
    assert main(["pipeline", str(features), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {features}: model 'knn' in strategy 1: objective 'f1' undefined at every cutoff\n"
    )
    assert not (out / "predictions.csv").exists()
