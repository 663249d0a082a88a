"""CLI and pipeline integration on small synthetic series."""

import inspect
import json
import os

import numpy as np
import pytest

from lungct.cli import main, parse_labels_file
from lungct.config import PipelineConfig
from lungct.ensemble import BaggedTreesClassifier, cross_validate, save_model, train_tree
from lungct.features import read_feature_csv, write_feature_csv
from lungct.ingest import load_series, to_gray8
from lungct.phantom import make_feature_corpus, make_phantom_series, write_series_pgm
from lungct.pipeline import segment_series
from lungct.preprocess import SlicePreprocessor, preprocess_slice
from lungct.watershed import compute_markers

from _dicom_fixture import build_dicom

SERIES_KW = dict(n_slices=6, size=512, tumour_slices=(2, 3), distractor_slices=(4,), seed=21)


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    X, y, patient_ids, slice_indices = make_feature_corpus(400, seed=0)
    rows = [
        (patient_ids[i], slice_indices[i], X[i, 0], X[i, 1], X[i, 2], int(y[i]))
        for i in range(len(y))
    ]
    write_feature_csv(path, rows)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "classifier.lctm"
    X, y, _, _ = make_feature_corpus(400, seed=0)
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    return path


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("series") / "PH001"
    slices, truth = make_phantom_series(**SERIES_KW)
    write_series_pgm(directory, slices)
    return directory, truth


def test_analyze_detects_planted_slices(phantom_dir, model_file, tmp_path, capsys):
    series_dir, truth = phantom_dir
    code = main([
        "analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path),
    ])
    assert code == 0
    out_dir = tmp_path / "PH001"
    report = json.loads((out_dir / "report.json").read_text())
    positives = sorted({p["slice_index"] for p in report["positives"]})
    assert positives == truth["tumour_slices"]
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "run_meta.json").exists()
    for index in positives:
        assert (out_dir / f"slice_{index:03d}_overlay.pgm").exists()
    assert "tumour detected" in capsys.readouterr().out


def test_analyze_no_tumour_reports_zero_positives(model_file, tmp_path, capsys):
    series_dir = tmp_path / "in" / "PH002"
    slices, _ = make_phantom_series(n_slices=3, size=512, tumour_slices=(), seed=5)
    write_series_pgm(series_dir, slices)
    out = tmp_path / "out"
    code = main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "PH002" / "report.json").read_text())
    assert report["positives"] == []
    assert report["max_area_px"] == 0
    assert "no tumour found" in capsys.readouterr().out


def test_analyze_deterministic_report_bytes(phantom_dir, model_file, tmp_path):
    series_dir, _ = phantom_dir
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)]) == 0
        outs.append((out / "PH001" / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_analyze_worker_count_does_not_change_output(phantom_dir, model_file, tmp_path):
    series_dir, _ = phantom_dir
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        code = main([
            "analyze", str(series_dir), "--model", str(model_file),
            "--out", str(out), "--threads", threads,
        ])
        assert code == 0
        reports.append((out / "PH001" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_analyze_overwrites_existing_folder_with_warning(phantom_dir, model_file, tmp_path):
    series_dir, _ = phantom_dir
    out = tmp_path
    (out / "PH001").mkdir()
    (out / "PH001" / "report.json").write_text("old")
    with pytest.warns(UserWarning, match="overwritten"):
        code = main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)])
    assert code == 0
    assert (out / "PH001" / "report.json").read_text() != "old"


def test_analyze_replaces_stale_overlays(phantom_dir, model_file, tmp_path):
    series_dir, truth = phantom_dir
    stale = tmp_path / "PH001" / "slice_099_overlay.pgm"
    stale.parent.mkdir()
    stale.write_bytes(b"P5 1 1 255 x")
    with pytest.warns(UserWarning, match="overwritten"):
        code = main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path)])
    assert code == 0
    assert not stale.exists()
    overlays = sorted(p.name for p in stale.parent.glob("slice_*_overlay.pgm"))
    assert overlays == [f"slice_{i:03d}_overlay.pgm" for i in truth["tumour_slices"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["PH001"]  # no staging folder left


def test_analyze_refuses_to_replace_its_own_series(model_file, tmp_path, capsys):
    series_dir = tmp_path / "PH003"
    slices, _ = make_phantom_series(n_slices=2, size=64, seed=3)
    write_series_pgm(series_dir, slices)
    before = sorted(p.name for p in series_dir.iterdir())
    for out in (tmp_path, tmp_path / "PH003" / ".."):
        assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)]) == 4
        assert "would replace the series" in capsys.readouterr().err
    assert sorted(p.name for p in series_dir.iterdir()) == before


def test_analyze_rejects_patient_id_that_is_not_a_folder_name(model_file, tmp_path, capsys):
    series_dir = tmp_path / "in" / "DCM"
    series_dir.mkdir(parents=True)
    (series_dir / "1.dcm").write_bytes(build_dicom(patient_id="../escape"))
    out = tmp_path / "in" / "out"
    assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)]) == 2
    assert "cannot name an output folder" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["DCM"]


def test_analyze_dot_names_series_after_folder(model_file, tmp_path, monkeypatch, capsys):
    series_dir = tmp_path / "PH005"
    slices, _ = make_phantom_series(n_slices=2, size=64, seed=5)
    write_series_pgm(series_dir, slices)
    monkeypatch.chdir(series_dir)
    assert main(["analyze", ".", "--model", str(model_file), "--out", "../out"]) == 0
    report = json.loads((tmp_path / "out" / "PH005" / "report.json").read_text())
    assert report["patient_id"] == "PH005"


def test_analyze_missing_series_exits_2(model_file, tmp_path):
    assert main(["analyze", str(tmp_path / "nope"), "--model", str(model_file)]) == 2


def test_analyze_empty_series_exits_2(model_file, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", str(empty), "--model", str(model_file)]) == 2


def test_analyze_bad_model_exits_3(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    bad = tmp_path / "bad.lctm"
    bad.write_bytes(b"garbage")
    assert main(["analyze", str(series_dir), "--model", str(bad), "--out", str(tmp_path)]) == 3


def test_analyze_missing_model_exits_3(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    assert main(["analyze", str(series_dir), "--model", str(tmp_path / "nope.lctm")]) == 3


# --- train ---------------------------------------------------------------------

def test_train_writes_model_and_reports_cv(corpus_csv, tmp_path, capsys):
    out = tmp_path / "m.lctm"
    code = main(["train", str(corpus_csv), "--out", str(out)])
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "15-fold" in text
    assert "mean accuracy" in text
    number = float(text.split("mean accuracy")[1].split("%")[0])
    assert number >= 95.0


def test_train_deterministic_model_files(corpus_csv, tmp_path):
    a, b = tmp_path / "a.lctm", tmp_path / "b.lctm"
    assert main(["train", str(corpus_csv), "--out", str(a), "--seed", "7"]) == 0
    assert main(["train", str(corpus_csv), "--out", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_single_class_exits_4(tmp_path, capsys):
    path = tmp_path / "single.csv"
    write_feature_csv(path, [("P", i, 100 + i, 50.0, 10.0, 0) for i in range(30)])
    assert main(["train", str(path), "--out", str(tmp_path / "m")]) == 4
    assert "class" in capsys.readouterr().err


def test_train_malformed_csv_exits_4(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("this,is,not\nvalid\n")
    assert main(["train", str(path), "--out", str(tmp_path / "m")]) == 4


# --- extract-features ---------------------------------------------------------

def test_extract_features_with_labels(phantom_dir, tmp_path):
    series_dir, truth = phantom_dir
    labels = tmp_path / "labels.txt"
    labels.write_text(f"PH001: {','.join(str(i) for i in truth['tumour_slices'])}\n")
    out = tmp_path / "features.csv"
    code = main(["extract-features", str(series_dir), "--labels", str(labels), "--out", str(out)])
    assert code == 0
    X, y, patient_ids, slice_indices = read_feature_csv(out)
    assert set(patient_ids) == {"PH001"}
    positives = {s for s, label in zip(slice_indices, y) if label == 1}
    assert positives == set(truth["tumour_slices"])
    assert (y != -1).all()


def test_extract_features_unlabeled(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    out = tmp_path / "features.csv"
    assert main(["extract-features", str(series_dir), "--out", str(out)]) == 0
    _, y, _, _ = read_feature_csv(out)
    assert (y == -1).all()


def test_extract_features_malformed_labels_exits_4(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    labels = tmp_path / "labels.txt"
    labels.write_text("PH001 3,4\n")  # missing colon
    out = tmp_path / "f.csv"
    assert main(["extract-features", str(series_dir), "--labels", str(labels), "--out", str(out)]) == 4


def test_extract_features_bad_series_exits_2(tmp_path):
    assert main(["extract-features", str(tmp_path / "nope"), "--out", str(tmp_path / "f.csv")]) == 2


def test_extract_features_no_candidates_gives_header_only(tmp_path):
    from lungct.ingest import write_pgm

    series_dir = tmp_path / "DARK1"
    series_dir.mkdir()
    for i in range(3):
        write_pgm(series_dir / f"s{i}.pgm", np.full((64, 64), 12, dtype=np.uint8))
    out = tmp_path / "f.csv"
    # constant slices with the strip/blackout disabled stay constant, so the
    # marker step finds no bright class and emits no candidate at all
    assert main([
        "extract-features", str(series_dir), "--out", str(out),
        "--blackout-fraction", "0.0", "--strip-width-fraction", "0.001",
    ]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("patient_id,")


def test_slice_failure_reports_slice_index(monkeypatch):
    import lungct.pipeline as pipeline

    def boom(*args, **kwargs):
        raise ValueError("kernel exploded")

    monkeypatch.setattr(pipeline, "preprocess_slice", boom)
    slices, _ = make_phantom_series(n_slices=3, size=64, seed=0)
    with pytest.raises(RuntimeError, match="slice 0"):
        segment_series(slices, PipelineConfig(), workers=1)


def test_slice_failure_exits_2(monkeypatch, phantom_dir, model_file, tmp_path, capsys):
    import lungct.pipeline as pipeline

    def boom(*args, **kwargs):
        raise ValueError("kernel exploded")

    monkeypatch.setattr(pipeline, "preprocess_slice", boom)
    series_dir, _ = phantom_dir
    assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path)]) == 2
    assert "slice 0: kernel exploded" in capsys.readouterr().err
    assert main(["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")]) == 2
    assert "slice 0: kernel exploded" in capsys.readouterr().err


def _exit_in_worker(payload):
    os._exit(1)


def test_dead_worker_exits_2(monkeypatch, phantom_dir, model_file, tmp_path, capsys):
    import lungct.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_slice_task", _exit_in_worker)
    series_dir, _ = phantom_dir
    for command in (
        ["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path)],
        ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")],
    ):
        assert main(command + ["--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "PH001").exists()


def test_zero_window_width_on_dicom_exits_4(model_file, tmp_path, capsys):
    series_dir = tmp_path / "DCM"
    series_dir.mkdir()
    for instance in (1, 2):
        (series_dir / f"{instance}.dcm").write_bytes(build_dicom(instance=instance))
    for command in (
        ["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path / "out")],
        ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")],
    ):
        assert main(command + ["--window-width", "0"]) == 4
        assert "window width must be positive" in capsys.readouterr().err


def test_parse_labels_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# comment\nP1: 1,2,3\nP2:\nP3: 9\n")
    table = parse_labels_file(path)
    assert table == {"P1": {1, 2, 3}, "P2": set(), "P3": {9}}


# --- eval -----------------------------------------------------------------------

def test_eval_prints_table3_metrics(tmp_path, capsys):
    rows = ["prediction,label"]
    rows += ["1,1"] * 72 + ["0,1"] * 1 + ["1,0"] * 31 + ["0,0"] * 1616
    path = tmp_path / "preds.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["eval", str(path)]) == 0
    out = capsys.readouterr().out
    assert "TP=72" in out
    assert "98.14%" in out
    assert "98.63%" in out


def test_eval_malformed_exits_4(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    assert main(["eval", str(path)]) == 4


# --- config --------------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("band_lo = 100\nband_hi = 140  # widened band\nseed = 3\n")
    config = PipelineConfig.from_file(cfg_file)
    assert (config.band_lo, config.band_hi, config.seed) == (100, 140, 3)
    merged = config.override(band_lo=105, seed=None)
    assert merged.band_lo == 105
    assert merged.seed == 3


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("not_a_key = 1\n")
    with pytest.raises(ValueError):
        PipelineConfig.from_file(cfg_file)


def test_missing_config_file_exits_4(phantom_dir, model_file, corpus_csv, tmp_path, capsys):
    series_dir, _ = phantom_dir
    for config in (tmp_path / "nonexistent.cfg", tmp_path):  # missing, and a folder
        for command in (
            ["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path / "out")],
            ["train", str(corpus_csv), "--out", str(tmp_path / "m.lctm")],
            ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")],
        ):
            assert main(command + ["--config", str(config)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_config_text_roundtrip(tmp_path):
    config = PipelineConfig(band_lo=101, threads=2)
    path = tmp_path / "c.cfg"
    path.write_text(config.to_text())
    assert PipelineConfig.from_file(path) == config


def test_layer_defaults_are_the_config_defaults(rng):
    config = PipelineConfig()
    assert SlicePreprocessor().get_params() == config.preprocess_kwargs()
    assert BaggedTreesClassifier().get_params() == config.classifier_kwargs()
    img = rng.integers(0, 256, (64, 64)).astype(np.uint8)
    assert np.array_equal(preprocess_slice(img), preprocess_slice(img, **config.preprocess_kwargs()))


@pytest.mark.parametrize("layer", [compute_markers, train_tree, cross_validate, to_gray8])
def test_layer_signature_defaults_are_the_config_defaults(layer):
    config = PipelineConfig()
    params = inspect.signature(layer).parameters
    shared = [name for name in params if hasattr(config, name)]
    assert shared
    assert {name: params[name].default for name in shared} == {
        name: getattr(config, name) for name in shared
    }


def test_load_series_defaults_are_the_config_defaults():
    config = PipelineConfig()
    params = inspect.signature(load_series).parameters
    assert params["window"].default == (config.window_center, config.window_width)
    assert params["default_thickness_mm"].default == config.slice_thickness_mm
    assert params["default_spacing_mm"].default == (
        config.pixel_spacing_row_mm, config.pixel_spacing_col_mm)


def test_config_overrides_reach_layer_kwargs():
    config = PipelineConfig(band_lo=100, n_trees=7)
    assert config.preprocess_kwargs()["band_lo"] == 100
    assert config.classifier_kwargs()["n_trees"] == 7
    assert SlicePreprocessor(**config.preprocess_kwargs()).get_params() == config.preprocess_kwargs()
    assert BaggedTreesClassifier(**config.classifier_kwargs()).get_params() == config.classifier_kwargs()


def test_cli_config_flag_flows_into_pipeline(phantom_dir, model_file, tmp_path):
    series_dir, _ = phantom_dir
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("slice_thickness_mm = 2.5\npixel_spacing_row_mm = 0.5\npixel_spacing_col_mm = 0.5\n")
    out = tmp_path / "o"
    code = main([
        "analyze", str(series_dir), "--model", str(model_file), "--out", str(out),
        "--config", str(cfg_file),
    ])
    assert code == 0
    report = json.loads((out / "PH001" / "report.json").read_text())
    assert report["slice_thickness_mm"] == 2.5
    assert report["pixel_spacing_mm"] == [0.5, 0.5]
    total_area = sum(p["area_px"] for p in report["positives"])
    assert report["volume_mm3"] == pytest.approx(total_area * 0.25 * 2.5)


# --- pipeline-level parallel determinism -----------------------------------------

def test_segment_series_parallel_equals_serial():
    slices, _ = make_phantom_series(n_slices=4, size=256, tumour_slices=(1,), seed=3)
    config = PipelineConfig()
    serial = segment_series(slices, config, workers=1)
    parallel = segment_series(slices, config, workers=4)
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.mask, cb.mask)
            assert ca.features == cb.features
