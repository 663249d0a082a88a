"""CLI and pipeline integration on small synthetic series."""

import inspect
import json
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lungct
from lungct import errors
from lungct.analytics import SeriesReport, build_report
from lungct.base import map_tasks
from lungct.cli import main, parse_labels_file
from lungct.config import PipelineConfig
from lungct.dicom import parse_dicom
from lungct.ensemble import (
    BaggedTreesClassifier,
    cross_validate,
    fit_and_cross_validate,
    load_model,
    save_model,
    train_tree,
)
from lungct.features import CSV_HEADER, read_feature_csv, write_feature_csv
from lungct.ingest import CtSeries, load_series, to_gray8
from lungct.phantom import make_feature_corpus, make_phantom_series, write_series_pgm
from lungct.pipeline import classify_series, segment_series
from lungct.preprocess import (
    SlicePreprocessor,
    apply_central_strip,
    blackout_bands,
    cleanup,
    preprocess_slice,
    remap_intensity,
)
from lungct.watershed import compute_markers

from _dicom_fixture import build_dicom
from _model_fixture import UNWALKABLE_TREES, one_tree_model

CLASSIFIER_FIELDS = {"n_trees", "min_leaf", "max_depth", "seed"}
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
    (series_dir / "1.dcm").write_bytes(build_dicom(patient_id="../escape", thickness=5.0))
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


@pytest.mark.parametrize("data", [b"garbage", *map(one_tree_model, UNWALKABLE_TREES.values())],
                         ids=["garbage", *UNWALKABLE_TREES])
def test_analyze_bad_model_exits_3(phantom_dir, tmp_path, data):
    series_dir, _ = phantom_dir
    bad = tmp_path / "bad.lctm"
    bad.write_bytes(data)
    assert main(["analyze", str(series_dir), "--model", str(bad), "--out", str(tmp_path)]) == 3


def test_analyze_missing_model_exits_3(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    assert main(["analyze", str(series_dir), "--model", str(tmp_path / "nope.lctm")]) == 3


def test_analyze_model_of_other_features_exits_3(phantom_dir, model_file, tmp_path, capsys):
    # The model's trees split on feature indices, so a model file naming the
    # pipeline's features in another order would classify the wrong columns.
    series_dir, _ = phantom_dir
    swapped = tmp_path / "swapped.lctm"
    swapped.write_bytes(model_file.read_bytes().replace(
        b"size_px,mean_intensity,", b"mean_intensity,size_px,", 1))
    out = tmp_path / "out"
    assert main(["analyze", str(series_dir), "--model", str(swapped), "--out", str(out)]) == 3
    assert "model features mean_intensity,size_px,center_distance_px" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("folds", ["1", "0"])
def test_train_fewer_than_two_folds_exits_4(corpus_csv, tmp_path, capsys, folds):
    assert main(["train", str(corpus_csv), "--out", str(tmp_path / "m"), "--cv-folds", folds]) == 4
    assert f"need at least 2 folds, got {folds}" in capsys.readouterr().err


def test_train_threads_do_not_change_model_or_cv(corpus_csv, tmp_path, capsys):
    outputs = []
    for threads in (["--threads", "1"], ["--threads", "2"], []):  # [] is the default
        model = tmp_path / f"t{len(outputs)}.lctm"
        assert main(["train", str(corpus_csv), "--out", str(model), *threads]) == 0
        cv_line = [line for line in capsys.readouterr().out.splitlines() if "cross-validation" in line]
        outputs.append((cv_line, model.read_bytes()))
    assert outputs[0][0] and outputs[0] == outputs[1] == outputs[2]


def test_threads_default_is_the_number_of_usable_cpus():
    assert PipelineConfig().threads == len(os.sched_getaffinity(0))


def _run_python(code, *args, **env):
    """Run ``code`` in a fresh interpreter that imports lungct from this checkout,
    with ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(lungct.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_train_and_eval_never_import_scipy(corpus_csv, tmp_path):
    predictions = tmp_path / "pred.csv"
    predictions.write_text("prediction,label\n1,1\n0,1\n0,0\n")
    result = _run_python(
        "import sys\n"
        "from lungct.cli import main\n"
        "assert main(['train', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert main(['eval', sys.argv[3]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n",
        corpus_csv, tmp_path / "m.lctm", predictions,
    )
    assert result.returncode == 0, result.stderr


def test_train_reads_utf8_inputs_under_an_ascii_locale(corpus_csv, tmp_path):
    # LC_ALL=C alone turns on Python's UTF-8 mode; PYTHONUTF8=0 keeps the locale's ASCII.
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(corpus_csv.read_text(encoding="utf-8").replace("syn00000,", "P\u00e9,"),
                      encoding="utf-8")
    config = tmp_path / "settings.cfg"
    config.write_text("# r\u00e9glages\nn_trees = 3\n", encoding="utf-8")
    result = _run_python(
        "import sys\n"
        "from lungct.cli import main\n"
        "sys.exit(main(['train', sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3],\n"
        "               '--cv-folds', '2', '--threads', '1']))\n",
        corpus, config, tmp_path / "m.lctm", LC_ALL="C", PYTHONUTF8="0",
    )
    assert result.returncode == 0, result.stderr


def test_a_patient_id_utf8_cannot_write_is_an_ingest_error_before_any_output(
        phantom_dir, model_file, tmp_path):
    # Under an ASCII locale the folder name's UTF-8 bytes decode to lone surrogates.
    series_dir = os.fsencode(tmp_path) + b"/P\xc3\xa9"
    os.mkdir(series_dir)
    for path in phantom_dir[0].iterdir():
        with open(series_dir + b"/" + os.fsencode(path.name), "wb") as fh:
            fh.write(path.read_bytes())
    out = tmp_path / "out"
    out.mkdir()
    features = tmp_path / "features.csv"
    for argv in (["analyze", "{series}", "--model", str(model_file), "--out", str(out)],
                 ["extract-features", "{series}", "--out", str(features)]):
        result = _run_python(
            "import os, sys\n"
            "from lungct.cli import main\n"
            "series = os.path.join(sys.argv[1], os.fsdecode(b'P\\xc3\\xa9'))\n"
            "sys.exit(main([arg.format(series=series) for arg in sys.argv[2:]]))\n",
            tmp_path, *argv, LC_ALL="C", PYTHONUTF8="0",
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("error: patient id 'P\\udcc3\\udca9' is not text "
                                 "that UTF-8 can write\n")
        assert list(out.iterdir()) == [] and not features.exists()


def test_analyze_and_extract_features_never_import_scipy(phantom_dir, model_file, tmp_path):
    series_dir, _ = phantom_dir
    result = _run_python(
        "import sys\n"
        "from lungct.cli import main\n"
        "assert main(['analyze', sys.argv[1], '--model', sys.argv[2], '--out', sys.argv[3],\n"
        "             '--threads', '1']) == 0\n"
        "assert main(['extract-features', sys.argv[1], '--out', sys.argv[4], '--threads', '1']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n",
        series_dir, model_file, tmp_path / "out", tmp_path / "features.csv",
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "PH001" / "report.json").exists()


def test_every_public_name_resolves_lazily():
    result = _run_python(
        "import sys\n"
        "import lungct\n"
        "assert 'scipy' not in sys.modules\n"
        "from lungct import *\n"
        "missing = [name for name in lungct.__all__ if name not in globals()]\n"
        "assert not missing, missing\n"
        "assert lungct.classify_series is lungct.pipeline.classify_series\n"
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_loads_no_process_pool_machinery():
    result = _run_python(
        "import sys\n"
        "import lungct.cli\n"
        "loaded = [m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))]\n"
        "assert not loaded, loaded\n"
    )
    assert result.returncode == 0, result.stderr


def test_train_at_one_thread_loads_no_process_pool_machinery(corpus_csv, tmp_path):
    config = tmp_path / "serial.cfg"
    config.write_text("threads = 1\n")
    result = _run_python(
        "import sys\n"
        "from lungct.cli import main\n"
        "assert main(['train', sys.argv[1], '--out', sys.argv[2], '--config', sys.argv[3]]) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))]\n"
        "assert not loaded, loaded\n",
        corpus_csv, tmp_path / "m.lctm", config,
    )
    assert result.returncode == 0, result.stderr


def test_import_binds_the_image_processing_submodules():
    result = _run_python(
        "import sys\n"
        "import lungct\n"
        "for name in ('pipeline', 'preprocess', 'watershed', 'morphology'):\n"
        "    assert getattr(lungct, name).__name__ == 'lungct.' + name, name\n"
        "assert 'scipy' not in sys.modules\n"
    )
    assert result.returncode == 0, result.stderr


def test_train_non_finite_feature_exits_4_without_a_model(tmp_path, capsys):
    X, y, patient_ids, slice_indices = make_feature_corpus(200, seed=0)
    X[17, 0], X[140, 0] = np.nan, np.inf
    rows = [(patient_ids[i], slice_indices[i], *X[i], int(y[i])) for i in range(len(y))]
    path = tmp_path / "corpus.csv"
    write_feature_csv(path, rows)
    model = tmp_path / "m.lctm"
    assert main(["train", str(path), "--out", str(model)]) == 4
    assert capsys.readouterr().err.startswith("error: line 19: ")
    assert not model.exists()


def test_train_label_outside_range_names_the_line(tmp_path, capsys):
    X, y, patient_ids, slice_indices = make_feature_corpus(200, seed=0)
    rows = [(patient_ids[i], slice_indices[i], *X[i], int(y[i])) for i in range(len(y))]
    rows[5] = (*rows[5][:5], 2)
    path = tmp_path / "corpus.csv"
    write_feature_csv(path, rows)
    assert main(["train", str(path), "--out", str(tmp_path / "m.lctm")]) == 4
    assert capsys.readouterr().err == "error: line 7: label must be -1, 0 or 1, got 2\n"


def test_train_malformed_csv_exits_4(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("this,is,not\nvalid\n")
    assert main(["train", str(path), "--out", str(tmp_path / "m")]) == 4


@pytest.mark.parametrize("command, text, line", [
    ("train", ",".join(CSV_HEADER) + "\n" + "P" * 131_073 + ",0,1,2,3,0\n", 2),
    ("eval", "1" * 131_073 + ",1\n", 1),
], ids=["train", "eval"])
def test_csv_line_the_csv_module_rejects_exits_4_naming_it(command, text, line, tmp_path, capsys):
    # The csv module caps a field at 131072 characters and raises csv.Error past it.
    path = tmp_path / "big.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 4
    assert capsys.readouterr().err == f"error: line {line}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command, text, line", [
    ("train", ",".join(CSV_HEADER) + '\n"P\n1",0,1,2,3,0\nP2,0,1,2,3,7\n', 4),
    ("eval", '"1\n",1\nx,1\n', 3),
], ids=["train", "eval"])
def test_csv_line_after_a_field_spanning_lines_is_its_physical_line(command, text, line, tmp_path,
                                                                     capsys):
    path = tmp_path / "multiline.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("command, text, shown", [
    ("train", ",".join(CSV_HEADER) + "\nP99,0,1_000,1_0.5,3,0_1\n", "line 2: malformed number '0_1'"),
    ("eval", "1,1\n0_1,1\n", "line 2: malformed number '0_1'"),
], ids=["train", "eval"])
def test_csv_number_outside_its_grammar_exits_4(command, text, shown, tmp_path, capsys):
    # int() and float() read "0_1" as 1 and "1_0.5" as 10.5.
    path = tmp_path / "underscored.csv"
    path.write_text(text)
    assert main([command, str(path)]) == 4
    assert capsys.readouterr().err == f"error: {shown}\n"


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


@pytest.mark.parametrize("text, message", [
    ("PH001: 1,500,-2\n", "PH001.*slice index -2, 500 outside 0..5"),
    ("PH002: 1\n", "no line for patient 'PH001'"),
    ("PH001: 1\nPH002: 3\nPH001: 2\n", ":3: patient 'PH001' is already listed on line 1"),
])
def test_extract_features_labels_that_mislabel_exit_4_before_segmenting(
        monkeypatch, phantom_dir, tmp_path, capsys, text, message):
    calls = []
    monkeypatch.setattr("lungct.pipeline.segment_series", lambda *args, **kwargs: calls.append(args))
    series_dir, _ = phantom_dir
    labels = tmp_path / "labels.txt"
    labels.write_text(text)
    out = tmp_path / "f.csv"
    assert main(["extract-features", str(series_dir), "--labels", str(labels), "--out", str(out)]) == 4
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err), err


@pytest.mark.parametrize("option, line, parsed, bad, form", [
    ("--config", "band_lo = 105", lambda path: PipelineConfig.from_file(path).band_lo == 105,
     "band_lo 105", "key = value"),
    ("--labels", "PH001: 1,2", lambda path: parse_labels_file(path) == {"PH001": {1, 2}},
     "PH001 1,2", "patient_id: i,j,k"),
], ids=["config", "labels"])
def test_config_and_labels_files_share_one_line_syntax(option, line, parsed, bad, form, phantom_dir,
                                                       tmp_path, capsys):
    path = tmp_path / "key_lines.txt"
    path.write_text(f"# a comment-only line\n\n{line}  # a trailing comment\n")
    assert parsed(path)
    # A form feed ends no line, so the bad line is the third.
    path.write_text(f"# a comment-only line\f\n\n{bad}\n")
    series_dir, _ = phantom_dir
    argv = ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv"), option, str(path)]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {path}:3: expected {form!r}, got {bad!r}\n"


def test_extract_features_slice_index_outside_its_grammar_exits_4(phantom_dir, tmp_path, capsys):
    # int() reads "1_2" as 12.
    series_dir, _ = phantom_dir
    labels = tmp_path / "labels.txt"
    labels.write_text("PH001: 1_2\n")
    argv = ["extract-features", str(series_dir), "--labels", str(labels), "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {labels}:1: bad slice index list: '1_2'\n"


def test_extract_features_patient_without_tumour_labels_every_candidate_0(phantom_dir, tmp_path):
    series_dir, _ = phantom_dir
    labels = tmp_path / "labels.txt"
    labels.write_text("OTHER: 1\nPH001:\n")
    out = tmp_path / "f.csv"
    assert main(["extract-features", str(series_dir), "--labels", str(labels), "--out", str(out)]) == 0
    _, y, _, _ = read_feature_csv(out)
    assert len(y) and (y == 0).all()


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
        segment_series(slices, PipelineConfig(threads=1))


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


def test_dead_worker_exits_2(monkeypatch, phantom_dir, model_file, corpus_csv, tmp_path, capsys):
    import lungct.ensemble as ensemble
    import lungct.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_slice_task", _exit_in_worker)
    monkeypatch.setattr(ensemble, "_fit_task", _exit_in_worker)
    series_dir, _ = phantom_dir
    for command in (
        ["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path)],
        ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")],
        ["train", str(corpus_csv), "--out", str(tmp_path / "m.lctm")],
    ):
        assert main(command + ["--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "PH001").exists()
    assert not (tmp_path / "m.lctm").exists()


def test_analyze_two_series_of_one_patient_in_one_folder_exits_2(model_file, tmp_path, capsys):
    series_dir = tmp_path / "DCM"
    series_dir.mkdir()
    for series in "ab":
        for instance in (1, 2, 3):
            (series_dir / f"{series}{instance}.dcm").write_bytes(
                build_dicom(instance=instance, thickness=5.0))
    out = tmp_path / "out"
    assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance numbers [1, 2, 3] repeat") and err.count("\n") == 1
    assert not out.exists()


def test_zero_window_width_on_dicom_exits_4(model_file, tmp_path, capsys):
    series_dir = tmp_path / "DCM"
    series_dir.mkdir()
    for instance in (1, 2):
        (series_dir / f"{instance}.dcm").write_bytes(build_dicom(instance=instance, thickness=5.0))
    for command in (
        ["analyze", str(series_dir), "--model", str(model_file), "--out", str(tmp_path / "out")],
        ["extract-features", str(series_dir), "--out", str(tmp_path / "f.csv")],
    ):
        assert main(command + ["--window-width", "0"]) == 4
        assert "window_width" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "{series}", "--model", "{model}", "--out", "{file}/out"],
    ["train", "{corpus}", "--out", "{file}/m.lctm"],
    ["extract-features", "{series}", "--out", "{file}/f.csv"],
    ["train", "{header_only}", "--out", "{tmp}/m.lctm"],
    ["train", "{unlabeled}", "--out", "{tmp}/m.lctm"],
    ["analyze", "{series}", "--model", "{model}", "--out", "{tmp}/out", "--slice-thickness-mm", "-1"],
], ids=["analyze-out-under-file", "train-out-under-file", "extract-features-out-under-file",
        "train-header-only-csv", "train-unlabeled-csv", "analyze-negative-thickness"])
def test_unwritable_out_and_unusable_input_exit_4(
        argv, phantom_dir, model_file, corpus_csv, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    write_feature_csv(tmp_path / "header_only.csv", [])
    write_feature_csv(tmp_path / "unlabeled.csv", [("P", i, 100 + i, 50.0, 10.0, -1) for i in range(30)])
    paths = dict(series=phantom_dir[0], model=model_file, corpus=corpus_csv, file=blocker, tmp=tmp_path,
                 header_only=tmp_path / "header_only.csv", unlabeled=tmp_path / "unlabeled.csv")
    dropped = "{unlabeled}" in argv
    with pytest.warns(UserWarning, match="dropping 30 unlabeled row") if dropped else nullcontext():
        assert main([arg.format(**paths) for arg in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_unwritable_out_fails_before_segmenting(
        monkeypatch, phantom_dir, model_file, tmp_path, capsys):
    calls = []
    monkeypatch.setattr("lungct.pipeline.classify_series", lambda *args, **kwargs: calls.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    series_dir, _ = phantom_dir
    assert main(["analyze", str(series_dir), "--model", str(model_file), "--out", str(blocker / "o")]) == 4
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")


def test_every_error_class_has_one_exit_code_family():
    families = (errors.IngestError, errors.ModelError, errors.InputError)
    imaging = {errors.ShapeError, errors.EmptyMarkerError, errors.NoMarkerError, errors.EmptyRegionError}
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.LungCtError) and cls not in (errors.LungCtError, *families)
    ]
    assert imaging <= set(classes)
    for cls in classes:
        expected = 0 if cls in imaging else 1
        assert sum(issubclass(cls, family) for family in families) == expected, cls.__name__


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


@pytest.mark.parametrize("cells", ["0.0,1", "0,x"])
def test_eval_non_integer_cell_names_its_line(tmp_path, capsys, cells):
    path = tmp_path / "bad.csv"
    path.write_text(f"prediction,label\n1,1\n{cells}\n")
    assert main(["eval", str(path)]) == 4
    assert "line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("first, code, shown", [
    ("1.0,1", 4, "error: line 1: "), ("+1,1", 0, "N = 3\n"), (" prediction , label ", 0, "N = 2\n"),
])
def test_eval_first_line_is_a_header_only_when_it_reads_prediction_label(tmp_path, capsys,
                                                                          first, code, shown):
    path = tmp_path / "preds.csv"
    path.write_text(f"{first}\n1,1\n0,0\n")
    assert main(["eval", str(path)]) == code
    captured = capsys.readouterr()
    assert shown in captured.out + captured.err


def test_eval_label_outside_zero_and_one_exits_4(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,1\n0,2\n")
    assert main(["eval", str(path)]) == 4
    captured = capsys.readouterr()
    assert "label 2" in captured.err
    assert "N = " not in captured.out


# --- config --------------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("band_lo = 100\nband_hi = 140  # widened band\nseed = 3\n")
    config = PipelineConfig.from_file(cfg_file)
    assert (config.band_lo, config.band_hi, config.seed) == (100, 140, 3)
    merged = config.override(band_lo=105, seed=None)
    assert merged.band_lo == 105
    assert merged.seed == 3


def test_config_key_set_twice_exits_4_naming_both_lines(tmp_path, capsys):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("band_lo = 100\nband-lo = 105\n")
    assert main(["train", str(tmp_path / "f.csv"), "--config", str(cfg_file)]) == 4
    assert capsys.readouterr().err == (
        f"error: {cfg_file}:2: config key 'band_lo' is already set on line 1\n")


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("not_a_key = 1\n")
    with pytest.raises(ValueError):
        PipelineConfig.from_file(cfg_file)


@pytest.mark.parametrize("field, value", [
    ("threads", 0), ("threads", -4), ("slice_thickness_mm", 0.0), ("slice_thickness_mm", -1.0),
    ("pixel_spacing_row_mm", -1.0), ("pixel_spacing_col_mm", 0.0),
    ("band_lo", 200), ("band_hi", 100), ("band_lo", -1), ("band_hi", 256), ("disk_radius", -1),
    ("cleanup_radius_close", 0), ("cleanup_radius_open", -2), ("blackout_fraction", 2.0),
    ("blackout_fraction", 0.5), ("blackout_fraction", -0.1), ("strip_width_fraction", 0.0),
    ("strip_width_fraction", 0.4), ("n_trees", 0), ("min_leaf", 0), ("max_depth", -1),
    ("window_width", 0.0), ("window_width", float("inf")), ("window_width", float("nan")),
    ("window_center", float("nan")), ("window_center", float("inf")),
    ("slice_thickness_mm", float("inf")), ("pixel_spacing_row_mm", float("inf")),
    ("seed", 2**63), ("seed", -2**63 - 1),
    ("n_trees", 2**32), ("min_leaf", 2**32), ("max_depth", 2**32),
])
def test_config_rejects_out_of_range_values(field, value, phantom_dir, model_file, corpus_csv,
                                            tmp_path, capsys):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        PipelineConfig().override(**{field: value})
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text(f"{field} = {value}\n")
    series_dir, _ = phantom_dir
    out = tmp_path / "out"
    analyze = ["analyze", str(series_dir), "--model", str(model_file), "--out", str(out)]
    # The flag goes to a command that takes it: classifier settings only to train.
    flag_command = (["train", str(corpus_csv), "--out", str(out)]
                    if field in CLASSIFIER_FIELDS else analyze)
    for command in (analyze + ["--config", str(cfg_file)],
                    flag_command + ["--" + field.replace("_", "-"), str(value)]):
        assert main(command) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and err.count("\n") == 1
    assert not out.exists()


def test_train_seed_beyond_int64_exits_4_before_reading_the_csv(
        monkeypatch, corpus_csv, tmp_path, capsys):
    # The model file stores the seed as int64, so a larger one is refused
    # before any training.
    calls = []
    monkeypatch.setattr("lungct.cli.read_feature_csv", lambda *args: calls.append(args))
    out = tmp_path / "m.lctm"
    assert main(["train", str(corpus_csv), "--out", str(out), "--seed", str(2**63)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and err.count("\n") == 1
    assert calls == []
    assert not out.exists()


_IMAGE = np.zeros((8, 8), dtype=np.uint8)
_CORPUS = make_feature_corpus(200, seed=1)[:2]
_SLICE = parse_dicom(build_dicom(thickness=5.0, spacing=(1.0, 1.0)))


def _fit(**settings):
    return BaggedTreesClassifier(n_trees=2, **settings).fit(*_CORPUS)


@pytest.mark.parametrize("field, value, layer", [
    ("blackout_fraction", 0.5, lambda v: blackout_bands(_IMAGE, v)),
    ("blackout_fraction", -0.1, lambda v: apply_central_strip(_IMAGE, blackout_fraction=v)),
    ("strip_width_fraction", 0.0, lambda v: apply_central_strip(_IMAGE, v)),
    ("strip_width_fraction", float("nan"), lambda v: apply_central_strip(_IMAGE, v)),
    ("band_lo", -1, lambda v: remap_intensity(_IMAGE, band_lo=v)),
    ("band_hi", 256, lambda v: remap_intensity(_IMAGE, band_hi=v)),
    ("band_hi", 100, lambda v: remap_intensity(_IMAGE, band_hi=v)),
    ("cleanup_radius_close", 0, lambda v: cleanup(_IMAGE, close_radius=v)),
    ("cleanup_radius_open", -1, lambda v: cleanup(_IMAGE, open_radius=v)),
    ("min_leaf", 0, lambda v: train_tree(*_CORPUS, min_leaf=v)),
    ("min_leaf", 2**32, lambda v: _fit(min_leaf=v)),
    ("max_depth", 2**32, lambda v: train_tree(*_CORPUS, max_depth=v)),
    ("max_depth", -1, lambda v: _fit(max_depth=v)),
    ("n_trees", 0, lambda v: BaggedTreesClassifier(n_trees=v).fit(*_CORPUS)),
    ("n_trees", 2**32, lambda v: BaggedTreesClassifier(n_trees=v).fit(*_CORPUS)),
    ("seed", 2**63, lambda v: save_model(_fit(seed=v), os.devnull)),
    ("window_width", 0.0, lambda v: to_gray8(_SLICE, window_width=v)),
    ("window_width", float("nan"), lambda v: to_gray8(_SLICE, window_width=v)),
    ("window_center", float("inf"), lambda v: to_gray8(_SLICE, window_center=v)),
    ("slice_thickness_mm", float("inf"), lambda v: build_report("P", [], v, (1.0, 1.0))),
    ("pixel_spacing_row_mm", 0.0, lambda v: build_report("P", [], 5.0, (v, 1.0))),
    ("pixel_spacing_col_mm", float("nan"), lambda v: build_report("P", [], 5.0, (1.0, v))),
])
def test_layers_reject_what_the_config_rejects(field, value, layer):
    with pytest.raises(ValueError) as from_config:
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError) as from_layer:
        layer(value)
    assert field in str(from_layer.value)
    assert str(from_layer.value) == str(from_config.value)


def _settings_flags(command, capsys):
    """The config fields whose flags ``lungct COMMAND --help`` lists."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = {flag[2:].replace("-", "_") for flag in re.findall(r"--[a-z-]+", capsys.readouterr().out)}
    return listed & {f.name for f in fields(PipelineConfig)}


def test_each_command_help_lists_exactly_its_settings_flags(capsys):
    assert set(PipelineConfig().classifier_kwargs()) == CLASSIFIER_FIELDS
    image = {f.name for f in fields(PipelineConfig)} - CLASSIFIER_FIELDS
    assert len(image) == 13
    assert _settings_flags("analyze", capsys) == image
    assert _settings_flags("extract-features", capsys) == image
    assert _settings_flags("train", capsys) == CLASSIFIER_FIELDS | {"threads"}
    assert _settings_flags("eval", capsys) == set()


@pytest.mark.parametrize("argv, named", [
    ([], "command"),
    (["segment", "DIR"], "segment"),
    (["analyze", "DIR"], "--model"),
    (["analyze", "DIR", "--model", "M", "--band-lo", "abc"], "--band-lo"),
    (["analyze", "DIR", "--model", "M", "--seed", "3"], "--seed"),
    (["analyze", "DIR", "--model", "M", "--n-trees", "5"], "--n-trees"),
    (["extract-features", "DIR", "--min-leaf", "2"], "--min-leaf"),
    (["train", "CSV", "--band-lo", "100"], "--band-lo"),
    (["train", "CSV", "--cv-split", "row"], "--cv-split"),
    (["eval"], "predictions_csv"),
])
def test_usage_error_exits_4_with_one_error_line(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["--version"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_one_config_file_with_every_key_drives_train_and_analyze(
        phantom_dir, corpus_csv, tmp_path, capsys):
    values = {**{f.name: getattr(PipelineConfig(), f.name) for f in fields(PipelineConfig)},
              "n_trees": 3, "slice_thickness_mm": 2.5}
    cfg_file = tmp_path / "pipeline.cfg"
    cfg_file.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    model = tmp_path / "m.lctm"
    assert main(["train", str(corpus_csv), "--out", str(model), "--config", str(cfg_file)]) == 0
    assert "trained 3 trees" in capsys.readouterr().out
    series_dir, _ = phantom_dir
    out = tmp_path / "out"
    assert main(["analyze", str(series_dir), "--model", str(model), "--out", str(out),
                 "--config", str(cfg_file)]) == 0
    assert json.loads((out / "PH001" / "report.json").read_text())["slice_thickness_mm"] == 2.5


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


def test_layer_defaults_are_the_config_defaults(rng):
    config = PipelineConfig()
    assert SlicePreprocessor().get_params() == config.preprocess_kwargs()
    assert BaggedTreesClassifier().get_params() == config.classifier_kwargs()
    img = rng.integers(0, 256, (64, 64)).astype(np.uint8)
    assert np.array_equal(preprocess_slice(img), preprocess_slice(img, **config.preprocess_kwargs()))


@pytest.mark.parametrize("layer", [compute_markers, train_tree, cross_validate,
                                   fit_and_cross_validate, to_gray8])
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

class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for, runs inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("n_tasks, workers, pool_size", [
    (3, 8, 3), (16, 2, 2), (1, 8, None), (0, 8, None), (5, 1, None),
])
def test_map_tasks_starts_no_more_workers_than_tasks(monkeypatch, n_tasks, workers, pool_size):
    import concurrent.futures.process as process

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(process, "ProcessPoolExecutor", _RecordingPool)
    assert map_tasks(abs, list(range(-n_tasks, 0)), workers) == list(range(n_tasks, 0, -1))
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("threads, pool_size", [(1, None), (3, 3)])
def test_series_calls_take_their_worker_count_from_the_config(
        monkeypatch, model_file, threads, pool_size):
    import concurrent.futures.process as process

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(process, "ProcessPoolExecutor", _RecordingPool)
    config = PipelineConfig(threads=threads)
    slices = np.zeros((4, 32, 32), dtype=np.uint8)
    series = CtSeries("P", slices, 5.0, (1.0, 1.0), [1, 2, 3, 4])
    assert segment_series(slices, config) == [[]] * 4
    assert isinstance(classify_series(series, load_model(model_file), config), SeriesReport)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size] * 2)


def test_segment_series_parallel_equals_serial():
    slices, _ = make_phantom_series(n_slices=4, size=256, tumour_slices=(1,), seed=3)
    serial = segment_series(slices, PipelineConfig(threads=1))
    parallel = segment_series(slices, PipelineConfig(threads=4))
    assert len(serial) == len(parallel) == 4
    for a, b in zip(serial, parallel):
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.mask, cb.mask)
            assert ca.features == cb.features
