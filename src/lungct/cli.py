"""Command-line interface: analyze a series, train, extract features, evaluate.

Exit codes: 0 success, 2 series/ingest errors (a failed slice or a dead
worker process included), 3 model errors, 4 malformed CSV/labels/config input.
"""

import argparse
import json
import os
import shutil
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

from . import __version__
from .analytics import report_to_json, report_to_text
from .config import PipelineConfig
from .ensemble import (
    CV_FOLDS,
    BaggedTreesClassifier,
    cross_validate,
    evaluate,
    load_model,
    save_model,
)
from .errors import (
    EmptySeriesError,
    FoldTooSmallError,
    FormatError,
    LengthMismatchError,
    MissingTagError,
    MixedSeriesError,
    ModelFormatError,
    ModelVersionError,
    SeriesShapeError,
    SingleClassError,
    SliceError,
    UnsupportedError,
)
from .features import read_feature_csv, write_feature_csv
from .ingest import load_series, write_pgm
from .pipeline import classify_series, render_overlay, segment_series

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_MODEL = 3
EXIT_INPUT = 4

_INGEST_ERRORS = (
    EmptySeriesError,
    SeriesShapeError,
    MixedSeriesError,
    FormatError,
    UnsupportedError,
    MissingTagError,
    OSError,
)
# A slice whose analysis raised, or a pool worker that died mid-series.
_SEGMENT_ERRORS = (SliceError, BrokenProcessPool)


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_config_flags(parser):
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, type=f.type, default=None,
                            help=f"override config {f.name} (default {f.default})")


def _load_config(args):
    if getattr(args, "config", None):
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    return config.override(**overrides)


def _load_series(args, config):
    return load_series(
        args.series_dir,
        window=(config.window_center, config.window_width),
        default_thickness_mm=config.slice_thickness_mm,
        default_spacing_mm=(config.pixel_spacing_row_mm, config.pixel_spacing_col_mm),
    )


def parse_labels_file(path):
    """Read 'patient_id: i,j,k' lines into {patient_id: set(indices)}."""
    table = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'patient_id: i,j,k'")
        patient, _, rest = line.partition(":")
        patient = patient.strip()
        if not patient:
            raise ValueError(f"{path}:{lineno}: empty patient id")
        indices = set()
        rest = rest.strip()
        if rest:
            try:
                indices = {int(part) for part in rest.split(",")}
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad slice index list: {rest!r}") from exc
        table[patient] = indices
    return table


# --- subcommands --------------------------------------------------------------

def cmd_analyze(args):
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:  # a bad value, or an unreadable --config file
        return _fail(EXIT_INPUT, exc)
    start = time.perf_counter()
    try:
        series = _load_series(args, config)
    except _INGEST_ERRORS as exc:
        return _fail(EXIT_INGEST, exc)
    except ValueError as exc:  # the config's display window, rejected by to_gray8
        return _fail(EXIT_INPUT, exc)
    # The patient folder is replaced whole, so it must be a plain child of
    # --out and must not hold the series being read.
    out_root = Path(args.out)
    patient_dir = out_root / series.patient_id
    if series.patient_id in ("", ".", "..") or Path(series.patient_id).name != series.patient_id:
        return _fail(EXIT_INGEST, f"patient id {series.patient_id!r} cannot name an output folder")
    series_dir = Path(args.series_dir).resolve()
    if patient_dir.resolve() in (series_dir, *series_dir.parents):
        return _fail(EXIT_INPUT, f"output folder {patient_dir} would replace the series in it")
    try:
        model = load_model(args.model)
    except (ModelFormatError, ModelVersionError, OSError) as exc:
        return _fail(EXIT_MODEL, exc)

    try:
        report, positives = classify_series(series, model, config, workers=config.threads)
    except _SEGMENT_ERRORS as exc:
        return _fail(EXIT_INGEST, exc)

    if patient_dir.exists():
        warnings.warn(f"output folder {patient_dir} exists; contents will be overwritten")
    # Build the folder beside its final place and rename it in, so it never
    # mixes files of this run with those of an earlier one.
    staging = out_root / f".{series.patient_id}.partial-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        (staging / "report.json").write_text(report_to_json(report))
        (staging / "report.txt").write_text(report_to_text(report))
        for detection in report.positives:
            overlay = render_overlay(series.slices[detection.slice_index], detection.mask)
            write_pgm(staging / f"slice_{detection.slice_index:03d}_overlay.pgm", overlay)
        elapsed = time.perf_counter() - start
        (staging / "run_meta.json").write_text(
            json.dumps(
                {
                    "version": __version__,
                    "finished_at": time.time(),
                    "elapsed_s": elapsed,
                    "n_slices": len(series),
                    "threads": config.threads,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        if patient_dir.exists():
            shutil.rmtree(patient_dir)
        staging.rename(patient_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    if report.positives:
        slices = sorted({d.slice_index for d in report.positives})
        print(f"{series.patient_id}: tumour detected on slice(s) {slices}")
        print(
            f"max cross-sectional area {report.max_area_px} px on slice "
            f"{report.max_area_slice}; approximate volume {report.volume_mm3:.1f} mm^3"
        )
    else:
        print(f"{series.patient_id}: no tumour found")
    print(f"report written to {patient_dir}")
    return EXIT_OK


def cmd_train(args):
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:  # a bad value, or an unreadable --config file
        return _fail(EXIT_INPUT, exc)
    try:
        X, y, patient_ids, _ = read_feature_csv(args.features_csv)
    except (ValueError, OSError) as exc:
        return _fail(EXIT_INPUT, exc)

    labeled = y >= 0
    if not labeled.all():
        warnings.warn(f"dropping {int((~labeled).sum())} unlabeled row(s) (label -1)")
        X, y = X[labeled], y[labeled]
        patient_ids = [p for p, keep in zip(patient_ids, labeled) if keep]

    groups = patient_ids if args.cv_split == "patient" else None
    try:
        model = BaggedTreesClassifier(**config.classifier_kwargs()).fit(X, y)
        cv = cross_validate(X, y, k=args.cv_folds, groups=groups, **config.classifier_kwargs())
    except (SingleClassError, FoldTooSmallError, ValueError) as exc:
        return _fail(EXIT_INPUT, exc)

    save_model(model, args.out)
    print(f"trained {config.n_trees} trees on {len(y)} samples")
    print(
        f"{args.cv_folds}-fold cross-validation ({args.cv_split} level): "
        f"mean accuracy {100.0 * cv['mean_accuracy']:.2f}%"
    )
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_extract_features(args):
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:  # a bad value, or an unreadable --config file
        return _fail(EXIT_INPUT, exc)
    try:
        series = _load_series(args, config)
    except _INGEST_ERRORS as exc:
        return _fail(EXIT_INGEST, exc)
    except ValueError as exc:  # the config's display window, rejected by to_gray8
        return _fail(EXIT_INPUT, exc)

    positive_slices = None
    if args.labels:
        try:
            table = parse_labels_file(args.labels)
        except (ValueError, OSError) as exc:
            return _fail(EXIT_INPUT, exc)
        positive_slices = table.get(series.patient_id, set())

    try:
        per_slice = segment_series(series.slices, config, workers=config.threads)
    except _SEGMENT_ERRORS as exc:
        return _fail(EXIT_INGEST, exc)
    rows = []
    for slice_index, candidates in enumerate(per_slice):
        for cand in candidates:
            if positive_slices is None:
                label = -1
            else:
                label = 1 if slice_index in positive_slices else 0
            f = cand.features
            rows.append(
                (series.patient_id, slice_index, f.size_px, f.mean_intensity,
                 f.center_distance_px, label)
            )
    write_feature_csv(args.out, rows)
    print(f"wrote {len(rows)} feature row(s) to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    import csv

    predictions, labels = [], []
    try:
        with open(args.predictions_csv, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if lineno == 1 and not row[0].strip().lstrip("-").isdigit():
                    continue  # optional header
                if len(row) != 2:
                    raise ValueError(f"line {lineno}: expected 'prediction,label'")
                predictions.append(int(row[0]))
                labels.append(int(row[1]))
        metrics = evaluate(predictions, labels)
    except (ValueError, OSError, LengthMismatchError) as exc:
        return _fail(EXIT_INPUT, exc)

    tp, fn, fp, tn = metrics["confusion"]
    print(f"N = {len(labels)}")
    print(f"confusion: TP={tp} FN={fn} FP={fp} TN={tn}")
    print(f"accuracy:    {100.0 * metrics['accuracy']:.2f}%")
    print(f"sensitivity: {100.0 * metrics['sensitivity']:.2f}%")
    print(f"specificity: {100.0 * metrics['specificity']:.2f}%")
    return EXIT_OK


# --- parser --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="lungct",
        description="Batch lung-CT tumour detection, segmentation and analysis.",
    )
    parser.add_argument("--version", action="version", version=f"lungct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline over one series directory")
    p.add_argument("series_dir", help="directory of DICOM (or PGM) slices for one patient")
    p.add_argument("--model", required=True, help="trained classifier file")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default=".", help="root for the per-patient output folder")
    _add_config_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train the classifier from a feature CSV")
    p.add_argument("features_csv", help="CSV written by extract-features")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default="classifier.lctm", help="model file to write")
    p.add_argument("--cv-folds", type=int, default=CV_FOLDS, help="cross-validation folds")
    p.add_argument("--cv-split", choices=("patient", "slice"), default="patient",
                   help="fold at patient or slice granularity")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract-features", help="segment a series and emit its feature CSV")
    p.add_argument("series_dir")
    p.add_argument("--labels", help="labels file: 'patient_id: i,j,k' per line")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out", default="features.csv", help="CSV file to write")
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("eval", help="score a prediction/label CSV")
    p.add_argument("predictions_csv", help="two columns: prediction,label")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
