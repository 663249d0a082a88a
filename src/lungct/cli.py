"""Command-line interface: analyze a series, train, extract features, evaluate.

Exit codes: 0 success, 2 series/ingest errors (a failed slice or a dead
worker process included), 3 model errors, 4 a usage error, malformed
CSV/labels/config input or an unwritable output. ``main`` alone maps
failures to these codes.
"""

import argparse
import json
import os
import shutil
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

from . import __version__, pipeline
from .analytics import report_to_json, report_to_text
from .config import DEFAULTS, PipelineConfig, _key_lines, range_text
from .ensemble import (
    CV_FOLDS,
    evaluate,
    fit_and_cross_validate,
    load_model,
    save_model,
)
from .errors import IngestError, InputError, ModelError
from .features import FEATURE_NAMES, _csv_rows, read_feature_csv, write_feature_csv
from .ingest import load_series, write_pgm
from .validation import _INTEGER, _check_numerals

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_MODEL = 3
EXIT_INPUT = 4


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors, so ``main`` maps them to exit 4."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _settings_parser(names):
    """A parent parser holding ``--config`` and a flag for each config field in ``names``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="key = value config file; it may set every config key")
    for f in fields(PipelineConfig):
        if f.name in names:
            parser.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                                help=f"override config {f.name} (default {f.default}, "
                                     f"range {range_text(f.name)})")
    return parser


def _load_config(args):
    """The ``--config`` file's settings (or the defaults), overridden by the
    command's settings flags; a field the command has no flag for is kept."""
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    return config.override(**{f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)})


def _load_series(args, config):
    """The series, whose patient id must be text the UTF-8 outputs can hold."""
    series = load_series(
        args.series_dir,
        window=(config.window_center, config.window_width),
        default_thickness_mm=config.slice_thickness_mm,
        default_spacing_mm=(config.pixel_spacing_row_mm, config.pixel_spacing_col_mm),
    )
    try:
        series.patient_id.encode("utf-8")
    except UnicodeEncodeError:
        raise IngestError(f"patient id {series.patient_id!r} is not text that UTF-8 can write") from None
    return series


def parse_labels_file(path):
    """Read 'patient_id: i,j,k' lines into {patient_id: set(indices)}, one line per patient."""
    table, first_line = {}, {}
    for lineno, patient, rest in _key_lines(path, ":", "patient_id: i,j,k"):
        if not patient:
            raise ValueError(f"{path}:{lineno}: empty patient id")
        if patient in table:
            raise ValueError(f"{path}:{lineno}: patient {patient!r} is already listed "
                             f"on line {first_line[patient]}")
        parts = rest.split(",") if rest else []
        try:
            indices = {int(part) for part in parts}
            _check_numerals(parts, _INTEGER)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad slice index list: {rest!r}") from exc
        table[patient], first_line[patient] = indices, lineno
    return table


# --- subcommands --------------------------------------------------------------

def cmd_analyze(args):
    config = _load_config(args)
    start = time.perf_counter()
    series = _load_series(args, config)
    # The patient folder is replaced whole, so it must be a plain child of
    # --out and must not hold the series being read.
    out_root = Path(args.out)
    patient_dir = out_root / series.patient_id
    if series.patient_id in ("", ".", "..") or Path(series.patient_id).name != series.patient_id:
        raise IngestError(f"patient id {series.patient_id!r} cannot name an output folder")
    series_dir = Path(args.series_dir).resolve()
    if patient_dir.resolve() in (series_dir, *series_dir.parents):
        raise ValueError(f"output folder {patient_dir} would replace the series in it")
    model = load_model(args.model)

    if patient_dir.exists():
        warnings.warn(f"output folder {patient_dir} exists; contents will be overwritten")
    # Build the folder beside its final place and rename it in, so it never
    # mixes files of this run with those of an earlier one. It is made before
    # segmenting, so an unwritable --out fails at once.
    staging = out_root / f".{series.patient_id}.partial-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        report = pipeline.classify_series(series, model, config)
        (staging / "report.json").write_text(report_to_json(report), encoding="utf-8")
        (staging / "report.txt").write_text(report_to_text(report), encoding="utf-8")
        for detection in report.positives:
            overlay = pipeline.render_overlay(series.slices[detection.slice_index], detection.mask)
            write_pgm(staging / f"slice_{detection.slice_index:03d}_overlay.pgm", overlay)
        meta = {"version": __version__, "finished_at": time.time(),
                "elapsed_s": time.perf_counter() - start, "n_slices": len(series),
                "threads": config.threads}
        (staging / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                                               encoding="utf-8")
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
    config = _load_config(args)
    X, y, patient_ids, _ = read_feature_csv(args.features_csv)

    labeled = y >= 0
    if not labeled.all():
        warnings.warn(f"dropping {int((~labeled).sum())} unlabeled row(s) (label -1)")
        X, y = X[labeled], y[labeled]
        patient_ids = [p for p, keep in zip(patient_ids, labeled) if keep]

    groups = patient_ids if args.cv_split == "patient" else None
    model, cv = fit_and_cross_validate(X, y, k=args.cv_folds, groups=groups, workers=config.threads,
                                       **config.classifier_kwargs())

    save_model(model, args.out)
    print(f"trained {len(model.trees_)} trees on {len(y)} samples")
    print(
        f"{args.cv_folds}-fold cross-validation ({args.cv_split} level): "
        f"mean accuracy {100.0 * cv['mean_accuracy']:.2f}%"
    )
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_extract_features(args):
    config = _load_config(args)
    series = _load_series(args, config)

    positive_slices = None
    if args.labels:
        table = parse_labels_file(args.labels)
        if series.patient_id not in table:
            raise ValueError(f"{args.labels}: no line for patient {series.patient_id!r}; "
                             f"write '{series.patient_id}:' for a patient without tumour")
        positive_slices = table[series.patient_id]
        outside = sorted(i for i in positive_slices if not 0 <= i < len(series))
        if outside:
            raise ValueError(f"{args.labels}: patient {series.patient_id!r}: slice index "
                             f"{', '.join(map(str, outside))} outside 0..{len(series) - 1}")

    per_slice = pipeline.segment_series(series.slices, config)
    rows = []
    for slice_index, candidates in enumerate(per_slice):
        for cand in candidates:
            label = -1 if positive_slices is None else int(slice_index in positive_slices)
            values = (getattr(cand.features, name) for name in FEATURE_NAMES)
            rows.append((series.patient_id, slice_index, *values, label))
    write_feature_csv(args.out, rows)
    print(f"wrote {len(rows)} feature row(s) to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    predictions, labels = [], []
    with open(args.predictions_csv, encoding="utf-8", newline="") as fh:
        for line, row in _csv_rows(fh):
            if not row:
                continue
            if line == 1 and [cell.strip() for cell in row] == ["prediction", "label"]:
                continue  # optional header
            if len(row) != 2:
                raise ValueError(f"line {line}: expected 'prediction,label'")
            try:
                predictions.append(int(row[0]))
                labels.append(int(row[1]))
                _check_numerals(row, _INTEGER)
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
    metrics = evaluate(predictions, labels)

    tp, fn, fp, tn = metrics["confusion"]
    print(f"N = {len(labels)}")
    print(f"confusion: TP={tp} FN={fn} FP={fp} TN={tn}")
    print(f"accuracy:    {100.0 * metrics['accuracy']:.2f}%")
    print(f"sensitivity: {100.0 * metrics['sensitivity']:.2f}%")
    print(f"specificity: {100.0 * metrics['specificity']:.2f}%")
    return EXIT_OK


# --- parser --------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="lungct",
        description="Batch lung-CT tumour detection, segmentation and analysis.",
    )
    parser.add_argument("--version", action="version", version=f"lungct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes the settings flags of the layers it runs: the image
    # settings, or the classifier's; a --config file may set every key.
    classifier = DEFAULTS.classifier_kwargs().keys()
    image = _settings_parser({f.name for f in fields(PipelineConfig)} - classifier)
    training = _settings_parser(classifier | {"threads"})

    p = sub.add_parser("analyze", parents=[image],
                       help="run the full pipeline over one series directory")
    p.add_argument("series_dir", help="directory of DICOM (or PGM) slices for one patient")
    p.add_argument("--model", required=True, help="trained classifier file")
    p.add_argument("--out", default=".", help="root for the per-patient output folder")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", parents=[training], help="train the classifier from a feature CSV")
    p.add_argument("features_csv", help="CSV written by extract-features")
    p.add_argument("--out", default="classifier.lctm", help="model file to write")
    p.add_argument("--cv-folds", type=int, default=CV_FOLDS, help="cross-validation folds")
    p.add_argument("--cv-split", choices=("patient", "slice"), default="patient",
                   help="fold at patient or slice granularity")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract-features", parents=[image],
                       help="segment a series and emit its feature CSV")
    p.add_argument("series_dir")
    p.add_argument("--labels", help="labels file: 'patient_id: i,j,k' per line")
    p.add_argument("--out", default="features.csv", help="CSV file to write")
    p.set_defaults(func=cmd_extract_features)

    p = sub.add_parser("eval", help="score a prediction/label CSV")
    p.add_argument("predictions_csv", help="two columns: prediction,label")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except IngestError as exc:
        return _fail(EXIT_INGEST, exc)
    except ModelError as exc:
        return _fail(EXIT_MODEL, exc)
    except (InputError, ValueError, OSError) as exc:
        # Values or paths the user gave: the command line, the config, a
        # CSV, the labels file, the display window, --out.
        return _fail(EXIT_INPUT, exc)


if __name__ == "__main__":
    sys.exit(main())
