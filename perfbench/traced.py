"""Traced runs: the per-layer numbers, from spans around calls into lungct.

A traced analysis calls the layers' public functions in the order that
``analyze_slice`` and ``classify_series`` call them, one span per call, and
patches the morphology functions that ``compute_markers`` and ``watershed``
call so their calls get spans too. Before a traced series counts, every
slice's decomposed candidates must equal what ``analyze_slice`` returns for
that slice, so the trace measures the same computation as the program.
"""

import importlib
import pickle
import shutil
import statistics
import time

import numpy as np
from scipy import ndimage

import checks
import inputs
from spans import Tracer, median_duration, self_times

from lungct.analytics import SliceDetection, build_report, report_to_json, report_to_text
from lungct.config import PipelineConfig
from lungct.ensemble import BaggedTreesClassifier, cross_validate, load_model, save_model
from lungct.features import feature_vector, read_feature_csv
from lungct.ingest import load_series, write_pgm
from lungct.pipeline import Candidate, analyze_slice, render_overlay
from lungct.preprocess import preprocess_slice
from lungct.watershed import candidate_masks, compute_markers, extract_region, watershed

# ``lungct.watershed`` the attribute is the function; the module is in sys.modules.
_WATERSHED_MODULE = importlib.import_module("lungct.watershed")
MORPHOLOGY_CALLS = [
    (_WATERSHED_MODULE, name, f"morphology.{name}")
    for name in ("open_by_reconstruction", "close_by_reconstruction", "regional_maxima",
                 "impose_minima")
]
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

ANALYZE_METRICS = (
    ("ingest.load_series_ms", "ms"),
    ("ingest.bytes_read", "bytes"),
    ("preprocess.slice_ms", "ms"),
    ("morphology.open_by_reconstruction_ms", "ms"),
    ("morphology.close_by_reconstruction_ms", "ms"),
    ("morphology.regional_maxima_ms", "ms"),
    ("morphology.impose_minima_ms", "ms"),
    ("watershed.compute_markers_ms", "ms"),
    ("watershed.flood_ms", "ms"),
    ("watershed.candidate_masks_ms", "ms"),
    ("watershed.fg_components", "count"),
    ("watershed.candidates", "count"),
    ("features.region_ms", "ms"),
    ("pipeline.slice_ms", "ms"),
    ("pipeline.task_bytes", "bytes"),
    ("pipeline.result_bytes", "bytes"),
    ("pipeline.series_ms", "ms"),
    ("analytics.build_report_ms", "ms"),
    ("cli.outputs_ms", "ms"),
    ("cli.overlay_bytes", "bytes"),
)
ENSEMBLE_METRICS = (
    ("ensemble.predict_one_us", "us"),
    ("ensemble.fit_s", "s"),
    ("ensemble.cross_validate_s", "s"),
    ("ensemble.tree_nodes", "count"),
    ("ensemble.save_model_ms", "ms"),
    ("ensemble.model_bytes", "bytes"),
    ("ensemble.load_model_ms", "ms"),
)
PER_LAYER_METRICS = ANALYZE_METRICS + ENSEMBLE_METRICS


def _decomposed_slice(tracer, original, config, index):
    """``analyze_slice`` spelled out call by call; returns (candidates, markers)."""
    with tracer.span("pipeline.analyze_slice"):
        with tracer.span("preprocess.preprocess_slice"):
            pre = preprocess_slice(original, **config.preprocess_kwargs())
        with tracer.span("watershed.compute_markers"):
            markers = compute_markers(pre, disk_radius=config.disk_radius)
        if not markers.foreground.any():
            return [], markers
        with tracer.span("watershed.watershed"):
            labels = watershed(pre, markers)
        with tracer.span("watershed.candidate_masks"):
            masks = candidate_masks(labels, markers)
        candidates = []
        for mask in masks:
            with tracer.span("features.region"):
                with tracer.span("watershed.extract_region"):
                    region = extract_region(original, mask)
                with tracer.span("features.feature_vector"):
                    features = feature_vector(region)
            candidates.append(Candidate(slice_index=index, mask=mask, region=region,
                                        features=features))
    return candidates, markers


def _same_candidates(a, b):
    return len(a) == len(b) and all(
        x.slice_index == y.slice_index
        and np.array_equal(x.mask, y.mask)
        and np.array_equal(x.region, y.region)
        and x.features == y.features
        for x, y in zip(a, b)
    )


def _write_outputs(report, series, patient_dir):
    """The files ``lungct analyze`` writes, written with the same functions."""
    patient_dir.mkdir(parents=True, exist_ok=True)
    (patient_dir / "report.json").write_text(report_to_json(report))
    (patient_dir / "report.txt").write_text(report_to_text(report))
    for detection in report.positives:
        overlay = render_overlay(series.slices[detection.slice_index], detection.mask)
        write_pgm(patient_dir / f"slice_{detection.slice_index:03d}_overlay.pgm", overlay)


def _traced_series(tracer, series_input, model, config, out_dir):
    """One whole series in ``classify_series`` order; returns (series, per-slice results)."""
    with tracer.span("pipeline.series"):
        with tracer.span("ingest.load_series"):
            series = load_series(series_input.directory)
        with tracer.patched(MORPHOLOGY_CALLS):
            per_slice = [
                _decomposed_slice(tracer, original, config, index)
                for index, original in enumerate(series.slices)
            ]
        detections = []
        for index, (candidates, _) in enumerate(per_slice):
            for cand in candidates:
                with tracer.span("ensemble.predict_one"):
                    label, confidence = model.predict_one(cand.features)
                if label == 1:
                    detections.append(SliceDetection(
                        slice_index=index,
                        area_px=cand.features.size_px,
                        center=cand.features.center,
                        confidence=confidence,
                        mask=cand.mask,
                        instance_number=series.instance_numbers[index],
                    ))
        with tracer.span("analytics.build_report"):
            report = build_report(series.patient_id, detections, series.slice_thickness_mm,
                                  series.pixel_spacing_mm)
        with tracer.span("cli.outputs"):
            _write_outputs(report, series, out_dir / series.patient_id)
    return series, per_slice


def run_analyze(work, seed, seconds, log):
    """Traced analysis rounds for ``seconds``.

    Returns (setup problems, tracer, per-layer values, attempted, failed).

    Both analyze workloads trace the same serial, in-process computation;
    the pickled payload sizes stand for what ``--threads 2`` sends through
    the pool.
    """
    tracer = Tracer()
    config = PipelineConfig()
    series_input = inputs.make_series(work / "series", seed)
    problems = inputs.round_trip_problems(series_input)
    allowed = checks.allowed_overlay_regions(series_input)
    model_path = work / "model.lctm"
    tracer.series = "setup"
    inputs.make_model(model_path, span=tracer.span)
    with tracer.span("ensemble.load_model"):
        model = load_model(model_path)

    counts = {"slice_ms": [], "task_bytes": [], "result_bytes": [], "fg_components": [],
              "candidates": [], "overlay_bytes": []}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        tracer.series = attempted
        out_dir = work / "out" / str(attempted)
        series, per_slice = _traced_series(tracer, series_input, model, config, out_dir)
        attempted += 1
        round_problems = []
        task_bytes = result_bytes = fg = n_cand = 0
        for index, original in enumerate(series.slices):
            t0 = time.perf_counter()
            expected = analyze_slice(original, config, slice_index=index)
            counts["slice_ms"].append((time.perf_counter() - t0) * 1e3)
            candidates, markers = per_slice[index]
            if not _same_candidates(candidates, expected):
                round_problems.append(f"slice {index}: decomposed candidates differ from analyze_slice")
            task_bytes += len(pickle.dumps((index, np.asarray(original), config)))
            result_bytes += len(pickle.dumps((index, expected)))
            fg += ndimage.label(markers.foreground, structure=_CROSS)[1]
            n_cand += len(candidates)
        patient_dir = out_dir / series.patient_id
        found, _ = checks.check_analysis(patient_dir, series_input, allowed)
        round_problems += found
        counts["task_bytes"].append(task_bytes)
        counts["result_bytes"].append(result_bytes)
        counts["fg_components"].append(fg)
        counts["candidates"].append(n_cand)
        counts["overlay_bytes"].append(sum(p.stat().st_size for p in patient_dir.glob("*.pgm")))
        shutil.rmtree(out_dir)
        if round_problems:
            failed += 1
            log(f"traced series {attempted - 1} failed: " + "; ".join(round_problems))

    spans = tracer.spans
    own = self_times(spans)
    med = statistics.median
    values = {
        "ingest.load_series_ms": median_duration(spans, "ingest.load_series", 1e3),
        "ingest.bytes_read": sum(p.stat().st_size for p in series_input.directory.iterdir()),
        "preprocess.slice_ms": median_duration(spans, "preprocess.preprocess_slice", 1e3),
        "watershed.compute_markers_ms": median_duration(spans, "watershed.compute_markers", 1e3),
        "watershed.flood_ms": median_duration(spans, "watershed.watershed", 1e3, use_self=own),
        "watershed.candidate_masks_ms": median_duration(spans, "watershed.candidate_masks", 1e3),
        "watershed.fg_components": med(counts["fg_components"]),
        "watershed.candidates": med(counts["candidates"]),
        "features.region_ms": median_duration(spans, "features.region", 1e3),
        "pipeline.slice_ms": med(counts["slice_ms"]),
        "pipeline.task_bytes": med(counts["task_bytes"]),
        "pipeline.result_bytes": med(counts["result_bytes"]),
        "pipeline.series_ms": median_duration(spans, "pipeline.series", 1e3),
        "analytics.build_report_ms": median_duration(spans, "analytics.build_report", 1e3),
        "cli.outputs_ms": median_duration(spans, "cli.outputs", 1e3),
        "cli.overlay_bytes": med(counts["overlay_bytes"]),
        "ensemble.predict_one_us": median_duration(spans, "ensemble.predict_one", 1e6),
        "ensemble.fit_s": median_duration(spans, "ensemble.fit"),
        "ensemble.cross_validate_s": 0,
        "ensemble.save_model_ms": median_duration(spans, "ensemble.save_model", 1e3),
        "ensemble.load_model_ms": median_duration(spans, "ensemble.load_model", 1e3),
        "ensemble.model_bytes": model_path.stat().st_size,
        "ensemble.tree_nodes": sum(tree.n_nodes for tree in model.trees_),
    }
    for _, _, name in MORPHOLOGY_CALLS:
        values[f"{name}_ms"] = median_duration(spans, name, 1e3)
    return problems, tracer, values, attempted, failed


def run_train(work, seed, seconds, log):
    """Traced ``lungct train`` rounds: read, fit, cross-validate, save, load, predict."""
    tracer = Tracer()
    config = PipelineConfig()
    params = config.classifier_kwargs()
    corpora = inputs.write_train_corpora(work, seed)
    X_held, y_held = inputs.heldout_corpus(seed)
    model_path = work / "model.lctm"

    attempted = failed = 0
    tree_nodes, model_bytes = [], []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        corpus, reference = corpora[attempted % len(corpora)]
        tracer.series = attempted
        with tracer.span("features.read_feature_csv"):
            X, y, patient_ids, _ = read_feature_csv(corpus)
        with tracer.span("ensemble.fit"):
            model = BaggedTreesClassifier(**params).fit(X, y)
        with tracer.span("ensemble.cross_validate"):
            cv = cross_validate(X, y, k=15, seed=config.seed, groups=patient_ids,
                                **{k: v for k, v in params.items() if k != "seed"})
        with tracer.span("ensemble.save_model"):
            save_model(model, model_path)
        with tracer.span("ensemble.load_model"):
            loaded = load_model(model_path)
        tree_nodes.append(sum(tree.n_nodes for tree in model.trees_))
        model_bytes.append(model_path.stat().st_size)
        correct = 0
        for row, label in zip(X_held, y_held):
            with tracer.span("ensemble.predict_one"):
                predicted, _ = loaded.predict_one(row)
            correct += predicted == label
        attempted += 1
        problems = checks.check_training(cv["mean_accuracy"], model_path.read_bytes(), reference,
                                         correct / len(y_held))
        if problems:
            failed += 1
            log(f"traced training {attempted - 1} failed: " + "; ".join(problems))

    spans = tracer.spans
    values = {name: 0 for name, _ in ANALYZE_METRICS}
    values.update({
        "ensemble.predict_one_us": median_duration(spans, "ensemble.predict_one", 1e6),
        "ensemble.fit_s": median_duration(spans, "ensemble.fit"),
        "ensemble.cross_validate_s": median_duration(spans, "ensemble.cross_validate"),
        "ensemble.tree_nodes": statistics.median(tree_nodes),
        "ensemble.save_model_ms": median_duration(spans, "ensemble.save_model", 1e3),
        "ensemble.model_bytes": statistics.median(model_bytes),
        "ensemble.load_model_ms": median_duration(spans, "ensemble.load_model", 1e3),
    })
    return [], tracer, values, attempted, failed
