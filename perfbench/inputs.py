"""The benchmark's inputs, all made from the workload seed.

analyze-serial and analyze-parallel: one phantom series from
``lungct.phantom.make_phantom_series`` (phantom seed = workload seed),
written as DICOM by ``dicomwrite``, plus a fixed model trained on a
500-row synthetic corpus (corpus seed 0). train: feature CSVs from
``make_feature_corpus`` (see :func:`write_train_corpora`) and a held-out
corpus from another seed.

Regenerate the inputs of one seed without running anything:

    python3 perfbench/inputs.py --seed 7 --out perfbench/work/inputs-7
"""

import argparse
import contextlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dicomwrite  # noqa: E402

from lungct.ensemble import BaggedTreesClassifier, save_model
from lungct.features import read_feature_csv, write_feature_csv
from lungct.ingest import load_series
from lungct.phantom import make_feature_corpus, make_phantom_series

SERIES_SLICES = 12
SLICE_SIZE = 512
TUMOUR_SLICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
DISTRACTOR_SLICES = (0, 11)
# Distinct row and column spacing so a swapped pair shows in the volume check.
THICKNESS_MM = 1.25
SPACING_MM = (0.68, 0.74)

MODEL_CORPUS_ROWS = 500
MODEL_CORPUS_SEED = 0
TRAIN_ROWS = 3000
# Training time follows the trees' size, which varies by corpus (node counts
# of corpus seeds 301-320 have a 15 % quartile spread), so a train run trains
# on several corpora in turn and its median is not set by one of them.
TRAIN_CORPORA = 5
HELDOUT_ROWS = 1000
HELDOUT_SEED_OFFSET = 1_000_003


@dataclass
class SeriesInput:
    """A written series and the geometry the phantom planted in it."""

    directory: Path
    patient_id: str
    slices: np.ndarray
    tumour_slices: tuple
    tumour_center: tuple
    tumour_radius: int
    thickness_mm: float
    spacing_mm: tuple

    def disk(self):
        """Boolean image of the planted tumour disk (same on every tumour slice)."""
        h, w = self.slices.shape[1:]
        ys, xs = np.ogrid[:h, :w]
        cx, cy = self.tumour_center
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= self.tumour_radius ** 2


def _nospan(name):
    return contextlib.nullcontext()


def make_series(root, seed):
    """Generate the phantom series of ``seed`` and write it as DICOM under ``root``."""
    slices, truth = make_phantom_series(
        n_slices=SERIES_SLICES,
        size=SLICE_SIZE,
        tumour_slices=TUMOUR_SLICES,
        distractor_slices=DISTRACTOR_SLICES,
        seed=seed,
    )
    patient_id = f"PH{seed}"
    directory = Path(root) / patient_id
    dicomwrite.write_series(directory, slices, patient_id, THICKNESS_MM, SPACING_MM,
                            uid_stem=f"2.25.{seed + 1}")
    return SeriesInput(
        directory=directory,
        patient_id=patient_id,
        slices=slices,
        tumour_slices=tuple(truth["tumour_slices"]),
        tumour_center=tuple(truth["tumour_center"]),
        tumour_radius=int(truth["tumour_radius"]),
        thickness_mm=THICKNESS_MM,
        spacing_mm=SPACING_MM,
    )


def round_trip_problems(series: SeriesInput):
    """What ``load_series`` gets wrong about the written series (empty if nothing)."""
    loaded = load_series(series.directory)
    problems = []
    if loaded.patient_id != series.patient_id:
        problems.append(f"patient id {loaded.patient_id!r} != {series.patient_id!r}")
    if loaded.slices.shape != series.slices.shape or not np.array_equal(loaded.slices, series.slices):
        problems.append("load_series does not return the phantom's gray stack")
    if loaded.slice_thickness_mm != series.thickness_mm:
        problems.append(f"thickness {loaded.slice_thickness_mm} != {series.thickness_mm}")
    if tuple(loaded.pixel_spacing_mm) != tuple(series.spacing_mm):
        problems.append(f"spacing {loaded.pixel_spacing_mm} != {series.spacing_mm}")
    if loaded.instance_numbers != list(range(1, len(series.slices) + 1)):
        problems.append("instance numbers out of order")
    return problems


def make_model(path, span=_nospan):
    """Train the analyze workloads' classifier and save it to ``path``."""
    X, y, _, _ = make_feature_corpus(MODEL_CORPUS_ROWS, seed=MODEL_CORPUS_SEED)
    with span("ensemble.fit"):
        model = BaggedTreesClassifier(seed=0).fit(X, y)
    with span("ensemble.save_model"):
        save_model(model, path)


def write_corpus(path, seed):
    X, y, patient_ids, slice_indices = make_feature_corpus(TRAIN_ROWS, seed=seed)
    write_feature_csv(path, [
        (patient_ids[i], slice_indices[i], *X[i], int(y[i])) for i in range(len(y))
    ])


def heldout_corpus(seed):
    X, y, _, _ = make_feature_corpus(HELDOUT_ROWS, seed=seed + HELDOUT_SEED_OFFSET)
    return X, y


def reference_model_bytes(corpus_path, scratch_path):
    """Model file bytes of an in-process training with lungct's default settings."""
    X, y, _, _ = read_feature_csv(corpus_path)
    save_model(BaggedTreesClassifier().fit(X, y), scratch_path)
    return Path(scratch_path).read_bytes()


def write_train_corpora(work, seed):
    """Write the corpora a train run trains on in turn, corpus seeds
    ``TRAIN_CORPORA * seed + j``, under ``work``: [(CSV path, reference model bytes)]."""
    corpora = []
    for j in range(TRAIN_CORPORA):
        path = Path(work) / f"corpus-{j}.csv"
        write_corpus(path, TRAIN_CORPORA * seed + j)
        corpora.append((path, reference_model_bytes(path, Path(work) / "reference.lctm")))
    return corpora


def main(argv=None):
    parser = argparse.ArgumentParser(description="write the benchmark inputs of one seed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = make_series(out / "series", args.seed)
    make_model(out / "model.lctm")
    write_train_corpora(out, args.seed)
    print(f"series {series.directory} (tumour slices {list(series.tumour_slices)}, "
          f"centre {series.tumour_center}, radius {series.tumour_radius})")
    print(f"model {out / 'model.lctm'}; train corpora {out}/corpus-*.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
