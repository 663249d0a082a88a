"""The pipeline's outputs, pinned by SHA-256.

``analyze`` and ``extract-features`` run on PGM phantom series: the
benchmark's layout (12 slices, a tumour on 1-10, distractors on 0 and 11)
for three seeds, and a 3-slice series without tumour. One more series is
written as DICOM: signed 16-bit stored values under a rescale other than
the identity, with a slice thickness and pixel spacing other than the
config's defaults, so windowing, rescale and geometry are pinned. Every
file they write but the volatile ``run_meta.json`` must hash to the value
recorded here, with the default worker count and with ``--threads 1``. A
change that alters an output on purpose updates these digests and says why.
"""

import hashlib

import numpy as np
import pytest

from lungct.cli import main
from lungct.config import DEFAULTS
from lungct.ensemble import BaggedTreesClassifier, save_model
from lungct.phantom import make_feature_corpus, make_phantom_series, write_series_pgm

from _dicom_fixture import build_dicom

_BENCHMARK_LAYOUT = dict(n_slices=12, size=512, tumour_slices=tuple(range(1, 11)),
                         distractor_slices=(0, 11))
SERIES = {
    "BENCH1": dict(_BENCHMARK_LAYOUT, seed=1),
    "BENCH8": dict(_BENCHMARK_LAYOUT, seed=8),
    "BENCH25": dict(_BENCHMARK_LAYOUT, seed=25),
    "CLEAR5": dict(n_slices=3, tumour_slices=(), seed=5),
    "DICOM3": dict(n_slices=4, size=512, tumour_slices=(1, 2), distractor_slices=(0, 3), seed=3),
}
# The series written as DICOM: a rescale and a geometry other than the defaults.
DICOM = {"DICOM3": dict(slope=0.5, intercept=-24.0, thickness=2.5, spacing=(0.7, 0.75))}

# Per series (the folder name, so the patient id): file -> SHA-256.
DIGESTS = {
    "BENCH1": {
        "features.csv": "9aa4e0559c8bfe64128d5cb6540b74f33a3e08ced247e6a38955384cff6bc01e",
        "report.json": "21113a3f80ce2b88b951b963a60c323e3f7b9273891f0f25ed3e60d0168c1e0a",
        "report.txt": "c7ed7b3c5a8ec10e684f204684287e37e2f38130aaf0ce5612822ef52cdecc6c",
        "slice_001_overlay.pgm": "01c9fd7b7548677a1a8b976c1f7e844eb688a12f63a4e1dbbe77f8181758306e",
        "slice_002_overlay.pgm": "054d5af2d13243ca1a5e2299e1bb6b5eaac30537e7ff0fe17255d2af9595952a",
        "slice_003_overlay.pgm": "9e0bf57dcea25d49f314b39370b99043e219fcbc33e44d9aa3e698a3cac0d571",
        "slice_004_overlay.pgm": "ddc0b95bf4b03001d433758f356198ba6538bb49c8d29ea510bed3f43ce52192",
        "slice_005_overlay.pgm": "1cc8a26d498f21c3f42872056c95e8a1c6180a1a337a2423dda678b44d406a6e",
        "slice_006_overlay.pgm": "99586e30cf6bcfea7fefb4e5632b434386e85c0dffda31b8129ffe22ec1ee479",
        "slice_007_overlay.pgm": "6a1c9814e08d6de6d39d87b98a384ab610f36226f77ef25ff0b6a14bf956f8cf",
        "slice_008_overlay.pgm": "8be3a1a085354272f568f0863b879648df5c4a82ebda6653e195c04eeae43eee",
        "slice_009_overlay.pgm": "6af388126450be49b4ada074f2aa8948d5a5c67c34a40842a62b00284197e5c7",
        "slice_010_overlay.pgm": "1f39ac66aa79e61ced08783486ef28df32222f689988bf78f7362545d6820ebe",
    },
    "BENCH8": {
        "features.csv": "a1f447d8e6b4d693bc6298df8c0c43728e9d163818011cae185cf3a7b9f2b207",
        "report.json": "358e6289d7590412a9fa1ec49a3e80fa69a1fba4c957a487eeaa0467690b25e1",
        "report.txt": "bf220b6245f12bba5d917aea94e9ddbbd98f97b1ffa0d377a5a1213bb7721d1a",
        "slice_001_overlay.pgm": "62010d8b0a5a2ec642c197341baf9085ddaf4a6ed4678f066bc43c7a2a894fa4",
        "slice_002_overlay.pgm": "ca82e7105c4f2a9770698ba6b21efd4efb4cded8263daf9a496a1eb3110eabe9",
        "slice_003_overlay.pgm": "66831e16ac8539cfd5009a0245fe4230814b82ba619e1186bfd60aa87458abec",
        "slice_004_overlay.pgm": "6ef96253420b39aff9d78fa24258afca55056fe606709f5ddb1c9edb293c2d5e",
        "slice_005_overlay.pgm": "3dc058c10314171ae51bfa7122e52843d1e31867cb598b83141e398a1cfe1fa9",
        "slice_006_overlay.pgm": "9c78deccd5ad7eeef817146ffd6abc01f0f427472de6b8c28dd418f008d2c7eb",
        "slice_008_overlay.pgm": "54afdaec9e9eb991c5df22555f17ec1c6d2355b0baaec782d4c5fe1140851d2a",
        "slice_009_overlay.pgm": "9767f3dbfc708781b5150a5369b8b3c036dd343b9354735a676354a7b987509f",
        "slice_010_overlay.pgm": "ff46f1cb923d2dc80da8e0dda84e32c569dac33b9140c9d4b72d7246369b73fc",
    },
    "BENCH25": {
        "features.csv": "71768a4dedbf5a14a7f4829fea18632e4da5093b5dd9b5de52245903c95dcb82",
        "report.json": "c645b240d6060905a0aac77a2888eccc57eb3b938f47042b7ee3b24cd387e237",
        "report.txt": "25fc4fa1fc85862a23306acee4917c5d9459a44fc8b15b748fa93993518a1fcd",
        "slice_001_overlay.pgm": "b42faaa8fa7fe4fb96b9ae12cf2b0d4e9afd4be86ccd59c3ad6c6a11ef8ed5bf",
        "slice_003_overlay.pgm": "1b27b8fd12e5b133d5165299fc85261fc5096503cceb5da455e3b2e8fc6c6b6f",
        "slice_004_overlay.pgm": "fe43e6f5fae108446ce0798475e8ad6379b04ebfd1f448b6130b43c42333c7cd",
        "slice_005_overlay.pgm": "386a8999591d858b8b51a9354160ab0741794b1a73d5337d11196506dce4568f",
        "slice_006_overlay.pgm": "9994aeffc7094af225e0e74b88da0c07186671bb4266f203446e9555aff6e0bb",
        "slice_007_overlay.pgm": "f92538d2451d4f36f5a68101261cf04f7fb8d5deebddd57074617239bdf9bc7a",
        "slice_008_overlay.pgm": "7691b41e9bf6f628f03972891d805d65f6a8d1a977bd9379ff376cbf04bc1dfd",
        "slice_009_overlay.pgm": "23d531112bb54f293ec02c2c69d5f8bc990e48e52775ae918427a44182f85a7a",
        "slice_010_overlay.pgm": "d8b19d27cdc093b2abecf58c97407d2271e0613f1fb9b0362284da6461d899c6",
    },
    "CLEAR5": {
        "features.csv": "7ce4ad209bf3ce7ffbce60027eab87c6ac0d363996c728ff1cb3a2c814e0e9b8",
        "report.json": "374e6c5833a916814b8e1431e99e6bcaff61fd0ad8ede9142ede9cdcf91b7672",
        "report.txt": "e6bce220f2936d1aad6150d1c443de47816656df3693ca56f6c19dfd00fb7f84",
    },
    "DICOM3": {
        "features.csv": "784473bee27425a418afae5bf37d4bee29cf9b77e7e4fcda26042b0be6bf3285",
        "report.json": "f07d41649c5afbc0695ac825dcd6f9847fda85463b8f2dddc7ac5bfc605b6221",
        "report.txt": "31160b4f70907369fa7ab01807944dc9ce790a4a739db37ce25794c4b9c86d29",
        "slice_001_overlay.pgm": "b5158736d0eca1c48c3d9ad7c3e847b08d5f49d396e32bb07e95da914926b848",
        "slice_002_overlay.pgm": "9af814acea0926ff8e3952e3921dd3f089a34c09e9c5d5e1bfccaa23c873c5ac",
    },
}


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """The benchmark's analyze model: default settings on a 500-row corpus."""
    path = tmp_path_factory.mktemp("model") / "classifier.lctm"
    X, y, _, _ = make_feature_corpus(500, seed=0)
    save_model(BaggedTreesClassifier(seed=0).fit(X, y), path)
    return path


@pytest.fixture(scope="module")
def series_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("series")
    for name, layout in SERIES.items():
        slices = make_phantom_series(**layout)[0]
        if name in DICOM:
            _write_series_dicom(root / name, slices, patient_id=name, **DICOM[name])
        else:
            write_series_pgm(root / name, slices)
    return root


def _write_series_dicom(directory, slices, patient_id, slope, intercept, **geometry):
    """Each gray slice as signed stored values that the default window maps back onto it."""
    directory.mkdir()
    low = DEFAULTS.window_center - DEFAULTS.window_width / 2.0
    for i, gray in enumerate(slices):
        hu = gray.astype(np.float64) * DEFAULTS.window_width / 255.0 + low
        stored = np.floor((hu - intercept) / slope + 0.5).astype(np.int16)
        (directory / f"IM{i:04d}.dcm").write_bytes(build_dicom(
            rows=gray.shape[0], cols=gray.shape[1], pixels=stored.ravel(), patient_id=patient_id,
            instance=i + 1, slope=slope, intercept=intercept, pixel_representation=1, **geometry))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", [[], ["--threads", "1"]], ids=["default", "threads1"])
@pytest.mark.parametrize("name", sorted(SERIES))
def test_outputs_match_recorded_digests(name, threads, series_dirs, model_file, tmp_path):
    series = series_dirs / name
    assert main(["analyze", str(series), "--model", str(model_file), "--out", str(tmp_path),
                 *threads]) == 0
    assert main(["extract-features", str(series), "--out", str(tmp_path / "features.csv"),
                 *threads]) == 0
    written = {path.name: _sha256(path) for path in (tmp_path / name).iterdir()
               if path.name != "run_meta.json"}
    written["features.csv"] = _sha256(tmp_path / "features.csv")
    assert written == DIGESTS[name]
