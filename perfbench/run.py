#!/usr/bin/env python3
"""lungct benchmark: whole-series analysis and training, timed from outside.

    python3 perfbench/run.py --workload analyze-serial --seed 1 --seconds 30 --trace 0

Makes the workload's inputs from the seed, then runs whole rounds of one
set-up probe (a fresh interpreter importing lungct) and one
``python -m lungct.cli`` call (``src`` on PYTHONPATH, a fresh output folder
per call) until ``--seconds`` have passed, and checks every output apart from
the program. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` is a separate in-process run that gives
the per-layer metrics and writes its spans to perfbench/work/traces/.
A summary goes to standard error.
"""

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

WORKLOADS = ("analyze-serial", "analyze-parallel", "train")
THREADS = {"analyze-serial": 1, "analyze-parallel": 2}
CALL_TIMEOUT_S = 120
SETUP_PROBE = (
    "import sys\n"
    "import lungct.cli\n"
    "if len(sys.argv) > 1:\n"
    "    lungct.cli.load_model(sys.argv[1])\n"
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def _env():
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_python(args, cwd, output_path):
    """Run a fresh interpreter; returns (exit code or None on timeout, wall seconds, peak MB).

    The peak resident set comes from this one process's own wait4 rusage, so
    it covers the process and the children it waited for (lungct's pool
    workers) and no other call of the run.
    """
    timed_out = []

    def kill():
        timed_out.append(True)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    with open(output_path, "wb") as out:
        start = time.perf_counter()
        # A session of its own, so a timeout also kills lungct's pool workers.
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CALL_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return code, wall, usage.ru_maxrss * 1024 / 1e6


def setup_probe(work, model_path=None):
    """Wall seconds for a fresh interpreter to import lungct (and load the model)."""
    args = ["-c", SETUP_PROBE] + ([str(model_path)] if model_path else [])
    code, wall, _ = run_python(args, work, work / "setup.out")
    if code != 0:
        raise RuntimeError("importing lungct failed:\n" + (work / "setup.out").read_text())
    return wall


def lungct_call(args, work):
    """One ``python -m lungct.cli`` call; returns (exit code, wall s, peak MB, its output)."""
    code, wall, peak_mb = run_python(["-m", "lungct.cli", *args], work, work / "call.out")
    return code, wall, peak_mb, (work / "call.out").read_text(errors="replace")


def timed_rounds(seconds, setup, operation):
    """Whole rounds of ``setup()`` and ``operation(k)`` until ``seconds`` have passed.

    ``setup()`` gives one set-up time; ``operation(k)`` gives (wall, peak MB,
    problems, quality) of one call. The set-up probes run between the calls,
    so both see the machine over the same stretch of time. Returns the
    end-to-end metrics, the calls attempted and the calls failed.
    """
    setups, walls, peaks, qualities, failed = [], [], [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setups.append(setup())
        wall, peak_mb, problems, quality = operation(len(walls))
        walls.append(wall)
        peaks.append(peak_mb)
        if problems:
            failed += 1
            log(f"call {len(walls) - 1} failed: " + "; ".join(problems))
        else:
            qualities.append(quality)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "call_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(peaks), "MB"),
        "quality": (statistics.median(qualities) if qualities else 0.0, "ratio"),
    }
    return metrics, len(walls), failed


def timed_analyze(work, seed, seconds, threads):
    import checks
    import inputs

    series = inputs.make_series(work / "series", seed)
    setup_problems = inputs.round_trip_problems(series)
    model = work / "model.lctm"
    inputs.make_model(model)
    allowed = checks.allowed_overlay_regions(series)

    def analyze(out, threads):
        return lungct_call(["analyze", str(series.directory), "--model", str(model),
                            "--out", str(out), "--threads", str(threads)], work)

    reference = None
    if threads > 1:
        code, _, _, output = analyze(work / "reference", 1)
        if code != 0:
            setup_problems.append(f"--threads 1 reference call exited with {code}: {output[-400:]}")
        reference = (work / "reference" / series.patient_id / "report.json").read_bytes() \
            if code == 0 else b""

    def operation(k):
        out = work / "out" / str(k)
        code, wall, peak_mb, output = analyze(out, threads)
        if code != 0:
            return wall, peak_mb, [f"exit code {code}: {output[-400:]}"], None
        problems, recall = checks.check_analysis(out / series.patient_id, series, allowed,
                                                 reference)
        shutil.rmtree(out)
        return wall, peak_mb, problems, recall

    return (setup_problems,
            *timed_rounds(seconds, lambda: setup_probe(work, model), operation))


def timed_train(work, seed, seconds):
    import checks
    import inputs

    from lungct.ensemble import load_model

    corpora = inputs.write_train_corpora(work, seed)
    X_held, y_held = inputs.heldout_corpus(seed)
    model_path = work / "model.lctm"

    def operation(k):
        corpus, reference = corpora[k % len(corpora)]
        model_path.unlink(missing_ok=True)
        code, wall, peak_mb, output = lungct_call(["train", str(corpus), "--out", str(model_path)],
                                                  work)
        if code != 0:
            return wall, peak_mb, [f"exit code {code}: {output[-400:]}"], None
        accuracy = float((load_model(model_path).predict(X_held) == y_held).mean())
        problems = checks.check_training(checks.cv_accuracy(output), model_path.read_bytes(),
                                         reference, accuracy)
        return wall, peak_mb, problems, accuracy

    return ([], *timed_rounds(seconds, lambda: setup_probe(work), operation))


def traced_run(work, workload, seed, seconds):
    import traced as traced_runs

    run = traced_runs.run_train if workload == "train" else traced_runs.run_analyze
    problems, tracer, values, attempted, failed = run(work, seed, seconds, log)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(trace_dir / f"{workload}-seed{seed}.jsonl")
    metrics = {name: (values[name], unit) for name, unit in traced_runs.PER_LAYER_METRICS}
    return problems, metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "lungct" / "__init__.py").is_file():
        log(f"error: lungct sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            problems, metrics, attempted, failed = traced_run(work, args.workload, args.seed,
                                                          args.seconds)
        elif args.workload == "train":
            problems, metrics, attempted, failed = timed_train(work, args.seed, args.seconds)
        else:
            problems, metrics, attempted, failed = timed_analyze(
                work, args.seed, args.seconds, THREADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        log(f"setup check failed: {problem}")
    for name, (value, unit) in metrics.items():
        log(f"{args.workload} {name} = {value:.6g} {unit}")
    log(f"{args.workload}: attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
