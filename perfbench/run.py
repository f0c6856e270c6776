"""kgpath benchmark: three seeded workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload {train-toy,infer-dense,scale-retrieve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. The
workload's suite is generated from the seed (outside every timed region) and
cached under ``perfbench/_work``. Set-up runs SETUP_REPEATS times and its
median is reported.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the timed
phase once untraced and then the same operations traced, and prints busy and
self time per layer plus the tracing overhead (traced minus untraced time).
The report goes to stdout; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-toy", "infer-dense", "scale-retrieve")

#: End-to-end metrics every run reports with ``--trace 0``, in the JSON line
#: and the report. On train-toy an operation is one query-step of training
#: for ``qps`` (its train_qps) and one question evaluated by the trained
#: model for ``query_ms_*``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "query_ms_p50": "ms",
}
#: Printed in the report only: on a shared 2-core host its run-to-run spread
#: is too wide for a regression bound.
TAIL = {"query_ms_p95": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_info() -> tuple[str, object]:
    """BLAS library name/version from numpy's build config and the thread
    count the loaded OpenBLAS reports (None when it cannot be asked)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def run_metadata(args, samples: dict[str, int]) -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return percentile(values, 50)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def timed_setup(wl) -> tuple[float, float]:
    """(raw, scaled) seconds of one set-up, after dropping the last one's state."""
    wl.st = None
    gc.collect()
    before = wl.probe.burst()
    t0 = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed * (before + wl.probe.burst()) / 2


def run_phase(wl, tally, seconds=None, like=None):
    """The timed operations: for ``seconds``, or the same amount of work as
    the earlier Measured ``like``."""
    if wl.name == "train-toy":
        return wl.run(tally, seconds=seconds, schedules=1 if like is not None else None)
    if like is not None:
        return wl.run(tally, n_ops=len(like.latency.raw_ms))
    return wl.run(tally, seconds=seconds)


def fmt(value) -> str:
    return "n/a" if value is None or not math.isfinite(value) else f"{value:.6g}"


def clean(value):
    return value if value is not None and math.isfinite(value) else None


def end_to_end(args, suite_dir, workloads) -> tuple[dict, object, dict[str, int], list[str]]:
    wl = workloads.WORKLOADS[args.workload](suite_dir, args.seed)
    setups = [timed_setup(wl) for _ in range(SETUP_REPEATS)]
    tally = workloads.Tally()
    m = run_phase(wl, tally, seconds=args.seconds)
    lat = m.latency
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # (scaled, raw) per metric; the scaled value is the one reported
    values = {
        "setup_s": (median([s for _, s in setups]), median([r for r, _ in setups])),
        "peak_rss_mb": (rss, rss),
        "qps": (m.qps[1], m.qps[0]),
        "query_ms_p50": (percentile(lat.scaled_ms, 50), percentile(lat.raw_ms, 50)),
        "query_ms_p95": (percentile(lat.scaled_ms, 95), percentile(lat.raw_ms, 95)),
    }
    p95 = values["query_ms_p95"][0]
    n_lat = len(lat.raw_ms)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}",
        "peak_rss_mb": "ru_maxrss",
        "qps": f"ops={sum(v for k, v in m.ops.items() if k != 'setup')}",
        "query_ms_p50": f"n={n_lat}",
        "query_ms_p95": f"n={n_lat}, {sum(x > p95 for x in lat.scaled_ms)} beyond",
    }
    lines = [f"{'metric':<16} {'value':>12} {'unit':<14} {'raw':>12}  samples"]
    for name, unit in {**END_TO_END, **TAIL}.items():
        scaled, raw = values[name]
        lines.append(f"{name:<16} {fmt(scaled):>12} {unit:<14} {fmt(raw):>12}  {notes[name]}")
    fail_frac = tally.failed / tally.attempted if tally.attempted else float("nan")
    lines.append(f"{'fail_frac':<16} {fmt(fail_frac):>12} {'ratio':<14} {'':>12}  "
                 f"{tally.failed}/{tally.attempted}")
    for name, (value, unit) in m.quality.items():
        lines.append(f"{name:<16} {fmt(value):>12} {unit:<14}")
    probe = wl.probe.samples
    lines.append(f"speed probe: median {1e3 * median(probe):.4f} ms over {len(probe)} samples; "
                 f"times scale to a host where it takes {1e3 * wl.probe.NOMINAL_S:g} ms")
    metrics = {name: {"value": clean(values[name][0]), "unit": unit}
               for name, unit in END_TO_END.items()}
    samples = {"setup_s": len(setups), "query_ms_p50": n_lat, "query_ms_p95": n_lat,
               "speed_probe": len(probe)}
    return metrics, tally, samples, lines


def traced(args, suite_dir, workloads, spans) -> tuple[dict, object, dict[str, int], list[str]]:
    wl = workloads.WORKLOADS[args.workload](suite_dir, args.seed)
    setup_plain, _ = timed_setup(wl)
    tally = workloads.Tally()
    plain = run_phase(wl, tally, seconds=args.seconds / 2)

    tracer = spans.Tracer()
    spans.instrument_package(tracer)
    wl.tracer = tracer
    try:
        wl.st = None
        gc.collect()
        t0 = time.perf_counter()
        root = tracer.begin("setup")
        wl.setup()
        tracer.end(root)
        setup_traced = time.perf_counter() - t0
        with_trace = run_phase(wl, tally, like=plain)
    finally:
        tracer.uninstall()

    layers = spans.layer_metrics(tracer)
    lines = spans.phase_table(tracer, with_trace.ops)
    lines.append("")
    lines.append(f"{'per-layer metric':<28} {'value':>12} {'unit':<6} note")
    for name, (value, unit, note) in layers.items():
        lines.append(f"{name:<28} {fmt(value):>12} {unit:<6} {note}")
    for kind, i in (("raw", 0), ("scaled", 1)):
        base, traced_s = plain.total_s[i], with_trace.total_s[i]
        pct = 100.0 * (traced_s - base) / base if base > 0 else float("nan")
        lines.append(
            f"trace overhead ({kind}): traced {traced_s:.4f} s - untraced {base:.4f} s"
            f" = {traced_s - base:+.4f} s ({pct:+.2f}%) over the same operations"
        )
    lines.append(f"set-up {setup_traced:.3f} s traced vs {setup_plain:.3f} s untraced; "
                 f"{len(tracer.spans)} spans")
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(trace_path)
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": clean(layers[name][0]), "unit": layers[name][1]}
        for name in spans.COMMON_LAYER_METRICS
    }
    samples = {"spans": len(tracer.spans), "traced_ops": sum(with_trace.ops.values())}
    return metrics, tally, samples, lines


def main(argv=None, smoke: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "kgpath" / "__init__.py").is_file():
        print(f"perfbench: kgpath sources not found under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import suites
    import workloads

    suite_dir = suites.ensure_suite(args.workload, args.seed, smoke=smoke)
    if args.trace:
        metrics, tally, samples, lines = traced(args, suite_dir, workloads, spans)
    else:
        metrics, tally, samples, lines = end_to_end(args, suite_dir, workloads)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print("meta " + json.dumps(run_metadata(args, samples), sort_keys=True))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
