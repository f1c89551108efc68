"""One benchmark run: load the library from a checkout, run a workload,
collect its metrics, report and operation counts."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from .layer_metrics import UNITS, layer_metrics
from .tracer import Tracer, traced
from .workloads import WORKLOADS, Ledger

LAYERS = (
    "synth",
    "data",
    "autodiff",
    "layers",
    "extended",
    "model",
    "optim",
    "training",
    "oracle",
    "dvceval",
    "textmetrics",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ms_per_video.p50": "ms",
    "sentences_per_s": "sentences/s",
}


class MissingLibrary(Exception):
    pass


def load_library(root: Path) -> dict:
    """The library's modules by layer name, imported from ``root/src``."""
    src = root / "src"
    if not (src / "recipegen" / "__init__.py").is_file():
        raise MissingLibrary(f"no recipegen sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("recipegen")
    if Path(package.__file__).resolve().parent != src / "recipegen":
        raise MissingLibrary(f"recipegen imported from {package.__file__}, not from {src}")
    return {name: importlib.import_module(f"recipegen.{name}") for name in LAYERS}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "recipegen").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(root),
        "src_sha256": sources.hexdigest()[:16],
    }


def run(
    lib: dict, name: str, seed: int, seconds: float, trace: bool, size: dict, workdir: Path
) -> tuple[dict, dict]:
    """Run workload ``name`` and return (result, report).

    Untraced, the measured phase runs units 0, 1, ... until ``seconds`` have
    passed and a whole number of the workload's cycles has run; the result
    holds the end-to-end metrics.  Traced, unit 0 runs
    plain, traced and plain again, and the result holds the per-layer metrics
    of the traced run with the tracing overhead.
    """
    ledger = Ledger()
    workload = WORKLOADS[name](lib, seed, size, workdir)
    tracer = Tracer()
    step = (lambda: traced(lib, tracer)) if trace else contextlib.nullcontext
    setup_s = workload.setup(ledger, step)

    extra = {}
    if trace:
        # plain, traced, plain: the overhead compares the traced unit with the
        # mean of the plain ones around it, in scaled time
        clock = workload.clock
        plain_s = [clock.time(workload.unit, ledger, 0)[1]]
        first_span = len(tracer)
        with traced(lib, tracer):
            _, traced_s, _ = clock.time(workload.unit, ledger, 0)
        plain_s.append(clock.time(workload.unit, ledger, 0)[1])
        overhead = traced_s / statistics.mean(plain_s) - 1.0
        max_len = lib["model"].ModelConfig().max_sentence_len
        values = layer_metrics(tracer, first_span, max_len, overhead)
        units = UNITS
        extra["trace_timing"] = {"spans": len(tracer), "plain_s": plain_s, "traced_s": traced_s}
    else:
        start = time.perf_counter()
        index = 0
        while index % workload.cycle or index == 0 or time.perf_counter() - start < seconds:
            workload.unit(ledger, index)
            index += 1
        values = dict(workload.end_to_end(), setup_s=setup_s)
        units = END_TO_END_UNITS
        extra["wall"] = dict(workload.end_to_end(wall=True), setup_s=workload.setup_wall_s)
    workload.finish(ledger)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "config": workload.config(),
        "dataset_digests": workload.digests,
        "samples": len(workload.samples),
        "setup_s": setup_s,
        "clock_kernel_ms": {
            "reference": 1e3 * workload.clock.REFERENCE_S,
            "median": 1e3 * statistics.median(workload.clock.kernel_times),
            "min": 1e3 * min(workload.clock.kernel_times),
            "max": 1e3 * max(workload.clock.kernel_times),
        },
        "figures": workload.figures(),
        **extra,
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    return result, report
