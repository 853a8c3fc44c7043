"""Benchmark of the strongcolor package: a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then colors and verifies them
one at a time for S seconds, checking every result.  The last line of
standard output is the result as one JSON object; the line before it is
the run's full record (machine, digests, counts, sample sizes).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes over the pool alternate untraced and traced, starting untraced, and
the metrics are the per-layer self times and work counts; the spans are
written to ``.perfbench_out/<workload>.spans.bin``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracer import BOUNDARIES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "strongcolor"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# Set-up (import, input generation, file writing) is repeated and the
# median reported, so one slow import or cold file cache does not decide it.
SETUP_REPEATS = 3

# per-layer counts, totalled over the first traced pass (deterministic)
LAYER_COUNTS = (
    "graph.cycle_search.calls",
    "conflict.build.calls",
    "conflict.entries",
    "conflict.available.calls",
    "matching.sdr.calls",
    "solver.peeled_edges",
    "solver.c4_extensions",
    "solver.c6_extensions",
    "solver.long_cycle_extensions",
    "solver.k23_base_cases",
    "solver.sdr_calls",
    "solver.fallback_uses",
    "fileio.bytes_read",
    "fileio.bytes_written",
)


class SetupError(Exception):
    """The checkout does not hold a package the benchmark can run."""


def import_package():
    """Import the package from this checkout's ``src``, afresh."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        sc = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if Path(sc.__file__).resolve().parent != SRC / PACKAGE:
        raise SetupError(f"{PACKAGE} was imported from {sc.__file__}, not from {SRC}")
    modules = {m.split(".")[-1]: mod for m, mod in sys.modules.items()
               if m == PACKAGE or m.startswith(PACKAGE + ".")}
    return sc, modules


def setup(wl, seed: int, workdir: Path):
    """Import and generate SETUP_REPEATS times; keep the last pool."""
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPEATS):
        pool = None  # let the previous pool go before building the next
        t0 = perf_counter()
        sc, modules = import_package()
        t1 = perf_counter()
        pool = wl.generate(sc, seed, workdir)
        t2 = perf_counter()
        setup_s.append(t2 - t0)
        generate_s.append(t2 - t1)
    return sc, modules, pool, statistics.median(setup_s), statistics.median(generate_s)


@dataclass
class Loop:
    color_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    pass_ends: list = field(default_factory=list)  # len(color_s) after each whole pass

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def run_ops(wl, sc, pool, first, seconds: float, min_passes=1, on_pass_end=None) -> Loop:
    """Color then verify instance after instance: ``min_passes`` whole
    passes over the pool, then on until ``seconds`` have passed.

    ``first[i]`` holds instance i's first output and whether the
    independent check accepted it; it is filled on first sight.
    ``on_pass_end(k)`` is called when k whole passes are done.
    """
    loop = Loop()
    deadline = perf_counter() + seconds
    i = 0
    while i < min_passes * len(pool) or perf_counter() < deadline:
        idx = i % len(pool)
        inst = pool[idx]
        i += 1
        loop.attempted += 1
        try:
            t0 = perf_counter()
            res = wl.color(sc, inst)
            t1 = perf_counter()
            out = wl.output(inst, res)
        except Exception as exc:  # a failed op is counted, not fatal
            loop.fail(f"color {idx}: {exc!r}")
        else:
            loop.color_s.append(t1 - t0)
            loop.items += inst.items
            if first[idx] is None:
                ok, text = wl.check(inst, out)
                first[idx] = (out, ok, text)
            own = first[idx][1] and out == first[idx][0]
            loop.attempted += 1
            accepted = None
            try:
                t2 = perf_counter()
                accepted = wl.verify(sc, inst, res)
                t3 = perf_counter()
                loop.verify_s.append(t3 - t2)
            except Exception as exc:  # a failed op is counted, not fatal
                loop.fail(f"verify {idx}: {exc!r}")
            if not (own and accepted):
                loop.fail(f"color {idx}: own check {own}, verify accepted {accepted}")
            if accepted is not None and accepted != own:
                loop.fail(f"verify {idx}: accepted {accepted}, own check {own}")
        if i % len(pool) == 0:
            loop.pass_ends.append(len(loop.color_s))
            if on_pass_end is not None:
                on_pass_end(i // len(pool))
    return loop


def p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[8]


def digest(first) -> str:
    h = hashlib.sha256()
    for entry in first:
        h.update(entry[2].encode() if entry else b"")
        h.update(b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    commit = dirty = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = ["git", "-C", str(ROOT)]
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
    src = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup_s: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "color_s.p50": metric(statistics.median(loop.color_s), "s"),
        "color_s.p90": metric(p90(loop.color_s), "s"),
        "verify_s.p50": metric(statistics.median(loop.verify_s), "s"),
        "verify_s.p90": metric(p90(loop.verify_s), "s"),
        "color_items_per_s": metric(loop.items / sum(loop.color_s), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def split_passes(loop: Loop):
    """Color times of the even (untraced) and odd (traced) passes."""
    bounds = [0] + loop.pass_ends + [len(loop.color_s)]
    even, odd = [], []
    for k in range(len(bounds) - 1):
        (odd if k % 2 else even).extend(loop.color_s[bounds[k]:bounds[k + 1]])
    return even, odd


def per_layer(tracer: Tracer, counts: dict, loop: Loop,
              generate_s: float, peak_alloc: float) -> dict:
    untraced, traced = split_passes(loop)
    ops = len(traced)
    selfs = tracer.self_times()
    # "<label>_s": the layer's self seconds per instance
    out = {f"{label}_s": metric(selfs.get(label, 0.0) / ops, "s")
           for label in dict.fromkeys(b[2] for b in BOUNDARIES)}
    out.update({name: metric(counts.get(name, 0), "count") for name in LAYER_COUNTS})
    carved = sum(counts.get(f"solver.{k}", 0) for k in
                 ("c4_extensions", "c6_extensions", "long_cycle_extensions", "k23_base_cases"))
    out.update({
        "graph.cycle_search.hit_ratio": metric(
            ratio(counts.get("graph.cycle_search.hits", 0),
                  counts.get("graph.cycle_search.calls", 0)), "ratio"),
        "matching.sdr.success_ratio": metric(
            ratio(counts.get("matching.sdr.hits", 0), counts.get("matching.sdr.calls", 0)),
            "ratio"),
        "solver.fallback_ratio": metric(
            ratio(counts.get("solver.fallback_uses", 0),
                  counts.get("solver.c4_extensions", 0) + counts.get("solver.c6_extensions", 0)),
            "ratio"),
        "solver.carved_per_solve": metric(
            ratio(carved, counts.get("solver.self.calls", 0)), "ratio"),
        "solver.peak_alloc_mb": metric(peak_alloc, "MB"),
        "generate.s": metric(generate_s, "s"),
        "bench.trace_overhead_s": metric(
            statistics.median(traced) - statistics.median(untraced), "s"),
    })
    return out


def peak_alloc_mb(wl, sc, pool) -> float:
    """tracemalloc peak of one color op on the largest instance."""
    inst = max(pool, key=lambda i: i.items)
    tracemalloc.start()
    try:
        wl.color(sc, inst)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench(wl, seed: int, seconds: float, trace: bool, workdir: Path):
    sc, modules, pool, setup_s, generate_s = setup(wl, seed, workdir)
    gc.collect()
    gc.freeze()  # the input pool is the harness's, not the program's: keep it out of GC scans
    first = [None] * len(pool)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "instances": len(pool),
              "setup_repeats": SETUP_REPEATS}
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints violations
        if not trace:
            loop = run_ops(wl, sc, pool, first, seconds)
            metrics = end_to_end(loop, setup_s)
        else:
            tracer = Tracer()
            counts: dict = {}

            def on_pass_end(done: int) -> None:
                # Passes alternate: 0, 2, 4, ... untraced, 1, 3, ... traced, so the
                # overhead compares ops from the same stretch of the run.
                if done % 2:
                    tracer.install(modules)
                else:
                    tracer.uninstall()
                    if done == 2:
                        counts.update(tracer.counts)

            try:
                loop = run_ops(wl, sc, pool, first, seconds, 2, on_pass_end)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, counts, loop, generate_s, peak_alloc_mb(wl, sc, pool))
            OUT_DIR.mkdir(exist_ok=True)
            record["spans"] = tracer.write(OUT_DIR / f"{wl.name}.spans.bin")
            record["counts"] = dict(sorted(counts.items()))
    attempted, failed = loop.attempted, loop.failed
    record.update({
        "machine": machine(),
        "coloring_sha256": digest(first),
        "samples": {"color": len(loop.color_s), "verify": len(loop.verify_s)},
        "fail_frac": failed / attempted,
        "passes": len(loop.pass_ends),
        "errors": loop.errors,
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        record, result = bench(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only if no other run is using it
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
