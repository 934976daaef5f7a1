#!/usr/bin/env python3
"""tiltlab benchmark: one workload as a single-client closed loop.

    python3 perfbench/run.py --workload exact_iid --seed 1 --seconds 20 --trace 0

One process runs one job at a time, with BLAS/OpenMP pools capped at the
number of usable cores.  After one untimed warm-up pass the job list runs in
timed passes until --seconds have gone by, and the oracle checks every job's
output.  A calibration kernel, timed before each job, gauges the shared
host's speed; the gated times are in seconds of a reference host.  The
tiltlab under test is the one in src/ beside this directory.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, then probes each layer's public functions on their own,
reports the per-layer metrics and writes the spans to .perfbench_out/.

--record-reference rewrites reference.json from the current code.  The
benchmark's own tests, a toy-size smoke run of every workload among them,
run with `pytest perfbench`.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed for setup_s, spread over the timed window; the
#: median is reported
SETUP_SAMPLES = 11
#: seconds the calibration kernel takes on the reference host, a 2.1 GHz
#: Intel Xeon vCPU; it sets the scale of reference-host seconds
CALIBRATION_REF_S = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI_COMMANDS = ("tilt", "rate", "approx", "guesswork", "typical", "verify")


def cap_threads() -> None:
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores


def import_workloads():
    """Import the benchmark's workloads against the tiltlab in ROOT/src."""
    if not (SRC / "tiltlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tiltlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    if SRC not in Path(workloads.tl.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported tiltlab from {workloads.tl.__file__}, not {SRC}")
    return workloads


class Tally:
    """Jobs attempted and failed (raised, or rejected by the oracle)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, job_name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job_name}: {p}" for p in problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@functools.cache
def calibration_values():
    import numpy as np  # not at the top: set-up probes time the numpy import

    return np.random.default_rng(0).random(250_000), np.array([0.2, 0.3, 0.5])


def calibrate() -> float:
    """Seconds that fixed work outside tiltlab takes now: a gauge of the
    shared host's speed at this moment.  The work mixes what the jobs do,
    mostly a stable sort of an array larger than the core's cache, as in
    the rank-table build, then floats formatted as text and numpy calls on
    tiny arrays, as in the CSV encoding and the rate solver."""
    import numpy as np

    values, probs = calibration_values()
    start = time.perf_counter()
    values.argsort(kind="stable")
    ",".join(repr(float(v)) for v in values[:4_000])
    for _ in range(1_000):
        float(np.dot(np.exp(probs * 0.5), probs))
    return time.perf_counter() - start


def run_pass(W, jobs, reference: dict, tracer, tally: Tally, host_samples=None) -> dict:
    """Run each job once and check its output after its timer stops.  With
    a `host_samples` list, time the calibration kernel into it before each job.

    Returns the seconds each job took.
    """
    state: dict = {}
    seconds = {}
    for job in jobs:
        gc.collect()  # no job pays for the garbage of the one before it
        if host_samples is not None:
            host_samples.append(calibrate())
        start = time.perf_counter()
        try:
            with tracer.span(f"job.{job.name}"):
                output = job.run(tracer, state)
        except Exception:  # a job that raises counts as failed; the run goes on
            seconds[job.name] = time.perf_counter() - start
            tally.record(job.name, [traceback.format_exc(limit=3)])
            continue
        seconds[job.name] = time.perf_counter() - start
        tally.record(job.name, W.fingerprint_mismatches(job, output, reference.get(job.name)))
        del output
    return seconds


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def load_reference(W, scale: str) -> dict:
    return json.loads(REFERENCE.read_text())[scale]


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def run_probe(workload: str, seed: int) -> float:
    """Seconds to set up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.splitlines()[-1])


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    W = import_workloads()
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        W.setup(workload, seed, "full", workdir, NullTracer())
        print(time.perf_counter() - start)
    finally:
        remove_workdir(workdir)


def timed_passes(W, workload, seed, jobs, reference, tally, seconds: float):
    """Timed passes until `seconds` have gone by, with the calibration
    kernel timed before each job.  Between passes, set-up probes in fresh
    interpreters keep pace with the clock, so that their SETUP_SAMPLES
    samples span the window as the passes do."""
    passes, hosts, setups = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(W, jobs, reference, NullTracer(), tally, hosts))
        share = min((time.perf_counter() - start) / seconds, 1.0)
        while len(setups) < math.ceil(SETUP_SAMPLES * share):
            setups.append(run_probe(workload, seed))
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_probe(workload, seed))
    return passes, hosts, setups


def pass_seconds(jobs, passes: list) -> float:
    """The sum over jobs of each job's median over the passes, so that a
    slow spell in one job does not move the others."""
    return sum(statistics.median(p[j.name] for p in passes) for j in jobs)


def end_to_end(jobs, passes, hosts, setups, peak_kb: int) -> tuple[dict, dict]:
    """The gated metrics, and the figures the report prints beside them.

    The gated times are in reference-host seconds: seconds as measured,
    times the run's host speed, CALIBRATION_REF_S over the median time of
    the calibration kernel in the run.  The shared host's speed drifts by
    more than the bounds over minutes, and the kernel follows that drift."""
    speed = CALIBRATION_REF_S / statistics.median(hosts)
    wall = pass_seconds(jobs, passes)
    table_jobs = [j for j in jobs if j.strings]
    strings_per_s = sum(j.strings for j in table_jobs) / pass_seconds(table_jobs, passes)
    gated = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref_s": (wall * speed, "ref_s"),
        "rank_strings_per_ref_s": (strings_per_s / speed, "strings/ref_s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    printed = {
        "wall_s": (wall, "s"),
        "rank_strings_per_s": (strings_per_s, "strings/s"),
        "host_speed": (speed, "ratio"),
    }
    if any(j.name == "verify_quick" for j in jobs):
        printed["verify_quick_s"] = (statistics.median(p["verify_quick"] for p in passes), "s")
    return gated, printed


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def probe_layers(W, jobs, tracer: Tracer) -> None:
    """Call each layer's public functions on their own, outside the passes:
    the library calls behind every CLI job; then, for every rank table built,
    enumeration alone (timed), and the peak allocation of enumeration and of
    the whole build."""
    for job in jobs:
        if job.probe is not None:
            with tracer.span(f"probe.{job.name}"):
                job.probe(tracer)
    for source, n, budget in list(tracer.builds):
        size = len(source.alphabet) ** n
        with tracer.span("sources.enumerate_word_log_probs", strings=size):
            W.src.enumerate_word_log_probs(source, n, budget)
        for name, call in (
            ("sources.peak_alloc", W.src.enumerate_word_log_probs),
            ("guesswork.peak_alloc", W.gw.build_rank_table),
        ):
            tracemalloc.start()
            try:
                with tracer.span(name) as counts:
                    call(source, n, budget)
                counts["bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()


def _peak_mb(tracer: Tracer, name: str) -> float:
    return max((s.counts["bytes"] for s in tracer.spans if s.name == name), default=0) / 2**20


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(W, jobs, tracer: Tracer, untraced: list, traced: list) -> dict:
    """Layer metrics from the spans; a layer the workload does not call reads 0."""
    t = tracer
    strings = t.count("sources.enumerate_word_log_probs", "strings")
    enumerate_s = t.total("sources.enumerate_word_log_probs")
    build_s = t.total("guesswork.build_rank_table")
    points = t.count("approx.approx_pmf_curve", "points")
    clamped = t.count("approx.approx_pmf_curve", "clamped")
    rate_s = t.total("rates.rate_curve")
    rate_points = t.count("rates.rate_curve", "points")
    cli_jobs = [j for j in jobs if j.probe is not None]
    cli_s = sum(t.total(f"cli.{command}") for command in CLI_COMMANDS)
    library_s = sum(t.total(f"probe.{j.name}") for j in cli_jobs)
    written = [p for j in cli_jobs for p in j.outputs]
    m = {
        "sources.load_s": (t.total("sources.load_source"), "s"),
        "sources.enumerate_s": (enumerate_s, "s"),
        "sources.strings": (strings, "count"),
        "sources.logp_bytes": (8 * strings, "B"),
        "sources.peak_alloc_mb": (_peak_mb(t, "sources.peak_alloc"), "MB"),
        "guesswork.build_rank_table_s": (build_s, "s"),
        "guesswork.rank_order_s": (build_s - enumerate_s, "s"),
        "guesswork.tie_classes": (t.count("guesswork.tie_groups", "tie_classes"), "count"),
        "guesswork.tie_classes_per_string": (
            _ratio(t.count("guesswork.tie_groups", "tie_classes"),
                   t.count("guesswork.tie_groups", "strings")),
            "ratio",
        ),
        "guesswork.typical_set_s": (t.total("guesswork.typical_set"), "s"),
        "guesswork.bounds_evaluated": (t.count("guesswork.typical_set", "bounds"), "count"),
        "guesswork.peak_alloc_mb": (_peak_mb(t, "guesswork.peak_alloc"), "MB"),
        "approx.pmf_curve_s": (t.total("approx.approx_pmf_curve"), "s"),
        "approx.alpha_points": (points, "count"),
        "approx.clamped_frac": (_ratio(clamped, points), "ratio"),
        "rates.rate_curve_s": (rate_s, "s"),
        "rates.points": (rate_points, "count"),
        "rates.s_per_point": (_ratio(rate_s, rate_points), "s"),
    }
    for name, _ in W.VERIFY_QUICK_CHECKS:
        m[f"verify.{name}_s"] = (t.total(f"verify.{name}"), "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (t.total(f"cli.{command}"), "s")
    m["cli.encode_s"] = (cli_s - library_s, "s")
    m["cli.rows_written"] = (sum(_csv_rows(p) for p in written), "count")
    m["cli.bytes_written"] = (sum(p.stat().st_size for p in written if p.exists()), "B")
    m["trace.overhead_s"] = (pass_seconds(jobs, traced) - pass_seconds(jobs, untraced), "s")
    return m


def _csv_rows(path: Path) -> int:
    """Data rows of a CLI CSV (all lines but the metadata and header)."""
    if path.suffix != ".csv" or not path.exists():
        return 0
    with path.open("rb") as fh:
        return max(sum(1 for _ in fh) - 2, 0)


def traced_run(W, jobs, reference, tally, tracer: Tracer, seconds: float):
    """Untraced and traced passes in turn, swapping which goes first, until
    `seconds` have gone by and each kind has run twice; then the layer probes.
    The layer metrics come from the first traced pass.  Later traced passes
    trace into tracers that are thrown away, so every traced pass pays the
    same cost.  Returns the per-layer metrics and the number of passes."""
    passes: dict = {False: [], True: []}
    start = time.perf_counter()
    while len(passes[True]) < 2 or time.perf_counter() - start < seconds:
        order = (False, True) if len(passes[True]) % 2 == 0 else (True, False)
        for traced in order:
            pass_tracer = (Tracer() if passes[True] else tracer) if traced else NullTracer()
            passes[traced].append(run_pass(W, jobs, reference, pass_tracer, tally))
    probe_layers(W, jobs, tracer)  # writes no files: the last pass's outputs stay
    metrics = per_layer(W, jobs, tracer, passes[False], passes[True])
    return metrics, len(passes[False]) + len(passes[True])


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(W, workload: str, seed: int, seconds: float, trace: bool):
    tracer = Tracer() if trace else NullTracer()
    workdir = WORK / f"{workload}-{os.getpid()}"
    tally = Tally()
    printed: dict = {}
    try:
        inputs = W.setup(workload, seed, "full", workdir, tracer)
        jobs = W.jobs_for(workload, inputs)
        reference = load_reference(W, "full")
        run_pass(W, jobs, reference, NullTracer(), tally)  # warm-up, untimed
        if trace:
            metrics, passes = traced_run(W, jobs, reference, tally, tracer, seconds)
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"trace_{workload}_seed{seed}.json"
            spans_file.write_text(json.dumps(tracer.as_json(), indent=1))
        else:
            # peak memory of set-up and one pass; later passes would add only
            # the allocator's fragmentation, which grows with the pass count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            timed, hosts, setups = timed_passes(W, workload, seed, jobs, reference, tally, seconds)
            metrics, printed = end_to_end(jobs, timed, hosts, setups, peak_kb)
            passes = len(timed)
    finally:
        remove_workdir(workdir)
    return tally, metrics, printed, passes


def smoke(W, workload: str, seed: int, workdir: Path) -> Tally:
    """Every job of a workload, in untraced and traced passes, at toy size."""
    tally = Tally()
    tracer = Tracer()
    inputs = W.setup(workload, seed, "smoke", workdir, tracer)
    traced_run(W, W.jobs_for(workload, inputs), load_reference(W, "smoke"), tally, tracer, 0.0)
    return tally


def record_reference(W) -> None:
    """Fingerprints of every job on the shipped specs, at both scales."""
    reference = {}
    for scale in ("full", "smoke"):
        reference[scale] = {}
        for workload in W.WORKLOADS:
            workdir = WORK / f"record-{os.getpid()}"
            try:
                inputs = W.setup(workload, 0, scale, workdir, NullTracer())
                state: dict = {}
                for job in W.jobs_for(workload, inputs):
                    output = job.run(NullTracer(), state)
                    if not job.seeded:
                        reference[scale][job.name] = job.check(output)
            finally:
                remove_workdir(workdir)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def report(workload, seed, trace, passes, tally: Tally, metrics: dict, printed: dict) -> None:
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} passes={passes}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    counts = f"({tally.failed}/{tally.attempted})"
    print(f"  {'failed_frac':36s} {tally.failed_frac:>16.6g} ratio {counts}")
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiltlab benchmark")
    parser.add_argument("--workload", default="exact_iid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    W = import_workloads()
    if args.record_reference:
        record_reference(W)
        return 0
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    trace = bool(args.trace)
    tally, metrics, printed, passes = measure(W, args.workload, args.seed, args.seconds, trace)
    report(args.workload, args.seed, trace, passes, tally, metrics, printed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
