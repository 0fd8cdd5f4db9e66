"""Benchmark of toricwedge through its public entry point, toricwedge.cli.main.

    python3 benchmarks/run.py --workload classify-cert --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else: the program is imported
from the src/ directory beside this one.  A run repeats whole rounds of its
workload while another round still fits in --seconds (at least one round),
then checks every output with bench_checks.py, outside the timed region.
The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a run
under bench_trace.Tracer.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / "out"
REFERENCE = HERE / "reference_counts.json"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from bench_checks import ClassifyChecker, Tally, check_fan_certificate  # noqa: E402
from bench_inputs import WORKLOADS, Workload, sig_key  # noqa: E402
from bench_trace import Tracer, clear_caches  # noqa: E402


class NoProgram(RuntimeError):
    pass


def import_program():
    """toricwedge.cli from the src/ beside the benchmark, and nowhere else."""
    if not (SRC / "toricwedge" / "__init__.py").is_file():
        raise NoProgram(f"no toricwedge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricwedge.cli
    if Path(toricwedge.cli.__file__).resolve().parent.parent != SRC:
        raise NoProgram(f"toricwedge was imported from {toricwedge.cli.__file__}")
    return toricwedge.cli


def probe(args) -> int:
    """One set-up, as a run does it: import the program, make the first
    round's inputs, then report ready."""
    import_program()
    Workload(args.workload, args.seed, Path(args.out_dir)).round(0)
    print("ready", flush=True)
    return 0


def measure_setup(args, out_dir: Path) -> float:
    """Median time from starting a fresh interpreter to its being ready for
    the first timed call.  An extra first probe warms the bytecode cache."""
    probe_dir = out_dir / "probe"
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(probe_dir)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def call(cli, argv):
    """Exit code of one CLI call; an exception is reported and counts as failed."""
    try:
        return cli.main(list(argv))
    except SystemExit as e:
        return e.code
    except Exception:  # noqa: BLE001 - the run goes on and tallies the failure
        traceback.print_exc(file=sys.stderr)
        return "exception"


def run_rounds(cli, workload: Workload, seconds: float, clear_caches, tracer=None):
    """Timed calls, each from empty caches as a fresh CLI process has them."""
    done = []
    start = perf_counter()
    rounds = 0
    while True:
        for op in workload.round(rounds):
            clear_caches()
            t0 = perf_counter()
            rc = call(cli, op.argv)
            done.append((op, perf_counter() - t0, rc))
            if tracer is not None:
                tracer.read_caches()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return done, rounds


def check_outputs(done, reference: dict) -> tuple[Tally, list[int]]:
    """Tally every call's output; returns the tally and the classes each call
    certified (a checked fan is one class)."""
    tally = Tally()
    checker = ClassifyChecker(reference)
    classes = []
    for op, _, rc in done:
        if op.kind == "classify":
            if rc != 0:
                want = reference.get(sig_key(op.m, op.J), 1)
                tally.add(want, want, f"classify {op.J} exited {rc}")
                classes.append(0)
                continue
            classes.append(checker.check_file(op.out, op.m, op.J, tally))
        else:
            if rc != 0:
                tally.add(1, 1, f"check of {op.rays} exited {rc}")
                classes.append(0)
                continue
            check_fan_certificate(op.out, op.rays, tally)
            classes.append(1)
    return tally, classes


def median_per_class(durations, classes) -> float:
    """Median over classes of the time one class took, each class of a call
    taking that call's mean.  For check calls this is the plain median."""
    per_class = sorted((dt / n, n) for dt, n in zip(durations, classes) if n)
    if not per_class:
        return statistics.median(durations)
    total = sum(n for _, n in per_class)

    def at(rank):
        seen = 0
        for value, n in per_class:
            seen += n
            if rank < seen:
                return value

    return (at((total - 1) // 2) + at(total // 2)) / 2


def end_to_end(done, setup_s: float, classes: list[int], peak_rss_mb: float):
    durations = [dt for _, dt, _ in done]
    total = sum(durations)
    metrics = {
        "setup_s": (setup_s, "s"),
        "classes_per_s": (sum(classes) / total, "1/s"),
        "check_ms_p50": (median_per_class(durations, classes) * 1000, "ms"),
        "checks_per_s": (len(durations) / total, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def tail(durations):
    """The highest of p75/p90/p95/p99 with at least ten calls beyond it, once
    a run holds at least forty calls."""
    n = len(durations)
    if n < 40:
        return None
    cuts = statistics.quantiles(durations, n=100)
    p = max(p for p in (75, 90, 95, 99) if n * (100 - p) / 100 >= 10)
    return f"check_ms_p{p}", cuts[p - 1] * 1000


def run(args) -> int:
    try:
        cli = import_program()
    except (NoProgram, ImportError) as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["classes"]
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        setup_s = measure_setup(args, out_dir)
        workload = Workload(args.workload, args.seed, out_dir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            done, rounds = run_rounds(cli, workload, args.seconds, clear_caches, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        output_bytes = sum(op.out.stat().st_size for op, _, _ in done if op.out.exists())
        t0 = perf_counter()
        tally, classes = check_outputs(done, reference)
        check_s = perf_counter() - t0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    durations = [dt for _, dt, _ in done]
    certified = sum(classes)
    e2e = end_to_end(done, setup_s, classes, peak_rss_mb)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), {len(done)} calls, "
          f"{certified} classes certified in {sum(durations):.3f} s of timed calls; "
          f"outputs checked in {check_s:.3f} s")
    print("end-to-end" + (" (traced)" if tracer else "") + ": " + ", ".join(
        f"{k}={v['value']:.6g} {v['unit']}" for k, v in e2e.items()))
    extra = tail(durations)
    if extra:
        print(f"tail: {extra[0]}={extra[1]:.6g} ms over {len(durations)} calls")
    for reason in tally.reasons[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    metrics = e2e
    if tracer is not None:
        metrics = tracer.metrics(certified, output_bytes)
        if tracer.absent:
            print("absent from the program: " + ", ".join(tracer.absent))
        OUT_ROOT.mkdir(exist_ok=True)
        trace_file = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.summary(), indent=1, sort_keys=True) + "\n")
        print(f"trace summary: {trace_file}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(probe(args) if args.probe else run(args))
