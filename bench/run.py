"""Seeded benchmark of the degpoly command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload optimize --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller drives ``degpoly.cli.main(argv)`` in process, in a closed loop:
each op starts when the previous one has returned, and the op sequence is
fixed by the seed.  Inputs are generated and every report is checked
against the benchmark's own oracles outside the timed region.  The loop
runs for ``--seconds`` and at least MIN_OPS ops, so that the p90 has ten
samples beyond it, and ends on a whole period of the workload's op mix.

Times are stated at a reference host speed: a short fixed piece of
pure-Python work is timed between ops, and every op latency and set-up
time is scaled by how long that piece took around it (see HostSpeed), so
that a shared host running slower for a while does not read as a slower
program.  The wall-clock figures are printed alongside and kept in
bench/out/.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice in a row, untraced and then with spans around each layer (see
spans.py), then a scaling sweep (sweep.py), and prints the per-layer
metrics; the spans are written under bench/out/.  ``--workload all`` runs
every workload, one process after another, and prints all their metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS, Op, Workload, ops_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 100
MIN_TRACE_OPS = 10
MAX_LOOP_S = 120.0  # a loop still short of MIN_OPS stops here, to finish within 180 s
SETUP_REPEATS = 3
WARMUP_SEED = 0
CHUNK_ITERATIONS = 120
CHUNK_EVERY_S = 0.02
SPEED_WINDOW_S = 1.0
GC_EVERY_S = 0.25
REFERENCE_CHUNK_S = 0.001

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def run_op(main, argv: tuple[str, ...]) -> tuple[object, str]:
    """One CLI call: (exit status or the exception it raised, stdout)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # counted as a failed op, never dropped
        status = f"raised {type(exc).__name__}: {exc}"
    return status, out.getvalue()


def reference_chunk() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like degpoly's.

    Fraction arithmetic, tuple building, dict stores and str formatting:
    on this mix, host slowdowns hit the chunk as they hit the ops, which a
    plain integer loop does not.
    """
    t0 = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(CHUNK_ITERATIONS):
        f = Fraction(i % 17 - 8, i % 7 + 1)
        total += f * f
        seen[tuple(range(i % 12))] = str(f)
    sorted(seen.values())
    return perf_counter() - t0


class HostSpeed:
    """Reference chunks timed between ops, to state times at a reference speed.

    On a shared host the speed of pure Python drifts, by up to half within
    seconds, as other tenants load the physical cores; op latency drifts
    with it.  Every CHUNK_EVERY_S a reference chunk is timed between ops,
    and a wall interval is scaled by REFERENCE_CHUNK_S over the median chunk
    time from SPEED_WINDOW_S before it to SPEED_WINDOW_S after it (at least
    the chunks just before and just after it).
    """

    def __init__(self) -> None:
        self.ends = array("d")
        self.chunks = array("d")

    def sample(self) -> None:
        self.chunks.append(reference_chunk())
        self.ends.append(perf_counter())

    def sample_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= CHUNK_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The interval's length in seconds at reference speed."""
        lo = min(bisect.bisect_left(self.ends, start - SPEED_WINDOW_S), bisect.bisect_right(self.ends, start) - 1)
        hi = max(bisect.bisect_right(self.ends, end + SPEED_WINDOW_S), bisect.bisect_left(self.ends, end) + 1)
        chunk = statistics.median(self.chunks[max(lo, 0):hi])
        return (end - start) * REFERENCE_CHUNK_S / chunk


def timed_loop(main, ops: list[Op], seconds: float, period: int, speed: HostSpeed):
    """Closed loop over ``ops`` in order; returns (wall latencies, scaled latencies, records).

    The loop ends on a whole number of periods of the op mix, so every run
    times the same mix.  Every GC_EVERY_S, between ops, it collects cyclic
    garbage: each CLI call leaves an argparse parser in reference cycles,
    and until a full collection those pin memory freed around them, so
    peak RSS would grow with the op count.  A record is (op index, status,
    stdout).  Identical
    stdout strings are shared so that memory holds one copy per distinct
    report, and times go into arrays rather than float objects: small
    objects kept across ops would pin the allocator's arenas and make
    peak_rss_mib grow with the op count.
    """
    starts, ends, indexes = array("d"), array("d"), array("l")
    statuses: list[object] = []
    texts: list[str] = []
    distinct: dict[str, str] = {}
    start = last_gc = perf_counter()
    while True:
        if perf_counter() - last_gc >= GC_EVERY_S:
            gc.collect()
            last_gc = perf_counter()
        speed.sample_if_due()
        t0 = perf_counter()
        done = len(starts)
        if t0 - start >= seconds and done % period == 0 and (done >= MIN_OPS or t0 - start >= MAX_LOOP_S):
            break
        index = done % len(ops)
        status, text = run_op(main, ops[index].argv)
        ends.append(perf_counter())
        starts.append(t0)
        indexes.append(index)
        statuses.append(status)
        texts.append(distinct.setdefault(text, text))
    speed.sample()
    wall = [t1 - t0 for t0, t1 in zip(starts, ends)]
    scaled = [speed.scaled(t0, t1) for t0, t1 in zip(starts, ends)]
    return wall, scaled, list(zip(indexes, statuses, texts))


def paired_loop(main, traced_main, tracer, ops: list[Op], seconds: float):
    """Each op twice in a row, untraced and traced, so both see the same host load.

    Which of the two goes first alternates from op to op.  Returns
    (untraced latencies, traced latencies, records in run order).
    """
    plain: list[float] = []
    traced: list[float] = []
    records: list[tuple[int, object, str]] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < MIN_TRACE_OPS:
        gc.collect()  # as in timed_loop, and so that no collection lands in one side of a pair
        index = len(traced) % len(ops)
        argv = ops[index].argv
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if with_trace:
                tracer.enable()
            try:
                t0 = perf_counter()
                records.append((index, *run_op(traced_main if with_trace else main, argv)))
                (traced if with_trace else plain).append(perf_counter() - t0)
            finally:
                if with_trace:
                    tracer.disable()
    return plain, traced, records


def verdict(workload: Workload, op: Op, status: object, text: str) -> str | None:
    """None when the op succeeded, else why it failed."""
    if status != 0:
        return f"exit status {status!r}"
    try:
        report = json.loads(text)
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        if failed:
            return f"embedded checks failed: {failed}"
        return workload.check(op, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def count_failures(workload: Workload, ops: list[Op], records) -> tuple[int, list[str]]:
    memo: dict[tuple, str | None] = {}
    failed, reasons = 0, []
    for index, status, text in records:
        key = (index, repr(status), text)
        if key not in memo:
            memo[key] = verdict(workload, ops[index], status, text)
            if memo[key] is not None:
                reasons.append(f"{' '.join(ops[index].argv)[:120]}: {memo[key]}")
        failed += memo[key] is not None
    return failed, reasons


def fresh_setup(ops: list[Op], speed: HostSpeed):
    """Import degpoly afresh, then run one op of each shape.

    Returns (seconds at reference speed, cli module, warm-up records).
    Purging the modules first gives every repetition empty lru_caches, as
    a new process has.
    """
    for name in [m for m in sys.modules if m == "degpoly" or m.startswith("degpoly.")]:
        del sys.modules[name]
    speed.sample()
    t0 = perf_counter()
    cli = importlib.import_module("degpoly.cli")
    t1 = perf_counter()
    speed.sample()
    seconds = speed.scaled(t0, t1)
    records, shapes = [], set()
    for index, op in enumerate(ops):
        if op.shape not in shapes:
            shapes.add(op.shape)
            t0 = perf_counter()
            records.append((index, *run_op(cli.main, op.argv)))
            t1 = perf_counter()
            speed.sample()
            seconds += speed.scaled(t0, t1)
    return seconds, cli, records


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        # the same work as 100 reference chunks, timed at the start of the run
        "calibration_s": sum(reference_chunk() for _ in range(100)),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def emit(result: dict, context: dict, name: str, detail: dict) -> None:
    OUT.mkdir(exist_ok=True)
    record = {"context": context, "result": result, **detail}
    (OUT / f"{name}.json").write_text(json.dumps(record, separators=(",", ":")))
    for metric, entry in result["metrics"].items():
        print(f"{context['workload']:<17} {metric:<55} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))


def run_workload(args) -> int:
    if not (SRC / "degpoly" / "__init__.py").is_file():
        print(f"error: no degpoly sources at {SRC.relative_to(ROOT)}/degpoly", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    context = run_context(args)
    print("context " + json.dumps(context))
    ops = ops_for(workload, args.seed)

    # warm-up inputs do not depend on the seed, so setup_s times the same work in every run
    warm_ops = ops_for(workload, WARMUP_SEED)
    speed = HostSpeed()
    setup_s, warm_records = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        seconds, cli, records = fresh_setup(warm_ops, speed)
        setup_s.append(seconds)
        warm_records += records
    gc.collect()

    if not args.trace:
        wall, latencies, records = timed_loop(cli.main, ops, args.seconds, workload.period, speed)
        # read before any check runs: the oracles' memory (the r-graph truth sets) is not the program's
        rss_mib = peak_rss_mib()
        failed, more = count_failures(workload, ops, records)
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": rss_mib,
        }
        units = END_TO_END
        attempted = len(latencies)
        detail = {"ops": [r[0] for r in records], "wall_s": wall, "scaled_s": latencies,
                  "setup_s": setup_s, "chunks_s": list(speed.chunks)}
        print(f"ops {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}; "
              f"wall clock: {len(wall) / sum(wall):.6g} ops/s, p50 {statistics.median(wall) * 1e3:.6g} ms, "
              f"p90 {statistics.quantiles(wall, n=10)[8] * 1e3:.6g} ms; "
              f"reference chunk {REFERENCE_CHUNK_S * 1e3:g} ms, median measured {statistics.median(speed.chunks) * 1e3:.4g} ms")
    else:
        import sweep

        tracer = spans.Tracer()
        root = tracer.span("cli.main", cli.main, root=True)
        plain_lat, traced_lat, records = paired_loop(cli.main, root, tracer, ops, args.seconds)
        failed, more = count_failures(workload, ops, records)
        attempted = len(records)
        # each pair of records holds one untraced and one traced report of the same op
        report_bytes = sum(len(text) for _, _, text in records) / 2
        values = tracer.metrics(len(traced_lat), report_bytes)
        values["trace.overhead_ratio"] = sum(plain_lat) / sum(traced_lat)
        values.update(sweep.growth_exponents(args.seed))
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        detail = {"ops": [r[0] for r in records[::2]], "untraced_s": plain_lat, "traced_s": traced_lat}
        shares = {layer: values[f"layer.{layer}.self_share"] for layer in spans.LAYERS}
        top = max(shares, key=shares.get)
        expected = workload.expected_top_layer
        note = f"largest self-time layer: {top} ({shares[top]:.1%})"
        if expected is not None:
            note += " as expected" if top == expected else f"; the expected {expected} is not the largest"
        print(note)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"context": context, "note": note})
    warm_failed, reasons = count_failures(workload, warm_ops, warm_records)
    reasons += more
    for reason in reasons[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    emit(result, context, f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}-result", detail)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # DEGPOLY_SEED would silently override the volume3 --seed the workload passes.
    os.environ.pop("DEGPOLY_SEED", None)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
