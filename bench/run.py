#!/usr/bin/env python3
"""qdegree benchmark: runs one named workload in this process on one thread,
checks every output, and prints each metric by name with its unit.

    python3 bench/run.py --workload grid --seed 1 --seconds 12 --trace 0

A run repeats whole rounds (every case of the workload once, in a seeded
order) until ``--seconds`` have passed.  Around and inside operations it
times a fixed reference block (reference.py), and each operation is also
expressed in reference blocks, which cancels the host's speed swings.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

import os

# One thread: numpy's BLAS pools would otherwise start with the import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

REF_BLOCKS = 3           # blocks per reading between operations; their median counts
SAMPLE_INTERVAL = 0.05   # seconds between reference blocks inside an operation
SETUP_PROBES = 7         # set-ups per run; setup_s is their median


def reference_reading(block) -> float:
    """Seconds per reference block at this moment."""
    times = []
    for _ in range(REF_BLOCKS):
        start = time.perf_counter()
        block()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class OpRecord:
    case: int
    seconds: float   # wall time of the operation, reference blocks taken out
    units: float     # the same time in reference blocks
    output: object
    error: str | None


class Meter:
    """Times operations and reads the host's speed around and inside them.

    Between operations it takes a reading (the median of REF_BLOCKS blocks).
    With ``sample`` set, SIGALRM also runs one block every SAMPLE_INTERVAL
    while an operation runs; that time is taken out of the operation's.  An
    operation's reference units are its seconds times the mean of 1/reading
    over the readings before, inside and after it, so an operation that spans
    a change of host speed is weighted by the time spent at each speed.
    """

    def __init__(self, ctx, block, sample: bool):
        self.ctx = ctx
        self.block = block
        self.sample = sample
        self._inside: list[float] = []
        self._spent = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._tick)
        self._before = reference_reading(block)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.block()
        self._inside.append(time.perf_counter() - start)
        self._spent += time.perf_counter() - start

    def op(self, i: int, case) -> OpRecord:
        tracer = self.ctx.tracer
        self._inside, self._spent = [], 0.0
        sid = tracer.open("bench.op") if tracer is not None else None
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            output, error = case.call(), None
        except Exception as exc:  # counted as a failed operation, run continues
            output, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start - self._spent
        if sid is not None:
            tracer.close(sid)
        after = reference_reading(self.block)
        readings = [self._before, *self._inside, after]
        self._before = after
        return OpRecord(i, seconds, seconds * statistics.fmean(1 / r for r in readings),
                        output, error)

    def round(self, cases) -> list[OpRecord]:
        return [self.op(i, case) for i, case in enumerate(cases)]


def case_medians(records: list[OpRecord], n_cases: int) -> tuple[list[float], list[float]]:
    """Per case, the median over rounds of its seconds and of its reference units."""
    seconds = [[] for _ in range(n_cases)]
    units = [[] for _ in range(n_cases)]
    for r in records:
        if r.error is None:
            seconds[r.case].append(r.seconds)
            units[r.case].append(r.units)
    return ([statistics.median(v) for v in seconds if v],
            [statistics.median(v) for v in units if v])


def measure_setup(args) -> float:
    """Median wall time of fresh processes that set up this run and stop
    just before its first timed operation.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def timed_run(wl, ctx, seconds: float) -> list[OpRecord]:
    meter = Meter(ctx, wl.reference, sample=True)
    records = []
    start = time.perf_counter()
    while True:
        records.extend(meter.round(wl.cases))
        if time.perf_counter() - start >= seconds:
            return records


def traced_run(wl, ctx, workload: str, seed: int, seconds: float):
    """Untraced and traced rounds in turn; per-layer metrics of the traced ones.

    No reference blocks run inside operations here, so that none land inside
    a span.
    """
    import tracing

    meter = Meter(ctx, wl.reference, sample=False)
    inst = tracing.Instrumentation()
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.extend(meter.round(wl.cases))
        first = len(tracer.spans)
        inst.install(tracer)
        ctx.tracer = tracer
        try:
            traced.extend(meter.round(wl.cases))
        finally:
            ctx.tracer = None
            inst.uninstall()
        layers.append(tracing.round_layers(tracer, first))
        if time.perf_counter() - start >= seconds:
            break
    n = len(wl.cases)
    overhead = sum(case_medians(traced, n)[1]) / sum(case_medians(plain, n)[1])
    per_round = [tracing.layer_metrics(r) for r in layers]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace.overhead"] = overhead

    print(tracing.layer_table(layers))
    print(f"trace overhead: {overhead:.3f} (traced / untraced work, in reference units)")
    for label, names in (("missing", inst.missing),
                         ("silent", tracing.silent_layers(workload, layers))):
        if names:
            print(f"trace: {label} layers: {', '.join(names)}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(spans_file, "w") as fh:
        json.dump({"workload": workload, "fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    print(f"spans: {spans_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return plain + traced, metrics


def check_outputs(wl, records: list[OpRecord]) -> list[str]:
    problems = []
    for r in records:
        if r.error is None:
            problem = wl.cases[r.case].check(r.output)
            if problem:
                problems.append(f"{wl.cases[r.case].key}: {problem}")
    return problems + wl.sample_check()


def emit(metrics: dict, specs: list[dict]) -> dict:
    """Metrics in manifest order with their units; the names must match."""
    if set(metrics) != {s["name"] for s in specs}:
        raise SystemExit(f"bench: computed metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(s['name'] for s in specs)}")
    return {s["name"]: {"value": float(metrics[s["name"]]), "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "qdegree" / "__init__.py", MANIFEST) if not p.is_file()]
    if missing:
        print(f"bench: {' and '.join(missing)} not found; run from a qdegree checkout",
              file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    ctx = workloads.Context()
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), ctx)
    wl.warmup()
    if args.setup_probe:
        return 0

    if args.trace:
        records, metrics = traced_run(wl, ctx, args.workload, args.seed, seconds)
        specs = manifest["per_layer"]
    else:
        setup_s = measure_setup(args)
        records = timed_run(wl, ctx, seconds)
        op_s, op_ref = case_medians(records, len(wl.cases))
        print(f"raw wall time of one round: {sum(op_s):.4f} s (not gated: it follows the "
              "host's speed swings)")
        metrics = {"setup_s": setup_s,
                   "wall_ref": sum(op_ref),
                   "op_p50_ref": statistics.median(op_ref),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        specs = manifest["end_to_end"]

    errors = sorted({f"{wl.cases[r.case].key}: {r.error}" for r in records if r.error})
    problems = check_outputs(wl, records)
    for line in (errors + problems)[:20]:
        print(f"bench: {line}", file=sys.stderr)
    rounds = len(records) // len(wl.cases)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(wl.cases)} cases, "
          f"{len(errors)} failing, {len(problems)} wrong")
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": sum(r.error is not None for r in records),
                      "metrics": emit(metrics, specs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
