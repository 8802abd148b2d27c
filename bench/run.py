"""affposet benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports affposet from ``src/`` and
nothing installed.  Workloads (see ``workloads.py``): ``verify_catalog``,
``poset_queries`` and ``rank_cold``, the three ``BENCHMARK.json`` lists, and
``oracle_e7``, which runs the same way but is not listed there.

Load is one closed loop in one process, pinned to one CPU: each call starts
when the previous one returns, and ``rank_cold`` runs its child processes
one at a time.  The amount of work is fixed by the arguments, not by the
machine's speed, so every run with the same arguments makes the same calls,
in the same mix of query kinds, and its latency percentiles rest on the
same sample count.

``--trace 0`` prints the end-to-end metrics, and only those: throughput,
set-up time and peak RSS.  It draws the workload's ``DISTINCT`` rounds and
makes their calls in passes, ``seconds / (DISTINCT * ROUND_S)`` of them and
at least ``MIN_PASSES``, where ``ROUND_S`` is the round's nominal time on a
busy 2-core 2.1 GHz x86 VM.  A shared 2-vCPU host runs the interpreter at
anything from its full speed to a quarter of it, changing within
milliseconds and drifting over minutes, so a plain mean over a run spread by
up to 0.4 between runs of the same code.  Each call's time is therefore
scaled to a reference speed: a fixed loop of interpreter work,
``host_probe``, runs between calls, and a call's time is multiplied by
``(PROBE_REF_S / probe) ** ELASTICITY``, with ``probe`` the mean of the
probes on either side of it.  Throughput is one pass's work over the sum of
each call's median scaled time; set-up samples are scaled the same way.
Unscaled figures go to the record.  Call latency (the median, and the tail
with its percentile and sample count, overall and per query kind) goes only
to the record and the ``#`` notes, unscaled.

``--trace 1`` prints the per-layer metrics, and only those.  It runs round 0
``round(seconds / ROUND_S) // 2`` times, each time once untraced and once
with spans around the public functions (see ``tracing.py``), and sums the
per-layer figures over the traced rounds; counts depend only on the seed and
``--seconds``.  Tracing overhead is the median traced round's wall time
minus the median untraced one.  Per-layer times are not scaled.

Set-up time is the median of ``SETUP_SAMPLES`` set-ups, each an import of
affposet plus the workload's warm-up in a fresh child process.  The samples
are spread evenly between the calls of the timed loop, outside the time it
measures.  Each run writes its record (seed, commit, versions, unscaled
figures, tails and per-kind figures) to
``.bench_out/<workload>.trace<0|1>.json`` and, when traced, its spans to
``.bench_out/<workload>.spans.tsv.gz``.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
MIN_PASSES = 3
PROBE_STEPS = 500
# host_probe() time at the 1st percentile of 6000 probes on a 2-core 2.1 GHz
# Xeon VM: the reference speed that end-to-end times are scaled to.
PROBE_REF_S = 0.00136
# How a call's time follows the probe's as the host slows: the slope of log
# pass time on log probe time, between the passes of one run, was 0.5 for
# rank_cold, 0.7 for verify_catalog and 0.84 for poset_queries.
ELASTICITY = 0.7
CHILD_TIMEOUT_S = 120


def commit_of(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
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


def source_digest(root: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "affposet").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than eleven
    samples no such percentile exists and the maximum is returned as p100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0, count
    rank = count - 11
    return ordered[rank], 100.0 * (rank + 1) / count, count


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def host_probe() -> float:
    """Seconds for a fixed loop of interpreter work like affposet's label math.

    Fraction arithmetic, tuple building and dict stores, about 1.4 ms at the
    reference speed.  Timed next to a call, it tells how fast the host ran
    the interpreter just then.
    """
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, PROBE_STEPS):
        total += Fraction(i, i + 7)
        table[i % 31, i % 7] = tuple(range(i % 5))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time scaled to the reference speed by the probes on either side of it."""
    return seconds * (2 * PROBE_REF_S / (before + after)) ** ELASTICITY


def setup_sample(name: str, env: dict) -> float:
    """One import of affposet plus the workload's warm-up, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "child.py"), "setup", name],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Tally:
    """Outcomes and per-call latencies of one run."""

    def __init__(self) -> None:
        self.units = self.failed = self.wrong = 0
        self.calls = []  # (kind, seconds)

    def call(self, kind: str, op) -> float:
        start = time.perf_counter()
        outcome = op()
        elapsed = time.perf_counter() - start
        self.calls.append((kind, elapsed))
        self.units += outcome.units
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        return elapsed


def timed_run(workload, seed: int, seconds: float, env: dict) -> tuple:
    """``DISTINCT`` rounds' calls, made in passes that add up to ``seconds``.

    Each pass makes every call once, in the same order, and every answer is
    checked; the number of passes is fixed by ``seconds`` and the workload's
    nominal round time, not by the machine's speed.  The garbage collector
    runs before each call, outside its time, so no call pays for another's
    garbage.  A host probe runs between calls, and each call's time is
    scaled to the reference speed by the probes on either side of it.
    Throughput is the work of one pass over the sum of each call's median
    scaled time.  The set-up samples are spread evenly between the calls and
    scaled the same way.
    """
    tally = Tally()
    ops = [op for r in range(workload.DISTINCT) for op in workload.round(seed, r)]
    passes = max(MIN_PASSES, round(seconds / (workload.DISTINCT * workload.ROUND_S)))
    total = passes * len(ops)
    scaled = [[] for _ in ops]
    setups, raw_setups, probes = [], [], []

    def sample_setup(before: float) -> float:
        raw_setups.append(setup_sample(workload.name, env))
        after = host_probe()
        setups.append(at_reference_speed(raw_setups[-1], before, after))
        return after

    probe = host_probe()
    for index in range(total):
        while len(setups) * total <= index * SETUP_SAMPLES:
            probe = sample_setup(probe)
        kind, op = ops[index % len(ops)]
        gc.collect()
        elapsed = tally.call(kind, op)
        after = host_probe()
        scaled[index % len(ops)].append(at_reference_speed(elapsed, probe, after))
        probes.append(probe)
        probe = after
    while len(setups) < SETUP_SAMPLES:
        probe = sample_setup(probe)
    latencies = [s for _, s in tally.calls]
    tail_s, pct, count = tail(latencies)
    metrics = {
        "throughput_per_s": (tally.units / passes / sum(map(statistics.median, scaled)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    kinds = {}
    for kind in sorted({k for k, _ in tally.calls}):
        times = [s for k, s in tally.calls if k == kind]
        t, p, n = tail(times)
        kinds[kind] = {
            "calls": n,
            "total_s": sum(times),
            "p50_ms": statistics.median(times) * 1000,
            "tail_ms": t * 1000,
            "tail_percentile": p,
        }
    record = {
        "rounds": workload.DISTINCT,
        "passes": passes,
        "wall_s": sum(latencies),
        "unscaled_throughput_per_s": tally.units / sum(latencies),
        "probe_ref_s": PROBE_REF_S,
        "probe_p50_s": statistics.median(probes),
        "setup_samples_s": setups,
        "unscaled_setup_samples_s": raw_setups,
        "call_p50_ms": statistics.median(latencies) * 1000,
        "call_tail": {"ms": tail_s * 1000, "percentile": pct, "samples": count},
        "kinds": kinds,
    }
    return tally, metrics, record


def trace_run(workload, seed: int, rounds: int, env: dict) -> tuple:
    """Round 0, alternately untraced and traced, ``rounds // 2`` times each."""
    tally = Tally()
    ops = workload.round(seed, 0)
    tracer = tracing.Tracer()
    untraced, traced = [], []
    pairs = max(1, rounds // 2)
    for _ in range(pairs):
        t0 = time.perf_counter()
        for kind, op in ops:
            tally.call(kind, op)
        untraced.append(time.perf_counter() - t0)
        uninstall = tracing.install(tracer)
        workload.tracer = tracer
        t0 = time.perf_counter()
        for kind, op in ops:
            tally.call(kind, op)
        traced.append(time.perf_counter() - t0)
        uninstall()
        workload.tracer = None

    metrics = {}
    for fn, row in tracer.summary().items():
        metrics[f"{fn}.calls"] = (row["calls"], "count")
        metrics[f"{fn}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{fn}.self_s"] = (row["self_s"], "s")
    counts = tracer.counts
    for key, value in counts.items():
        if key != "roots.connected_subsets":
            metrics[key] = (value, "count")
    metrics["roots.candidate_yield"] = (
        counts["roots.connected_subsets"] / counts["roots.subsets_scanned"]
        if counts["roots.subsets_scanned"] else 0.0,
        "ratio",
    )
    metrics["covering.cocovers.hit_ratio"] = (
        counts["covering.cocovers.edges"] / counts["covering.cocovers.tried"]
        if counts["covering.cocovers.tried"] else 0.0,
        "ratio",
    )
    processes = getattr(workload, "processes", [])
    startups = [p["wall_s"] - p["run_s"] for p in processes if p["run_s"] is not None]
    metrics["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")

    out = ROOT / ".bench_out" / f"{workload.name}.spans.tsv.gz"
    tracer.write(out)
    record = {
        "rounds": pairs,
        "spans": len(tracer.start),
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "spans_file": str(out.relative_to(ROOT)),
        "counts": counts,
        "count_definitions": tracing.COUNTS,
        "rank_curve": rank_curve(processes),
        "processes": processes,
    }
    return tally, metrics, record


def rank_curve(processes) -> list:
    """build_affine and cover_root_set seconds per A(n,1) rank, cold processes."""
    curve = {}
    for p in processes:
        name = p["argv"][1]
        if name.startswith("A") and name.endswith("-1"):
            point = curve.setdefault(int(name[1:-2]), {"build_affine_s": [], "cover_root_set_s": []})
            for key, samples in point.items():
                if p[key] is not None:
                    samples.append(p[key])
    return [
        {"n": n, **{k: statistics.median(v) if v else None for k, v in curve[n].items()}}
        for n in sorted(curve)
    ]


def print_notes(record: dict) -> None:
    """The run's record as '#' lines, for a reader of stdout."""
    for key in ("workload", "seed", "commit", "source_digest", "python", "numpy", "nproc"):
        print(f"# {key}: {record[key]}")
    print(f"# failed_ratio: {record['failed']}/{record['attempted']} (wrong answers: {record['wrong']})")
    if "call_tail" in record:
        tail_info = record["call_tail"]
        print(f"# call p50: {record['call_p50_ms']:.1f} ms")
        print(
            f"# call tail: {tail_info['ms']:.1f} ms at p{tail_info['percentile']:.1f} "
            f"of {tail_info['samples']} calls"
        )
        for kind, row in record["kinds"].items():
            print(
                f"# {kind}: {row['calls']} calls, total {row['total_s']:.3f} s, "
                f"p50 {row['p50_ms']:.1f} ms, p{row['tail_percentile']:.1f} {row['tail_ms']:.1f} ms"
            )
    for point in record.get("rank_curve", []):
        print(f"# rank curve A{point['n']}-1: " + ", ".join(
            f"{key[:-2]} {value:.4f} s" for key, value in point.items()
            if key != "n" and value is not None
        ))
    for name, metric in record["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One CPU for the whole run, children included, so that the host probes
    # and the calls they scale run on the same vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = ROOT / "src"
    if not (src / "affposet" / "__init__.py").is_file():
        print(f"error: no affposet sources under {src}", file=sys.stderr)
        return 2
    golden = json.loads((workloads.BENCH_DIR / "golden.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))

    import affposet

    workload = workloads.WORKLOADS[args.workload](affposet, golden, ROOT, env)
    workload.setup()
    if Path(affposet.__file__).resolve().parent != (src / "affposet").resolve():
        print(f"error: imported affposet from {affposet.__file__}", file=sys.stderr)
        return 2

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    if args.trace:
        rounds = max(1, round(args.seconds / workload.ROUND_S))
        tally, metrics, record = trace_run(workload, args.seed, rounds, env)
    else:
        tally, metrics, record = timed_run(workload, args.seed, args.seconds, env)

    import numpy

    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "source_digest": source_digest(ROOT),
        "golden_recorded_on": golden["recorded_on"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "attempted": tally.units,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failed_ratio": tally.failed / tally.units,
        **record,
        "metrics": as_json,
    }
    (ROOT / ".bench_out" / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_notes(record)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.units,
        "failed": tally.failed,
        "metrics": as_json,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
