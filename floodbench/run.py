"""Run one floodseg benchmark workload and print its metrics.

    python3 floodbench/run.py --workload train-256 --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The lines before it
are a readable table. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# numpy-free helpers; the workloads module (numpy, floodseg) loads in main().
from spans import Tracer, self_times
from stats import percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread. On a shared 2-vCPU VM a second thread made predict-512
# requests no faster and more variable, since each BLAS call then waits for
# the slower of two threads; see README.md.
BLAS_THREADS = 1
# glibc mallopt parameters: never mmap a block, never trim the heap top.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
TRIM_NEVER = 2**31 - 1
SETUP_SHARE = 0.2         # share of the measured window spent in repeated set-ups
MIN_SETUPS = 5
RAISED = "round raised"
EXACT_COUNTERS = ("convnn.conv2d.calls", "convnn.im2col_bytes", "graphnn.dense_bytes",
                  "tensor.tape_nodes")


def pin_blas_threads() -> int:
    """Fix the BLAS/OpenMP pool size; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads: numpy is already loaded")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def keep_freed_memory() -> bool:
    """Make glibc malloc keep freed memory in the process; must run before numpy is imported.

    By default every array above the mmap threshold is a fresh mapping that
    is returned to the kernel when freed, so each predict-512 request faults
    in about a gigabyte again. On a VM whose balloon reports free pages to
    the host, those faults go to the host, and their cost follows the host's
    load; see README.md. False where the C library has no ``mallopt``.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("keep_freed_memory: numpy is already loaded")
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)    # the C library's own symbol
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(M_MMAP_MAX, 0)) and bool(mallopt(M_TRIM_THRESHOLD, TRIM_NEVER))


def machine(threads: int, kept: bool) -> str:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (f"nproc {os.cpu_count()}, numpy {np.__version__}, "
            f"{blas.get('name', 'blas')} {blas.get('version', '?')}, blas threads {threads}, "
            f"freed memory {'kept' if kept else 'returned'}")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description="floodseg benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timer(tracer=None):
    """Context factory that times a round's phase, as a root span when tracing."""

    @contextmanager
    def timed(rnd):
        index = tracer.begin("bench.round") if tracer is not None else None
        rnd.start = time.perf_counter()
        try:
            yield
        finally:
            rnd.seconds = time.perf_counter() - rnd.start
            if index is not None:
                tracer.end(index)

    return timed


def set_up(workload, times: list, tracer=None):
    """One timed set-up, appended to ``times``; traced as a root span with a tracer."""
    if tracer is not None:
        tracer.install()
        index = tracer.begin("bench.setup")
    try:
        start = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.end(index)
            tracer.restore()
    return state


def play(workload, state, tracer=None):
    """One round, traced when ``tracer`` is given; a round that raises is a failed one."""
    from workloads import Round

    if tracer is not None:
        tracer.install()
        before = Counter(tracer.counts)
    try:
        rnd = workload.run_round(state, timer(tracer))
    except Exception:          # a failing program is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        return Round(attempted=1, failed=1, problems=[RAISED])
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        rnd.counts = {k: tracer.counts[k] - before[k] for k in EXACT_COUNTERS}
    return rnd


def run(workload, seconds: float, tracer=None):
    """Closed loop, one client: rounds back to back until ``seconds`` have passed.

    Returns (set-up times, warm-up round, untraced rounds, traced rounds).
    The first set-up's state serves every round. One untraced warm-up round
    runs before the measured window; it is checked but not timed. Inside the
    window, further set-ups run between rounds whenever they have taken less
    than SETUP_SHARE of it, so that their median sees the same machine as the
    rounds; their states are dropped at once. At least one measured round
    runs untraced; with the warm-up, that gives two same-seed rounds to
    compare. With a tracer, set-ups are traced, and traced and untraced
    rounds alternate, traced first, so both see the same machine; at least
    two rounds are traced.
    """
    setups, untraced, traced = [], [], []
    state = set_up(workload, setups, tracer)
    warmup = play(workload, state)
    begin = time.perf_counter()
    while RAISED not in warmup.problems and (
            not untraced or (tracer is not None and len(traced) < 2)
            or time.perf_counter() < begin + seconds):
        while sum(setups[1:]) < SETUP_SHARE * (time.perf_counter() - begin):
            set_up(workload, setups, tracer)
        tracing = tracer is not None and len(traced) <= len(untraced)
        rnd = play(workload, state, tracer if tracing else None)
        (traced if tracing else untraced).append(rnd)
        if RAISED in rnd.problems:
            break
    while len(setups) < MIN_SETUPS:
        set_up(workload, setups, tracer)
    return setups, warmup, untraced, traced


def end_to_end(rounds, setup_times, warmup) -> tuple[dict, dict]:
    """Timings from the measured ``rounds``; ``error_rate`` counts the warm-up too."""
    latencies = [s for r in rounds for s in r.latencies] or [0.0]   # [0.0]: no round ran
    timed = sum(r.seconds for r in rounds) or 1.0
    attempted = sum(r.attempted for r in [warmup] + rounds)
    failed = sum(r.failed for r in [warmup] + rounds)
    tail = tail_percentile(len(latencies))
    metrics = {
        "samples_per_s": (sum(r.samples for r in rounds) / timed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    # Printed, not bounded: a run's median snaps to whichever speed state of a
    # shared VM held most of it, so it spreads more than the run's mean rate.
    extra = {"latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
             "latency_samples": (len(latencies), "count"),
             "setups": (len(setup_times), "count"),
             "error_rate": (failed / attempted, "ratio")}
    if tail is not None and tail > 50:
        extra[f"latency_ms_p{tail:g}"] = (percentile(latencies, tail) * 1e3, "ms")
    losses = [r.final_loss for r in rounds if r.final_loss is not None]
    if losses:
        extra["final_loss"] = (losses[-1], "loss")
    return metrics, extra


def span_table(tracer):
    """Per phase and span name: calls, summed self time and summed duration."""
    spans = tracer.spans
    own = self_times(spans)
    roots = []
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for i, (name, start, end, parent) in enumerate(spans):
        roots.append(i if parent is None else roots[parent])
        row = table[spans[roots[i]][0]][name]
        row[0] += 1
        row[1] += own[i]
        row[2] += end - start
    read_parents = {parent for name, _, _, parent in spans if name == "dataio.read"}
    gets = [i for i, span in enumerate(spans)
            if span[0] == "train.data_wait" and spans[roots[i]][0] == "bench.round"]
    hits = sum(1 for i in gets if i not in read_parents)
    return table, (hits / len(gets) if gets else 0.0)


# The per-unit metric that a round span's self time goes to. Forward and
# backward share a metric, except where conv, gat and cheb split them. Any
# other span, such as a set-up layer called inside a round, goes to
# trace.untracked_ms with the time outside every wrapped call, so that the
# self-time metrics add up to trace.self_sum_ms.
SELF_METRIC = {
    "convnn.conv2d": "convnn.conv2d.fwd_ms",
    "convnn.conv2d.bwd": "convnn.conv2d.bwd_ms",
    "convnn.pool_up": "convnn.pool_up_ms",
    "convnn.loss": "convnn.loss_ms",
    "graphnn.gat_conv": "graphnn.gat_conv.fwd_ms",
    "graphnn.gat_conv.bwd": "graphnn.gat_conv.bwd_ms",
    "graphnn.cheb_conv": "graphnn.cheb_conv.fwd_ms",
    "graphnn.cheb_conv.bwd": "graphnn.cheb_conv.bwd_ms",
    "graphnn.center_of_mass": "graphnn.center_of_mass_ms",
    "tensor.backward": "tensor.backward_ms",
    "bench.round.bwd": "tensor.backward_ms",     # ops made outside any layer
    "optim.step": "optim.step_ms",
    "train.data_wait": "train.data_wait_ms",
    "model.forward": "model.forward_self_ms",
    "model.serialize": "model.serialize_ms",
    "dataio.read": "dataio.read_ms",
    "dataio.resize": "dataio.resize_ms",
    "dataio.write": "dataio.write_ms",
    "metrics.score": "metrics.score_ms",
    "reprogram.program": "reprogram.program_ms",
    "reprogram.verify_frozen": "reprogram.verify_frozen_ms",
}
SETUP_METRIC = {"graphnn.build": "graphnn.build_ms", "model.load": "model.load_ms",
                "dataio.prepare": "dataio.prepare_ms"}


def self_metric(span: str) -> str:
    if span in SELF_METRIC:
        return SELF_METRIC[span]
    return SELF_METRIC.get(span.removesuffix(".bwd"), "trace.untracked_ms")


def per_layer(tracer, traced, untraced, setups: int) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run: ms per unit, or per set-up for set-up layers.

    ``untraced`` are the run's untraced measured rounds; their median unit
    time is compared with that of the traced rounds.
    """
    table, hit_ratio = span_table(tracer)
    units = sum(len(r.latencies) for r in traced) or 1
    counts = Counter()
    for r in traced:
        counts.update(r.counts)
    ms, count, mb = "ms", "count", "MB"

    own = dict.fromkeys(sorted(set(SELF_METRIC.values()) | {"trace.untracked_ms"}), 0.0)
    for name, (_, self_s, _) in table["bench.round"].items():
        own[self_metric(name)] += self_s / units * 1e3
    metrics = {name: (value, ms) for name, value in own.items()}
    for name, metric in SETUP_METRIC.items():
        metrics[metric] = (table["bench.setup"].get(name, (0, 0.0, 0.0))[2] / setups * 1e3, ms)

    held = traced[-1].held_graph_bytes if traced else 0
    traced_p50 = statistics.median([s for r in traced for s in r.latencies] or [0.0]) * 1e3
    untraced_p50 = statistics.median([s for r in untraced for s in r.latencies] or [0.0]) * 1e3
    metrics.update({
        "convnn.conv2d.calls": (counts["convnn.conv2d.calls"] / units, count),
        "convnn.im2col_mb": (counts["convnn.im2col_bytes"] / units / 1e6, mb),
        "graphnn.dense_mb": ((counts["graphnn.dense_bytes"] / units + held) / 1e6, mb),
        "tensor.tape_nodes": (counts["tensor.tape_nodes"] / units, count),
        "train.cache_hit_ratio": (hit_ratio, "ratio"),
        "train.validate_ms": (sum(r.validate_seconds for r in traced) / units * 1e3, ms),
        "trace.self_sum_ms": (sum(row[1] for row in table["bench.round"].values())
                              / units * 1e3, ms),
        "trace.traced_p50_ms": (traced_p50, ms),
        "trace.untraced_p50_ms": (untraced_p50, ms),
        "trace.overhead_ms": (traced_p50 - untraced_p50, ms),
    })
    return dict(sorted(metrics.items())), table


def print_table(title, rows):
    print(f"# {title}")
    for name, (value, unit) in rows.items():
        print(f"{name:<32} {value:>14.6g} {unit}")


def print_spans(table, units: int, setups: int):
    print(f"# spans per phase: calls, self ms and total ms per unit ({units} units) "
          f"or per set-up ({setups})")
    for phase, divisor in (("bench.round", units), ("bench.setup", setups)):
        rows = sorted(table[phase].items(), key=lambda kv: -kv[1][1])
        for name, (calls, own, dur) in rows:
            print(f"{phase:<12} {name:<30} {calls / divisor:>10.4g} "
                  f"{own / divisor * 1e3:>12.4f} {dur / divisor * 1e3:>12.4f}")


def check(rounds, traced) -> list[str]:
    problems = [p for r in rounds for p in r.problems]
    prints = {r.fingerprint for r in rounds if r.fingerprint is not None}
    if len(prints) > 1:
        problems.append(f"same seed, different results across rounds: {sorted(prints)}")
    counts = {tuple(sorted(r.counts.items())) for r in traced}
    if len(counts) > 1:
        problems.append(f"exact counters differ between traced rounds: {sorted(counts)}")
    return problems


def measure(args, workload, workdir: Path):
    workload.make_inputs(args.seed, workdir)
    if not args.trace:
        setup_times, warmup, rounds, _ = run(workload, args.seconds)
        metrics, extra = end_to_end(rounds, setup_times, warmup)
        print_table(f"{workload.name}: end-to-end, bounded ({workload.unit} per unit)", metrics)
        print_table(f"{workload.name}: end-to-end, printed only", extra)
        return [warmup] + rounds, [], metrics

    tracer = Tracer()
    setup_times, warmup, untraced, traced = run(workload, args.seconds, tracer)
    metrics, table = per_layer(tracer, traced, untraced, len(setup_times))
    units = sum(len(r.latencies) for r in traced)
    print_spans(table, units, len(setup_times))
    print_table(f"{workload.name}: per layer ({workload.unit} per unit)", metrics)
    return [warmup] + untraced + traced, traced, metrics


def main(argv=None) -> int:
    threads = pin_blas_threads()
    kept = keep_freed_memory()
    src = ROOT / "src"
    if not (src / "floodseg" / "__init__.py").is_file():
        print(f"floodbench: no floodseg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".floodbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rounds, traced, metrics = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:             # another run still uses it
            pass
    problems = check(rounds, traced)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {machine(threads, kept)}; seed {args.seed}, {len(rounds)} rounds with the warm-up")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
