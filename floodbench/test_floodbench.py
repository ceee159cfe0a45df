"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest floodbench/test_floodbench.py -q
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import floodseg  # noqa: E402
from floodseg import ModelSpec, Tensor, build_model, init_params  # noqa: E402
from run import (MIN_SETUPS, SELF_METRIC, SETUP_SHARE, keep_freed_memory,  # noqa: E402
                 per_layer, run, self_metric)
from spans import TARGETS, Tracer, held_square_bytes, self_times  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import Round, mask_problem, unit_latencies  # noqa: E402


# ---- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(reversed(values), 99.9) == 100
    assert sum(v > percentile(values, 90) for v in values) == 10


# ---- spans ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [["root", 0.0, 10.0, None],
             ["child", 1.0, 4.0, 0],
             ["grandchild", 2.0, 3.0, 1],
             ["child", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans == [["outer", 0.0, 3.0, None], ["inner", 1.0, 2.0, 0]]
    assert self_times(tracer.spans) == [2.0, 1.0]


def _tiny_step(model, seed=0):
    rng = np.random.RandomState(seed)
    image = Tensor(rng.rand(3, 16, 16).astype(np.float32))
    target = Tensor((rng.rand(1, 16, 16) > 0.5).astype(np.float32))
    loss = floodseg.dice_loss(model.forward(image), target)
    loss.backward()
    return loss.item()


def _tiny_model():
    spec = ModelSpec(input_size=16, widths=(4, 8), variant="gac-unet")
    return init_params(build_model(spec), 0)


def test_backward_is_attributed_to_layers_inside_the_backward_span():
    model = _tiny_model()
    with Tracer() as tracer:
        _tiny_step(model)
    spans = tracer.spans
    backward = [i for i, s in enumerate(spans) if s[0] == "tensor.backward"]
    assert len(backward) == 1
    b = backward[0]
    bwd = [s for s in spans if s[0].endswith(".bwd")]
    names = {s[0] for s in bwd}
    assert {"convnn.conv2d.bwd", "graphnn.gat_conv.bwd", "graphnn.cheb_conv.bwd",
            "convnn.loss.bwd"} <= names
    assert all(s[3] == b for s in bwd)
    layer_sum = sum(end - start for _, start, end, _ in bwd)
    assert 0 < layer_sum <= spans[b][2] - spans[b][1]
    assert self_times(spans)[b] >= 0


def test_tracing_does_not_change_results():
    plain = _tiny_step(_tiny_model())
    with Tracer():
        traced = _tiny_step(_tiny_model())
    assert plain == traced


def test_layer_self_times_add_up_to_the_traced_round():
    model = _tiny_model()
    with Tracer() as tracer:
        index = tracer.begin("bench.round")
        _tiny_step(model)
        tracer.end(index)
    rnd = Round(latencies=[tracer.spans[index][2] - tracer.spans[index][1]])
    metrics, table = per_layer(tracer, [rnd], [rnd], setups=1)
    # Every span the step records has a metric of its own; only the time
    # outside wrapped calls is untracked.
    assert {self_metric(name) for name in table["bench.round"]} - set(SELF_METRIC.values()) \
        == {"trace.untracked_ms"}
    assert [n for n in table["bench.round"] if self_metric(n) == "trace.untracked_ms"] \
        == ["bench.round"]
    layers = set(SELF_METRIC.values()) | {"trace.untracked_ms"}
    total = sum(metrics[name][0] for name in layers)
    assert total == pytest.approx(metrics["trace.self_sum_ms"][0], rel=1e-9)
    assert metrics["model.forward_self_ms"][0] > 0
    assert metrics["trace.overhead_ms"][0] == 0.0


def test_every_span_name_has_one_self_metric():
    names = {name for _, _, name in TARGETS} | {"bench.round"}
    for name in sorted(names | {n + ".bwd" for n in names}):
        assert isinstance(self_metric(name), str)
    assert self_metric("model.forward.bwd") == "model.forward_self_ms"
    assert self_metric("convnn.conv2d.bwd") == "convnn.conv2d.bwd_ms"
    assert self_metric("bench.round.bwd") == "tensor.backward_ms"
    assert self_metric("graphnn.build") == "trace.untracked_ms"


def _bindings():
    """Identity of every floodseg module global, class attribute and registry entry."""
    seen = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("floodseg"):
            continue
        for attr, value in vars(module).items():
            seen[(modname, attr)] = id(value)
            if isinstance(value, type):
                for name, member in vars(value).items():
                    seen[(modname, attr, name)] = id(member)
            elif isinstance(value, dict):
                for key, entry in value.items():
                    seen[(modname, attr, "[]", key)] = id(entry)
    return seen


def test_every_wrapped_function_is_restored():
    before = _bindings()
    tracer = Tracer().install()
    assert _bindings() != before
    _tiny_step(_tiny_model())
    tracer.restore()
    assert _bindings() == before


def test_every_target_exists():
    for owner, attr, _ in TARGETS:
        modname, _, clsname = owner.partition(":")
        holder = sys.modules[modname]
        if clsname:
            holder = getattr(holder, clsname)
        assert callable(getattr(holder, attr)), (owner, attr)


def test_exact_counters_repeat_across_traced_runs():
    counts = []
    for seed in (0, 1):
        with Tracer() as tracer:
            _tiny_step(_tiny_model(), seed)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["convnn.conv2d.calls"] == 7     # 2 per encoder stage, 2 decoders, head
    assert counts[0]["tensor.tape_nodes"] > 0
    # c_in * k * k * H * W float32 columns per conv; twice where the input needs a
    # gradient, which is every conv but the first (it sees the image).
    columns = [(3, 3, 16, 1), (4, 3, 16, 2), (4, 3, 8, 2), (8, 3, 8, 2),
               (18, 3, 8, 2), (12, 3, 16, 2), (4, 1, 16, 2)]
    assert counts[0]["convnn.im2col_bytes"] == sum(c * k * k * s * s * 4 * copies
                                                   for c, k, s, copies in columns)
    # gat_conv makes five 16x16 float32 outputs: pair scores, leaky relu, masking
    # product, masked sum, softmax.
    assert counts[0]["graphnn.dense_bytes"] == 5 * 16 * 16 * 4


def test_held_square_bytes_counts_dense_graph_matrices():
    model = _tiny_model()
    n = model.graph.node_count
    model.graph.attention_mask()
    # adjacency + attention mask on the graph; matrix + scaled on the Laplacian
    assert held_square_bytes(model.graph, model.laplacian) == 4 * n * n * 8
    assert held_square_bytes(None) == 0


# ---- workload helpers -----------------------------------------------------------------


def test_unit_latencies_restart_after_breaks():
    assert unit_latencies(0.0, [1.0, 3.0, 7.0], breaks=[5.0]) == [1.0, 2.0, 2.0]
    assert unit_latencies(10.0, [11.0, 11.5]) == [1.0, 0.5]


class _FakeWorkload:
    """Each set-up returns a new state and takes 1 ms; every call is logged."""

    def __init__(self):
        self.log = []

    def setup(self):
        self.log.append("setup")
        time.sleep(0.001)
        return self.log.count("setup")

    def run_round(self, state, timed):
        self.log.append("round")
        rnd = Round(attempted=1, samples=1, fingerprint=str(state))
        with timed(rnd):
            time.sleep(0.005)
        rnd.latencies = [rnd.seconds]
        return rnd


def test_set_ups_share_the_run_and_rounds_keep_the_first_state():
    workload = _FakeWorkload()
    setups, warmup, untraced, traced = run(workload, seconds=0.3)
    assert traced == [] and len(untraced) >= 2 and len(setups) > MIN_SETUPS
    assert {r.fingerprint for r in [warmup] + untraced} == {"1"}
    log = workload.log
    assert log[:2] == ["setup", "round"]          # first set-up, then the warm-up
    setup_at = [i for i, event in enumerate(log) if event == "setup"]
    middle = setup_at[len(setup_at) // 2]
    assert "round" in log[setup_at[1]:middle] and "round" in log[middle:setup_at[-1]]
    measured = sum(r.seconds for r in untraced) + sum(setups[1:])
    assert sum(setups[1:]) == pytest.approx(SETUP_SHARE * measured, rel=0.5)


def test_a_raising_warm_up_ends_the_run():
    class Broken(_FakeWorkload):
        def run_round(self, state, timed):
            raise ValueError("broken")

    setups, warmup, untraced, traced = run(Broken(), seconds=0.1)
    assert warmup.failed == 1 and untraced == [] and traced == []
    assert len(setups) == MIN_SETUPS


def test_mask_problem_checks_shape_and_values(tmp_path):
    good = tmp_path / "good.pgm"
    floodseg.save_mask(good, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]], dtype=np.float32))
    assert mask_problem(good, (2, 3)) is None
    assert "scene is 3x2" in mask_problem(good, (3, 2))
    grey = tmp_path / "grey.pgm"
    floodseg.save_mask(grey, np.full((2, 3), 0.5, dtype=np.float32))
    assert "other than 0 and 255" in mask_problem(grey, (2, 3))



# ---- process settings ---------------------------------------------------------


def test_keep_freed_memory_refuses_once_numpy_is_loaded():
    with pytest.raises(RuntimeError):
        keep_freed_memory()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
def test_kept_memory_is_reused_without_new_page_faults():
    probe = (
        "import resource, run\n"
        "kept = run.keep_freed_memory()\n"
        "import numpy as np\n"
        "np.ones(1 << 24).sum()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    np.ones(1 << 24).sum()\n"
        "print(kept, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent,
                         capture_output=True, text=True, check=True).stdout.split()
    if out[0] != "True":
        pytest.skip("the C library has no mallopt")
    # Returned to the kernel, five 128 MiB arrays fault in again: about 3000
    # times with transparent huge pages, about 160000 times without.
    assert int(out[1]) < 100
