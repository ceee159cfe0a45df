"""Whole-engine acceptance checks.

One test per shipped guarantee, each ending in a single PASS line with the
measured numbers (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). The loss-comparison study is reported but never gated.
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from floodseg.checks import (END_TO_END_TOLERANCE, LAYER_TOLERANCE,
                             run_gradient_suite)
from floodseg.cli import main
from floodseg.dataio import (ImagePair, ManifestEntry, binarize_mask, load_image,
                             load_mask, read_manifest, resize_bilinear)
from floodseg.graphnn import (Graph, build_grid_graph, cheb_conv, gat_conv,
                              normalized_laplacian)
from floodseg.metrics import dice_score, evaluate, iou
from floodseg.model import ModelSpec, build_model, init_params, save_model
from floodseg.reprogram import make_pretrained_base
from floodseg.synthetic import write_flood_set
from floodseg.tensor import Tensor
from floodseg.train import train_model


def _report(line: str):
    print(f"\n{line}", flush=True)


def _random_connected_graph(rng, n: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        j = rng.randint(i)
        u, v = int(order[i]), int(order[j])
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randint(n), rng.randint(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small raw corpus and its prepared split, shared by the CLI checks."""
    root = tmp_path_factory.mktemp("acceptws")
    raw = root / "raw"
    write_flood_set(raw, count=6, size=32, seed=0)
    with redirect_stdout(io.StringIO()):
        assert main(["prepare", "--dataset_dir", str(raw), "--out_dir",
                     str(root / "data"), "--resize", "16", "--crop", "8"]) == 0
    return {"root": root, "manifest": root / "data" / "manifest.tsv"}


def test_gradient_suite_meets_tolerances():
    t0 = time.monotonic()
    results = run_gradient_suite(seed=0)
    elapsed = time.monotonic() - t0
    for r in results:
        assert r.max_error < r.tolerance, f"{r.name}: {r.max_error:.3e} >= {r.tolerance:.0e}"
    layer_max = max(r.max_error for r in results if r.tolerance == LAYER_TOLERANCE)
    e2e = [r for r in results if r.tolerance == END_TO_END_TOLERANCE]
    assert e2e, "end-to-end differentiation check missing from the suite"
    assert elapsed < 120.0
    _report(f"PASS gradient suite: {len(results)} checks, max layer error "
            f"{layer_max:.2e} < {LAYER_TOLERANCE:.0e}, end-to-end "
            f"{e2e[0].max_error:.2e} < {END_TO_END_TOLERANCE:.0e} ({elapsed:.1f}s)")


def test_chebyshev_filter_matches_spectral_oracle_on_small_graphs():
    rng = np.random.RandomState(0)
    graphs = []
    for n in range(2, 11):
        graphs.append(Graph(n, [(i, i + 1) for i in range(n - 1)]))            # paths
        graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))  # complete
    for n in range(3, 11):
        graphs.append(Graph(n, [(i, (i + 1) % n) for i in range(n)]))          # cycles
        graphs.append(Graph(n, [(0, i) for i in range(1, n)]))                 # stars
    for h in range(1, 11):
        for w in range(1, 11):
            if 2 <= h * w <= 10:
                graphs.append(build_grid_graph(h, w, connectivity=4))
                graphs.append(build_grid_graph(h, w, connectivity=8))
    for _ in range(12):
        graphs.append(_random_connected_graph(rng, rng.randint(2, 11)))

    worst = 0.0
    evaluations = 0
    for graph in graphs:
        n = graph.node_count
        lap = normalized_laplacian(graph)
        evals, vecs = np.linalg.eigh(lap.matrix)
        mu = np.clip(evals - 1.0, -1.0, 1.0)
        x = rng.uniform(-1, 1, (n, 3))
        for order in range(5):
            thetas = [rng.uniform(-1, 1, (2, 3)) for _ in range(order + 1)]
            want = np.zeros((n, 2))
            for k, theta in enumerate(thetas):
                basis = vecs @ np.diag(np.cos(k * np.arccos(mu))) @ vecs.T
                want += basis @ x @ theta.T
            got = cheb_conv(Tensor(x), lap, [Tensor(t) for t in thetas]).data
            worst = max(worst, float(np.abs(got - want).max()))
            evaluations += 1
    assert worst < 1e-8
    _report(f"PASS polynomial graph filter vs eigendecomposition oracle: "
            f"{len(graphs)} connected graphs (<=10 nodes) x orders 0..4, "
            f"{evaluations} evaluations, max |difference| {worst:.2e} < 1e-8")


def test_attention_is_normalized_and_permutation_equivariant():
    rng = np.random.RandomState(1)
    worst_rowsum = 0.0
    worst_equiv = 0.0
    for _ in range(50):
        graph = _random_connected_graph(rng, 6)
        x = rng.uniform(-1, 1, (6, 4))
        params = Tensor(rng.uniform(-1, 1, (3, 4))), Tensor(rng.uniform(-1, 1, 6))
        out, attention = gat_conv(Tensor(x), graph, *params, return_attention=True)
        row_sums = attention.data.sum(axis=1)
        worst_rowsum = max(worst_rowsum, float(np.abs(row_sums - 1.0).max()))
        off_mask = graph.attention_mask() == 0.0
        assert np.all(attention.data[off_mask] == 0.0)

        perm = rng.permutation(6)
        mapped = [(int(perm[u]), int(perm[v])) for u, v in graph.edges]
        permuted_x = np.empty_like(x)
        permuted_x[perm] = x
        out_perm = gat_conv(Tensor(permuted_x), Graph(6, mapped), *params).data
        worst_equiv = max(worst_equiv, float(np.abs(out_perm[perm] - out.data).max()))
    assert worst_rowsum < 1e-6
    assert worst_equiv < 1e-10
    _report(f"PASS graph attention: 50 random 6-node graphs, max |row sum - 1| "
            f"{worst_rowsum:.2e} < 1e-6, permutation equivariance error "
            f"{worst_equiv:.2e} < 1e-10")


def test_metrics_match_pixel_count_oracle():
    rng = np.random.RandomState(2)
    worst_relation = 0.0
    for _ in range(100):
        pred = (rng.uniform(0, 1, (16, 16)) > rng.uniform(0.2, 0.8)).astype(np.uint8)
        true = (rng.uniform(0, 1, (16, 16)) > rng.uniform(0.2, 0.8)).astype(np.uint8)
        inter = union = np_ = nt = 0
        for p, t in zip(pred.ravel(), true.ravel()):
            p, t = bool(p), bool(t)
            inter += p and t
            union += p or t
            np_ += p
            nt += t
        j = iou(pred, true)
        d = dice_score(pred, true)
        assert j == (1.0 if union == 0 else inter / union)
        assert d == (1.0 if np_ + nt == 0 else 2 * inter / (np_ + nt))
        worst_relation = max(worst_relation, abs(d - 2 * j / (1 + j)))
    assert worst_relation < 1e-12
    _report(f"PASS overlap metrics: 100 random 16x16 pairs match the pixel-count "
            f"oracle exactly; max |dice - 2*iou/(1+iou)| {worst_relation:.2e} < 1e-12")


def test_prepare_split_cardinality_at_scale(tmp_path, capsys):
    t0 = time.monotonic()
    raw = tmp_path / "raw"
    write_flood_set(raw, count=290, size=16, seed=0)
    assert main(["prepare", "--dataset_dir", str(raw), "--out_dir",
                 str(tmp_path / "data"), "--resize", "16", "--crop", "8"]) == 0
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert "203 train / 87 test, 3045 augmented train pairs" in out
    entries = read_manifest(tmp_path / "data" / "manifest.tsv")
    train_rows = sum(e.split == "train" for e in entries)
    test_rows = sum(e.split == "test" for e in entries)
    assert (train_rows, test_rows) == (3045, 87)
    assert elapsed < 60.0
    _report(f"PASS dataset preparation: 290 sources -> 203 train / 87 test, "
            f"3045 augmented train pairs ({elapsed:.1f}s < 60s)")


def test_training_reaches_target_dice(tmp_path):
    t0 = time.monotonic()
    written = write_flood_set(tmp_path / "set", count=20, size=64, seed=0)
    entries = [ManifestEntry(i, m, "train") for i, m in written]
    spec = ModelSpec(input_size=64, widths=(8, 16, 32), seed=0)
    net = init_params(build_model(spec), 0)
    result = train_model(net, entries, loss="dice", epochs=300, batch_size=4,
                         lr=0.003, seed=0, early_stop_train_dice=0.95)
    pairs = [ImagePair(load_image(i), binarize_mask(load_mask(m)), Path(i).stem)
             for i, m in written]
    report = evaluate(net.predict_proba, pairs)
    elapsed = time.monotonic() - t0
    assert len(result.rows) <= 300
    assert report.mean_dice >= 0.95
    assert elapsed < 600.0
    _report(f"PASS training: 20-scene 64x64 set, widths (8,16,32), overlap loss; "
            f"train dice {report.mean_dice:.4f} >= 0.95 after {len(result.rows)} "
            f"epochs ({elapsed:.1f}s < 600s)")


def test_loss_comparison_study_is_reported_not_gated(tmp_path):
    t0 = time.monotonic()
    wins = 0
    details = []
    for seed in range(5):
        written = write_flood_set(tmp_path / f"seed{seed}", count=18, size=48,
                                  seed=100 + seed, blob_scale=0.45)
        train_entries = [ManifestEntry(i, m, "train") for i, m in written[:12]]
        test_pairs = [ImagePair(load_image(i), binarize_mask(load_mask(m)), Path(i).stem)
                      for i, m in written[12:]]
        scores = {}
        for loss in ("dice", "bce"):
            spec = ModelSpec(input_size=24, widths=(4, 8), seed=seed)
            net = init_params(build_model(spec), seed)
            train_model(net, train_entries, loss=loss, epochs=60, batch_size=4,
                        lr=0.003, seed=seed)

            def predict(image, net=net):
                prob = net.predict_proba(resize_bilinear(image, 24, 24))
                return resize_bilinear(prob, image.shape[0], image.shape[1])

            scores[loss] = evaluate(predict, test_pairs).mean_dice
        wins += scores["dice"] > scores["bce"]
        details.append(f"seed {seed}: {scores['dice']:.3f} vs {scores['bce']:.3f}")
    elapsed = time.monotonic() - t0
    verdict = "supports" if wins >= 3 else "does not support"
    _report(f"REPORTED (never gated): overlap-loss training beats cross-entropy "
            f"on held-out dice in {wins}/5 seeds ({'; '.join(details)}) — "
            f"{verdict} the expected >=3/5 at this desk scale ({elapsed:.1f}s)")


def test_reprogramming_trains_wrapper_without_touching_base(workspace, capsys):
    root = workspace["root"]
    base = root / "accept_base.gacm"
    save_model(make_pretrained_base(c_old=4, size=16, seed=0), base)
    base_bytes = base.read_bytes()

    assert main(["reprogram", "--base_model", str(base),
                 "--manifest", str(workspace["manifest"]),
                 "--out_dir", str(root / "rp_run"), "--steps", "100"]) == 0
    out = capsys.readouterr().out
    checksums = [line.split(": ")[1] for line in out.splitlines()
                 if line.startswith("frozen base checksum:")]
    assert len(checksums) == 2 and checksums[0] == checksums[1]
    assert base.read_bytes() == base_bytes
    loss_line = next(line for line in out.splitlines() if line.startswith("loss:"))
    initial, final = float(loss_line.split()[1]), float(loss_line.split()[3])
    assert final < initial
    _report(f"PASS frozen-base reprogramming: 100 steps, base file byte-identical, "
            f"recomputed checksum unchanged, dataset loss {initial:.4f} -> {final:.4f}")


def test_repeated_training_is_bit_identical(workspace, tmp_path):
    t0 = time.monotonic()
    flags = ["--manifest", str(workspace["manifest"]), "--input_size", "8",
             "--widths", "2,4", "--gat_out", "4", "--cheb_order", "1",
             "--cheb_out", "4", "--epochs", "2", "--batch_size", "4", "--seed", "0"]
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        with redirect_stdout(io.StringIO()):
            assert main(["train", "--out_dir", str(out_dir)] + flags) == 0
        log = [line for line in
               (out_dir / "train.log").read_text(encoding="utf-8").splitlines()
               if not line.startswith("# out_dir=")]
        outputs.append(((out_dir / "model.gacm").read_bytes(), log))
    elapsed = time.monotonic() - t0
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert elapsed < 300.0
    _report(f"PASS determinism: two identical training invocations produced "
            f"byte-identical models ({len(outputs[0][0])} bytes) and logs "
            f"({elapsed:.1f}s < 300s)")
