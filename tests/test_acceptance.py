"""Acceptance gate: one test per release criterion.

Each test prints exactly one `criterion N: PASS/FAIL - detail` line (visible
with `pytest -s`) and then asserts, so a red criterion is both visible in the
log and fails the suite. Benchmark-scale runs are shared through session
fixtures to keep the total wall clock reasonable.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from uapkit.attack import (AttackConfig, EPS_L2_DEFAULT, EPS_LINF_DEFAULT,
                           evaluate_metrics, run_attack)
from uapkit.boundary import (LinearClassifier, binary_min_perturbation,
                             cross_k_boundaries, multiclass_min_perturbation,
                             nearest_boundary)
from uapkit.core import (Carrier, apply_patch, patch_side_for_area, project_l2,
                         project_linf, square_patch_mask)
from uapkit.datagen import (DatasetParams, FLOOR_K, FLOOR_MULTIPLIER,
                            build_dataset)
from uapkit.encoder import (build_encoder, default_toy_encoder, encode_batch,
                            gradcheck)
from uapkit.retrieval import EmbeddingIndex, recall_at_k

BENCH_SHAPE = (3, 32, 32)
BENCH_MASK = square_patch_mask(BENCH_SHAPE, patch_side_for_area(BENCH_SHAPE))

# Post-attack benchmark numbers, captured once from the first green run and
# pinned with +/-0.01 absolute tolerance thereafter (criterion 6).
ANCHOR_TOL = 0.01
TIRA_ANCHORS: dict | None = {"tr_r10": 0.065, "ir_r10": 0.166}


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -- shared benchmark fixtures ----------------------------------------------


@pytest.fixture(scope="session")
def bench():
    enc = default_toy_encoder()
    ds = build_dataset(DatasetParams(), enc)  # raises if the clean floor fails
    clean = evaluate_metrics(enc, ds, None, (10,))
    return enc, ds, clean


@pytest.fixture(scope="session")
def tira_run(bench):
    enc, ds, _ = bench
    cfg = AttackConfig(Carrier("patch", BENCH_MASK), k=10, eta=0.02, epochs=10, seed=7)
    t0 = time.monotonic()
    pert, trace = run_attack(enc, ds, cfg, "tira")
    elapsed = time.monotonic() - t0
    adv = evaluate_metrics(enc, ds, pert, (10,))
    return pert, trace, adv, elapsed


@pytest.fixture(scope="session")
def single_strategy_runs(bench):
    # Strategy comparison (criterion 7) at reduced epochs: the asymmetry is
    # directional and already separates clearly after 3 passes, while two
    # extra full 10-epoch runs would triple the gate's wall clock.
    enc, ds, _ = bench
    out = {}
    for strategy in ("tra", "ira"):
        cfg = AttackConfig(Carrier("patch", BENCH_MASK), k=10, eta=0.02, epochs=3, seed=7)
        pert, _ = run_attack(enc, ds, cfg, strategy)
        out[strategy] = evaluate_metrics(enc, ds, pert, (10,))
    return out


@pytest.fixture(scope="session")
def global_runs(bench):
    # Budget invariants (criterion 8) hold per commit, so 2 epochs already
    # exercise every projection path without another 10-epoch run.
    enc, ds, _ = bench
    runs = {}
    for name, norm, eps in (("l2", "l2", EPS_L2_DEFAULT),
                            ("linf", "linf", EPS_LINF_DEFAULT),
                            ("tiny", "l2", 1e-9)):
        cfg = AttackConfig(Carrier("global", norm=norm, epsilon=eps), k=10, eta=0.02,
                           epochs=2, seed=7)
        pert, trace = run_attack(enc, ds, cfg, "tra")
        runs[name] = (pert, trace, evaluate_metrics(enc, ds, pert, (10,)))
    return runs


# -- criteria ----------------------------------------------------------------


def test_criterion_1_linear_geometry_exactness():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst_boundary, worst_norm = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        w = rng.normal(size=n)
        b = float(rng.normal())
        x = rng.normal(size=n)
        r = binary_min_perturbation(w, b, x)
        f_after = abs(float(w @ (x + r)) + b)
        dist = abs(float(w @ x) + b) / np.linalg.norm(w)  # oracle distance
        worst_boundary = max(worst_boundary, f_after / np.linalg.norm(w))
        worst_norm = max(worst_norm, abs(np.linalg.norm(r) - dist))
    elapsed = time.monotonic() - t0
    ok = worst_boundary <= 1e-9 and worst_norm <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"boundary residual {worst_boundary:.2e}, "
                   f"norm error {worst_norm:.2e}, {elapsed:.2f}s")


def test_criterion_2_multiclass_minimality():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = 0.0
    nearest_agree = 0
    for _ in range(500):
        n = int(rng.integers(5, 21))
        C = int(rng.integers(3, 21))
        clf = LinearClassifier(rng.normal(size=(C, n)), rng.normal(size=C))
        x = rng.normal(size=n)
        y = clf.predict(x)
        r = multiclass_min_perturbation(clf, x, y)
        # brute-force oracle: distance to every other class boundary
        s = clf.scores(x)
        dists = [(s[y] - s[i]) / np.linalg.norm(clf.weights[y] - clf.weights[i])
                 for i in range(C) if i != y]
        worst = max(worst, abs(np.linalg.norm(r) - min(dists)))
        others = [i for i in range(C) if i != y]
        exhaustive = min(others, key=lambda i: (
            (s[y] - s[i]) / np.linalg.norm(clf.weights[y] - clf.weights[i]), i))
        nearest_agree += nearest_boundary(clf, x, y) == exhaustive
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and nearest_agree == 500 and elapsed < 5.0
    _report(2, ok, f"norm error {worst:.2e}, nearest agreement "
                   f"{nearest_agree}/500, {elapsed:.2f}s")


def test_criterion_3_topk_crossing():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    converged = 0
    rank_ok = 0
    for _ in range(200):
        clf = LinearClassifier(rng.normal(size=(50, 20)), rng.normal(size=50))
        x = rng.normal(size=20)
        y = clf.predict(x)
        report = cross_k_boundaries(clf, x, y, k=5, eta=0.02)
        converged += report.converged
        # oracle: full sort of the scores at the overshot point
        s = clf.scores(x + report.perturbation)
        rank = int(np.sum(s > s[y]))  # classes strictly above the true class
        rank_ok += rank >= 5
    elapsed = time.monotonic() - t0
    ok = converged == 200 and rank_ok == 200 and elapsed < 10.0
    _report(3, ok, f"converged {converged}/200, rank>5 on {rank_ok}/200, "
                   f"{elapsed:.2f}s")


def test_criterion_4_gradient_soundness():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    shape = (1, 8, 8)
    worst = 0.0
    for kind, widths in (("linear", ()), ("mlp", (32, 16))):
        enc = build_encoder(kind, shape, 16, widths, "tanh", seed=11)
        for pair in range(20):
            image = rng.uniform(size=shape)
            t = rng.normal(size=16)
            t /= np.linalg.norm(t)
            worst = max(worst, gradcheck(enc, image, t, n_probes=50,
                                         step=1e-5, seed=pair))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(4, ok, f"max relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_projection_and_patch_invariants():
    rng = np.random.default_rng(5)
    t0 = time.monotonic()
    ok = True
    for _ in range(10_000):
        delta = rng.normal(scale=2.0, size=(3, 4, 4))
        eps = float(rng.uniform(0.01, 3.0))
        p2 = project_l2(delta, eps)
        pinf = project_linf(delta, eps)
        ok &= np.linalg.norm(p2) <= eps + 1e-9
        ok &= float(np.abs(pinf).max()) <= eps + 1e-12
        ok &= np.array_equal(project_l2(p2, eps), p2)          # idempotence
        ok &= np.array_equal(project_linf(pinf, eps), pinf)
        norm = np.linalg.norm(delta)
        if norm > 1e-12:  # l2 projection preserves direction
            cos = float(np.vdot(p2, delta)) / (np.linalg.norm(p2) * norm)
            ok &= cos > 1.0 - 1e-9
        image = rng.uniform(size=(3, 4, 4))
        mask = np.broadcast_to(
            (rng.uniform(size=(1, 4, 4)) < 0.5).astype(float), (3, 4, 4)).copy()
        patched = apply_patch(image, np.clip(np.abs(delta), 0, 1), mask)
        off = mask == 0.0
        ok &= np.array_equal(patched[off], image[off])  # bit-equality off mask
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(5, ok, f"10^4 random tensors, {elapsed:.2f}s")


def test_criterion_6_end_to_end_benchmark(bench, tira_run):
    enc, ds, clean = bench
    pert, trace, adv, elapsed = tira_run
    floor = FLOOR_MULTIPLIER * FLOOR_K / ds.params.n_texts
    halved = (adv["tr_r10"] <= 0.5 * clean["tr_r10"]
              and adv["ir_r10"] <= 0.5 * clean["ir_r10"])
    anchored = True
    if TIRA_ANCHORS is not None:
        anchored = all(abs(adv[k] - v) <= ANCHOR_TOL
                       for k, v in TIRA_ANCHORS.items())
    ok = clean["tr_r10"] >= floor and halved and anchored and elapsed < 300.0
    _report(6, ok,
            f"clean TR/IR R@10 {clean['tr_r10']:.3f}/{clean['ir_r10']:.3f} -> "
            f"adv {adv['tr_r10']:.3f}/{adv['ir_r10']:.3f} "
            f"(need <= {0.5 * clean['tr_r10']:.3f}/{0.5 * clean['ir_r10']:.3f}), "
            f"anchors {'ok' if anchored else 'drifted'}, {elapsed:.0f}s")


def test_criterion_7_strategy_asymmetry(bench, single_strategy_runs):
    _, _, clean = bench
    tra, ira = single_strategy_runs["tra"], single_strategy_runs["ira"]
    asym = tra["ir_r10"] >= ira["ir_r10"]
    ira_both = (ira["tr_r10"] < clean["tr_r10"]
                and ira["ir_r10"] < clean["ir_r10"])
    ok = asym and ira_both
    _report(7, ok,
            f"IR R@10: tra {tra['ir_r10']:.3f} >= ira {ira['ir_r10']:.3f}; "
            f"ira degrades TR {clean['tr_r10']:.3f}->{ira['tr_r10']:.3f}, "
            f"IR {clean['ir_r10']:.3f}->{ira['ir_r10']:.3f}")


def test_criterion_8_global_budgets(bench, global_runs):
    _, _, clean = bench
    _, trace_l2, _ = global_runs["l2"]
    _, trace_linf, _ = global_runs["linf"]
    l2_ok = all(c.norm_l2 <= EPS_L2_DEFAULT + 1e-9 for c in trace_l2.commits)
    linf_ok = all(c.norm_linf <= EPS_LINF_DEFAULT + 1e-12
                  for c in trace_linf.commits)
    _, _, tiny = global_runs["tiny"]
    drift = max(abs(tiny[k] - clean[k]) for k in ("tr_r10", "ir_r10"))
    ok = l2_ok and linf_ok and drift <= 0.01
    _report(8, ok,
            f"l2 commits <= eps: {l2_ok} ({len(trace_l2.commits)} commits), "
            f"linf commits <= eps: {linf_ok}, tiny-eps drift {drift:.4f}")


def test_criterion_9_cli_determinism(tmp_path):
    # Two identical CLI attack invocations at reduced epochs; determinism is
    # epoch-agnostic (same code path per commit) and the full-length run is
    # already timed by criterion 6.
    gen_dir = tmp_path / "data"
    base = [sys.executable, "-m", "uapkit.cli"]
    subprocess.run(base + ["gen", "--out", str(gen_dir)], check=True,
                   capture_output=True)
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run(
            base + ["attack", "--strategy", "tira", "--mode", "patch",
                    "--epochs", "2", "--seed", "7",
                    "--dataset", str(gen_dir / "manifest.json"),
                    "--out", str(out)],
            check=True, capture_output=True)
        sidecar = json.loads((out / "delta.json").read_text())
        digests.append((sidecar["delta_sha256"],
                        (out / "delta.uapt").read_bytes()))
    ok = digests[0] == digests[1]
    _report(9, ok, f"delta sha256 {digests[0][0][:16]}... "
                   f"{'==' if ok else '!='} {digests[1][0][:16]}...")
