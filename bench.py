"""Held-out attack benchmark: python bench.py OUT

Runs 12-epoch TIRA patch on the datasets of seeds 7 (the default), 2 and 3,
and on the default dataset also the four 1-epoch attacks perfbench runs
(tira patch, ira global linf, tra patch, tra global linf). It writes one
JSON file to OUT with, for each run, every epoch's full-set adversarial
TR/IR R@10, the PerturbedBatch forwards and backwards it made, its stop
reasons and total_inner_iterations, and the SHA-256 of delta (the bytes of
the delta.uapt `uapkit attack` would write). Everything but each run's
wall_clock_seconds is deterministic on one machine with one BLAS build.

It imports uapkit from this checkout's src/, checks nothing and gates
nothing: it records the curves that a change to the attack is judged on.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import numpy as np  # noqa: E402

from uapkit import (AttackConfig, Carrier, DatasetParams, PerturbedBatch,  # noqa: E402
                    build_dataset, default_toy_encoder, run_attack)
from uapkit.attack import EPS_LINF_DEFAULT  # noqa: E402
from uapkit.core import patch_side_for_area, square_patch_mask  # noqa: E402
from uapkit.tensor_io import tensor_sha256  # noqa: E402

HELD_OUT_SEEDS = (7, 2, 3)  # 7 is DatasetParams' default
LONG_EPOCHS = 12
# the 1-epoch attacks of perfbench's workloads: (strategy, mode, norm)
SHORT_RUNS = (("tira", "patch", None), ("ira", "global", "linf"),
              ("tra", "patch", None), ("tra", "global", "linf"))


def carrier_for(mode: str, norm: str | None, image_shape) -> Carrier:
    """`uapkit attack`'s default carrier for mode and norm."""
    if mode == "patch":
        side = patch_side_for_area(image_shape)
        return Carrier("patch", square_patch_mask(image_shape, side))
    return Carrier("global", norm=norm, epsilon=EPS_LINF_DEFAULT)


def counted_attack(enc, ds, cfg: AttackConfig, strategy: str) -> dict:
    """run_attack with every PerturbedBatch forward_points and step call
    counted; a step call is one backward."""
    counts = {"forwards": 0, "backwards": 0}
    forward_points, step = PerturbedBatch.forward_points, PerturbedBatch.step

    def counting_forward_points(self, *args, **kwargs):
        counts["forwards"] += 1
        return forward_points(self, *args, **kwargs)

    def counting_step(self, *args, **kwargs):
        counts["backwards"] += 1
        return step(self, *args, **kwargs)

    PerturbedBatch.forward_points, PerturbedBatch.step = counting_forward_points, counting_step
    try:
        start = time.perf_counter()
        perturbation, trace = run_attack(enc, ds, cfg, strategy)
        seconds = time.perf_counter() - start
    finally:
        PerturbedBatch.forward_points, PerturbedBatch.step = forward_points, step
    summary = trace.summary()
    return {
        "epoch_metrics": trace.epoch_metrics,
        **counts,
        "stop_reasons": summary["stop_reasons"],
        "total_inner_iterations": summary["total_inner_iterations"],
        "delta_sha256": tensor_sha256(perturbation.delta),
        "wall_clock_seconds": seconds,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python bench.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    enc = default_toy_encoder()
    runs = {}
    for seed in HELD_OUT_SEEDS:
        ds = build_dataset(DatasetParams(seed=seed), enc)
        shape = ds.params.image_shape
        plan = [("tira", "patch", None, LONG_EPOCHS)]
        if seed == DatasetParams.seed:
            plan += [(*run, 1) for run in SHORT_RUNS]
        for strategy, mode, norm, epochs in plan:
            name = f"{strategy}_{mode}{'_' + norm if norm else ''}_{epochs}ep_seed{seed}"
            cfg = AttackConfig(carrier_for(mode, norm, shape), epochs=epochs)
            runs[name] = {"dataset_seed": seed, "strategy": strategy, "mode": mode,
                          "norm": norm, "epochs": epochs,
                          **counted_attack(enc, ds, cfg, strategy)}
            print(f"{name}: {runs[name]['wall_clock_seconds']:.2f} s", file=sys.stderr)
    result = {
        "not_deterministic": ["wall_clock_seconds"],
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count()},
        "runs": runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
