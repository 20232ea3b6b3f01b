"""uapkit benchmark: attack and eval workloads through the public CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tira_patch --seed 1 --seconds 15 --trace 0

Each run generates the standard synthetic benchmark with `uapkit gen`, then
sends operations in a closed loop from one client, in-process through
`uapkit.cli.main`. It checks every operation's outputs and prints, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, or the
per-layer metrics with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import machine
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

ATTACK_EPOCHS = "1"
SETUP_REPS = 5          # set-up runs per run; setup_s is their median
EVAL_BLOCK = 40         # evals of the attack's delta after an attack loop
MIN_EVALS = 40          # eval_cli keeps going past --seconds until it has these
TRACED_EVALS = 10       # eval operations in the traced pass of eval_cli
PREP_ROUNDS = 3         # rounds of eval_cli's two set-up attacks; attack_s samples
TAIL_PERCENTILE = 75    # highest percentile with >= 10 samples beyond at 40
MAX_PROBLEMS = 20       # problems kept in the result file

# workload -> attacks it measures; eval_cli makes its two perturbations with
# short tra attacks and measures `uapkit eval` of them
WORKLOADS = {
    "tira_patch": {"attacks": {"tira": ["--strategy", "tira"]}, "halving": True},
    "ira_global_linf": {
        "attacks": {"ira": ["--strategy", "ira", "--mode", "global", "--norm", "linf"]},
        "halving": True},
    "eval_cli": {
        "attacks": {"tra_patch": ["--strategy", "tra"],
                    "tra_linf": ["--strategy", "tra", "--mode", "global", "--norm", "linf"]},
        "halving": False},
}


def _load_program():
    """Import uapkit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "uapkit" / "cli.py").is_file():
        sys.exit(f"error: no uapkit sources under {src}")
    sys.path.insert(0, str(src))
    import uapkit
    import uapkit.cli
    if Path(uapkit.__file__).resolve().parent != (src / "uapkit").resolve():
        sys.exit(f"error: imported uapkit from {uapkit.__file__}, not {src}")
    return uapkit


class Run:
    """One benchmark run: set-up, closed-loop operations, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, uapkit):
        self.uapkit = uapkit
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / f"work-{workload}-seed{seed}-{id(self):x}"
        self.schema = checks.ReportSchema(ROOT / "docs" / "report.schema.json")
        code = checks.code_hash(ROOT / "src")
        self.fingerprints = checks.Fingerprints(
            OUT / "fingerprints" / f"{workload}-seed{seed}-{code[:16]}.json")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self.data = self.encoder = self.image_shape = None
        self.references: dict[str, dict] = {}   # attack label -> its report
        self.attack_reports: list[dict] = []

    # -- operations --------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, float, str]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.uapkit.cli.main(argv)
        return rc, time.perf_counter() - start, buf.getvalue()

    def operation(self, label: str, body) -> float | None:
        """Run body() -> (seconds, problems); count and report a failure."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        try:
            seconds, problems = body()
        except Exception:  # an operation that raises is a failed operation
            seconds, problems = None, [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {label}: {p}", file=sys.stderr)
            self.problems.extend(f"{label}: {p}" for p in problems)
            return None
        return seconds

    def setup_once(self, rep: int) -> float | None:
        """`uapkit gen` of the standard benchmark, then load what it wrote."""
        out = self.work / f"data-{rep}"

        def body():
            start = time.perf_counter()
            rc, _, _ = self._cli(["gen", "--out", str(out)])
            if rc != 0:
                return None, [f"gen exit code {rc}"]
            ds = self.uapkit.datagen.load(out / "manifest.json")
            enc = self.uapkit.encoder.load_encoder(out / "encoder.json")
            elapsed = time.perf_counter() - start
            if self.data is None:
                self.data, self.encoder, self.image_shape = out, enc, ds.params.image_shape
            return elapsed, self.fingerprints.problems({"dataset_sha256": ds.dataset_hash})

        seconds = self.operation(f"setup[{rep}]", body)
        if out != self.data:
            shutil.rmtree(out, ignore_errors=True)
        return seconds

    def _data_args(self) -> list[str]:
        return ["--dataset", str(self.data / "manifest.json"),
                "--encoder", str(self.data / "encoder.json")]

    def attack(self, label: str, out: Path) -> float | None:
        def body():
            argv = ["attack", *self.spec["attacks"][label], "--epochs", ATTACK_EPOCHS,
                    "--seed", str(self.seed), *self._data_args(), "--out", str(out)]
            rc, seconds, text = self._cli(argv)
            if rc != 0:
                return seconds, [f"attack exit code {rc}"]
            report = json.loads(text)
            commits = len(json.loads((out / "trace.json").read_text())["commits"])
            problems = self.schema.problems(report)
            problems += checks.delta_problems(out, self.image_shape)
            if self.spec["halving"]:
                problems += checks.halving_problems(report)
            summary = report["trace_summary"]
            problems += self.fingerprints.problems({
                f"{label}.delta_sha256": checks.sha256_of(out / "delta.uapt"),
                f"{label}.inner_iters": summary["total_inner_iterations"],
                f"{label}.commits": commits,
                f"{label}.adv_tr_r10": report["adversarial"]["tr_r10"],
                f"{label}.adv_ir_r10": report["adversarial"]["ir_r10"],
            })
            if not problems:
                report["commits"] = commits
                self.references[label] = report
                self.attack_reports.append(report)
            return seconds, problems

        return self.operation(f"attack {label}", body)

    def evaluate(self, label: str, out: Path) -> float | None:
        def body():
            argv = ["eval", "--perturbation", str(out / "delta.json"), *self._data_args()]
            rc, seconds, text = self._cli(argv)
            if rc != 0:
                return seconds, [f"eval exit code {rc}"]
            report = json.loads(text)
            problems = self.schema.problems(report)
            problems += checks.eval_problems(
                report, self.references[label], checks.sha256_of(out / "delta.uapt"))
            return seconds, problems

        return self.operation(f"eval {label}", body)

    # -- workload phases ---------------------------------------------------

    def attack_dir(self, label: str) -> Path:
        return self.work / f"attack-{label}"

    def eval_label(self, i: int) -> str:
        """The i-th perturbation to evaluate: alternating, from where the seed says."""
        labels = list(self.spec["attacks"])
        return labels[(self.seed + i) % len(labels)]

    def closed_loop(self, step, minimum: int = 1) -> list[float]:
        """Call step(i) back to back for --seconds, and at least minimum times."""
        times = []
        start = time.perf_counter()
        i = 0
        while i < minimum or time.perf_counter() - start < self.seconds:
            seconds = step(i)
            if seconds is not None:
                times.append(seconds)
            i += 1
        return times

    def main_phase(self, eval_block: bool = True) -> tuple[list[float], list[float]]:
        """(attack times, eval times) of the measured loop.

        On an attack workload, eval_block adds EVAL_BLOCK evals of the
        attack's delta after the loop.
        """
        labels = list(self.spec["attacks"])
        if self.workload == "eval_cli":
            attacks = [self.attack(label, self.attack_dir(label))
                       for _ in range(PREP_ROUNDS) for label in labels]
            evals = self.closed_loop(lambda i: self.evaluate(
                self.eval_label(i), self.attack_dir(self.eval_label(i))), MIN_EVALS)
            return [t for t in attacks if t is not None], evals
        label = labels[0]
        attacks = self.closed_loop(lambda i: self.attack(label, self.attack_dir(label)))
        evals = []
        if eval_block and label in self.references:
            evals = [t for t in (self.evaluate(label, self.attack_dir(label))
                                 for _ in range(EVAL_BLOCK)) if t is not None]
        return attacks, evals


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run, setups, attacks, evals) -> dict:
    def adv(key):
        return _median([r["adversarial"][key] for r in run.attack_reports])

    tail = (statistics.quantiles(evals, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
            if len(evals) >= 2 else float("nan"))
    return {
        "setup_s": _median(setups),
        "attack_s": _median(attacks),
        "adv_tr_r10": adv("tr_r10"),
        "adv_ir_r10": adv("ir_r10"),
        "eval_p50_ms": _median(evals) * 1e3,
        "eval_tail_ms": tail * 1e3,
        "evals_per_s": len(evals) / sum(evals) if evals else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(run: Run, untraced: float) -> tuple[dict, dict]:
    """Set-up, the workload's attacks and evals again, with the tracer on.

    untraced is the untraced median of the workload's headline time
    (attack_s, or the eval time on eval_cli); the difference is the
    tracing overhead.
    """
    tracer = run.tracer = Tracer()
    tracer.install()
    first_report = len(run.attack_reports)
    traced_evals = []
    try:
        run.setup_once(SETUP_REPS)
        attacks = [run.attack(label, run.work / f"traced-{label}")
                   for label in run.spec["attacks"]]
        if run.workload == "eval_cli":
            traced_evals = [run.evaluate(run.eval_label(i), run.attack_dir(run.eval_label(i)))
                            for i in range(TRACED_EVALS)]
    finally:
        tracer.uninstall()
        run.tracer = None
    summary = tracer.summary()
    within = tracer.calls_within("attack.run_attack")
    tracer.write_spans(OUT / f"spans-{run.workload}-seed{run.seed}.json")

    layer_self = summary["layer_self_s"]
    headline = traced_evals if run.workload == "eval_cli" else attacks
    headline = [t for t in headline if t is not None]
    traced = _median(headline)

    calls, inc, counts = summary["calls"], summary["inclusive_s"], summary["counts"]
    reports = run.attack_reports[first_report:]
    samples = sum(r["trace_summary"]["samples_visited"] for r in reports)
    converged = sum(r["trace_summary"]["converged"] for r in reports)
    metrics = {
        "encoder.forward_calls": calls.get("encoder.forward_with_cache", 0),
        "encoder.forward_rows": counts.get("encoder.forward_with_cache.rows", 0),
        "encoder.forward_s": inc.get("encoder.forward_with_cache", 0.0),
        "encoder.backward_calls": calls.get("encoder.backward_from_cache", 0),
        "encoder.backward_rows": counts.get("encoder.backward_from_cache.rows", 0),
        "encoder.backward_s": inc.get("encoder.backward_from_cache", 0.0),
        "encoder.encode_calls": calls.get("encoder.encode_batch", 0),
        "encoder.encode_rows": counts.get("encoder.encode_batch.rows", 0),
        "encoder.encode_s": inc.get("encoder.encode_batch", 0.0),
        "encoder.self_s": layer_self["encoder"],
        "encoder.w1_bytes": int(run.encoder.weights[0].nbytes),
        "retrieval.rank_queries": (calls.get("retrieval.indicator", 0)
                                   + calls.get("retrieval.select_nonmatching_topk", 0)),
        "retrieval.recall_calls": calls.get("retrieval.recall_at_k", 0),
        "retrieval.s": layer_self["retrieval"],
        "attack.inner_iters": sum(r["trace_summary"]["total_inner_iterations"]
                                  for r in reports),
        "attack.samples": samples,
        "attack.commits": sum(r["commits"] for r in reports),
        "attack.converged_ratio": converged / samples if samples else 0.0,
        "attack.self_s": layer_self["attack"],
        "core.calls": sum(n for name, n in calls.items() if name.startswith("core.")),
        "core.s": layer_self["core"],
        "tensor_io.bytes_read": counts.get("tensor_io.bytes_read", 0),
        "tensor_io.bytes_written": counts.get("tensor_io.bytes_written", 0),
        "tensor_io.bytes_hashed": counts.get("tensor_io.bytes_hashed", 0),
        "tensor_io.s": layer_self["tensor_io"],
        "datagen.generate_s": inc.get("datagen.generate", 0.0),
        "datagen.load_s": inc.get("datagen.load", 0.0),
        "datagen.self_s": layer_self["datagen"],
        "rng.values": counts.get("rng.values", 0),
        "rng.s": layer_self["rng"],
        "cli.self_s": layer_self["cli"],
        "trace.total_s": summary["root_s"],
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
        "trace.spans": summary["spans"],
    }
    deterministic = {f"trace.{k}": v for k, v in metrics.items()
                     if k.endswith(("_calls", "_rows", "_queries", "_iters", "_bytes"))
                     or ".bytes_" in k or k in ("rng.values", "attack.samples",
                                                "attack.commits", "core.calls",
                                                "trace.spans")}
    deterministic.update({f"trace.within_run_attack.{k}": v for k, v in within.items()})

    def verify():
        problems = run.fingerprints.problems(deterministic)
        self_sum = sum(layer_self.values())
        if abs(self_sum - summary["root_s"]) > 1e-6 * summary["root_s"] + 1e-6:
            problems.append(f"layer self times sum to {self_sum}, root spans to "
                            f"{summary['root_s']}")
        return 0.0, problems

    run.operation("traced pass", verify)
    detail = {"layers_found": tracer.found, "within_run_attack": within,
              "calls": calls, "inclusive_s": inc, "layer_self_s": layer_self,
              "traced_headline_s": traced, "untraced_headline_s": untraced}
    return metrics, detail


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    uapkit = _load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, uapkit)
    run.work.mkdir(parents=True, exist_ok=True)
    detail = {}
    try:
        if args.trace:
            run.setup_once(0)
            if run.data is None:
                sys.exit("error: set-up failed")
            attacks, evals = run.main_phase(eval_block=False)
            untraced = _median(evals if args.workload == "eval_cli" else attacks)
            values, detail = traced_pass(run, untraced)
        else:
            setups = [t for t in (run.setup_once(rep) for rep in range(SETUP_REPS))
                      if t is not None]
            if run.data is None:
                sys.exit("error: set-up failed")
            attacks, evals = run.main_phase()
            values = end_to_end(run, setups, attacks, evals)
            detail = {"eval_tail_percentile": TAIL_PERCENTILE, "eval_samples": len(evals),
                      "attack_samples": len(attacks), "setup_samples": len(setups)}
        detail["fail_ratio"] = run.failed / run.attempted
    finally:
        run.fingerprints.save()
        shutil.rmtree(run.work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<26} {value!r:>24} {m['unit']:<9} ({m['better']} is better)")
    for key, value in detail.items():
        if not isinstance(value, dict):
            print(f"{key:<26} {value!r:>24}")
    correct = run.failed == 0 and all(
        isinstance(v["value"], (int, float)) and v["value"] == v["value"]
        for v in metrics.values())
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine.describe(), detail=detail,
                  problems=run.problems[:MAX_PROBLEMS])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
