"""Command-line entry point.

Subcommands: gen (dataset), attack (perturbation synthesis), eval (apply a
saved perturbation), gradcheck (finite-difference gradient audit).

Exit codes: 0 success, 2 invalid arguments/config/perturbation or corrupt
dataset content, 3 I/O failure, 4 degenerate dataset or failed numerical
audit, 5 a missing or altered file named by a manifest or sidecar, or a
malformed sidecar or manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, datagen, tensor_io
from .attack import (EPS_L2_DEFAULT, EPS_LINF_DEFAULT, K_LIST_DEFAULT, AttackConfig,
                     Perturbation, check_attack, report_metrics, run_attack)
from .core import Carrier, as_tensor, patch_side_for_area, square_patch_mask
from .datagen import DatasetParams
from .encoder import (PerturbedBatch, default_toy_encoder, encoder_hash,
                      gradcheck, load_encoder, save_encoder)
from .errors import (MALFORMED_JSON_ERRORS, DegenerateDatasetError,
                     IntegrityError, InvalidArgumentError, UapkitError)
from .rng import Lcg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_HASH_MISMATCH = 5

GRADCHECK_THRESHOLD = 1e-6


def _load_encoder_arg(path: str | None):
    if path is None:
        return default_toy_encoder()
    return load_encoder(path)


def _report(command: str, start: float, batch: PerturbedBatch, ds, k_list,
            **fields) -> dict:
    """The report_metrics blocks of batch.clean() ("clean") and of
    batch.gallery() at batch.delta ("adversarial"), both off batch's one
    first layer, the wall clock since start and the fields every report
    has, plus the command's own fields."""
    return {"schema": "uapkit-report-v1", "command": command,
            "clean": report_metrics(ds, batch.clean().embeddings, k_list),
            "adversarial": report_metrics(ds, batch.gallery().embeddings, k_list),
            "wall_clock_seconds": time.monotonic() - start,
            "library_version": __version__, **fields}


def _check_k_list(k_list, ds) -> None:
    """The report ranks each direction's gallery, so it needs a k, and every
    k must fit the smaller gallery; checked before any encoding or attack
    work."""
    k_max = min(ds.params.n_images, ds.params.n_texts)
    if not k_list or any(not 1 <= k <= k_max for k in k_list):
        raise InvalidArgumentError(
            f"--k-list {k_list}: needs at least one k, each in [1, {k_max}]")


def _emit_report(report: dict, out_path: Path | None):
    print(json.dumps(report, indent=2, sort_keys=True))
    if out_path is not None:
        tensor_io.write_json(out_path, report)


# -- gen ---------------------------------------------------------------------


def cmd_gen(args) -> int:
    params = DatasetParams(**{f.name: getattr(args, f.name) for f in fields(DatasetParams)})
    enc = _load_encoder_arg(args.encoder)
    out = Path(args.out)
    manifest_path, manifest, dataset_hash = datagen.generate(params, enc, out)
    if args.encoder is None:
        save_encoder(enc, out / "encoder.json")
    print(json.dumps({
        "manifest": str(manifest_path),
        "dataset_hash": dataset_hash,
        "encoder_hash": manifest["encoder_hash"],
        "sha256": manifest["sha256"],
    }, indent=2, sort_keys=True))
    return EXIT_OK


# -- attack ------------------------------------------------------------------


def _carrier_args(args, image_shape) -> tuple[Carrier, dict]:
    """The attack's Carrier and its mask geometry, which the sidecar and the
    config record, empty in global mode; Carrier rejects the flags of the
    other mode."""
    epsilon, mask, geometry = args.epsilon, None, {}
    if args.mode == "global" and epsilon is None:
        epsilon = EPS_L2_DEFAULT if args.norm == "l2" else EPS_LINF_DEFAULT
    if args.mode == "patch" or args.mask_side is not None or args.mask_offset is not None:
        side = args.mask_side
        if side is None:
            side = patch_side_for_area(image_shape)
        offset = args.mask_offset or [0, 0]
        mask = square_patch_mask(image_shape, side, tuple(offset))
        geometry = {"mask": {"side": side, "offset": offset}}
    return Carrier(args.mode, mask, args.norm, epsilon), geometry


def cmd_attack(args) -> int:
    enc = _load_encoder_arg(args.encoder)
    enc_hash = encoder_hash(enc)
    ds = datagen.load(args.dataset)
    if ds.encoder_hash and ds.encoder_hash != enc_hash:
        raise IntegrityError("dataset was generated against a different encoder")
    _check_k_list(args.k_list, ds)
    carrier, geometry = _carrier_args(args, ds.params.image_shape)
    cfg = AttackConfig(carrier, **{f.name: getattr(args, f.name)
                                   for f in fields(AttackConfig) if f.name != "carrier"})
    config = cfg.to_json_dict() | geometry
    config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    check_attack(ds, cfg, args.strategy)  # before anything is written
    # one first layer for the attack and the report, whose clean rows also
    # re-verify the clean-retrieval floor on the loaded pairing
    batch = PerturbedBatch(enc, ds.images, cfg.carrier)
    datagen.floor_check(ds, batch.clean().embeddings)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    start = time.monotonic()
    pert, trace = run_attack(enc, ds, cfg, args.strategy, batch)
    summary = trace.summary()
    report = _report(
        "attack", start, batch, ds, args.k_list,
        strategy=args.strategy, config=config,
        seeds={"attack": cfg.seed, "dataset": ds.params.seed, "encoder": enc.seed},
        hashes={"encoder": enc_hash, "dataset": ds.dataset_hash, "config": config_hash},
        trace_summary=summary)

    tensor_io.write_json(out / "delta.json", {
        "format": "uapkit-perturbation-v1",
        "delta_file": "delta.uapt",
        "delta_sha256": tensor_io.write_tensor(out / "delta.uapt", pert.delta),
        "strategy": args.strategy,
        "config": config,
        "encoder_hash": enc_hash,
        "dataset_hash": ds.dataset_hash,
        "library_version": __version__,
        **cfg.carrier.to_json_dict(),
        **geometry,
    })
    tensor_io.write_json(out / "trace.json", {
        "summary": summary,
        "epoch_metrics": trace.epoch_metrics,
        # a CommitRecord's fields are flat floats and ints: its __dict__ is
        # what dataclasses.asdict would deep-copy
        "commits": [vars(c) for c in trace.commits],
    })
    _emit_report(report, out / "report.json")
    return EXIT_OK


# -- eval --------------------------------------------------------------------


def _load_perturbation(sidecar_path: Path, image_shape) -> tuple[Perturbation, dict]:
    """Read a sidecar and its delta: a malformed sidecar raises IntegrityError,
    a delta that does not fit the images or its mode InvalidArgumentError."""
    try:
        sidecar = json.loads(sidecar_path.read_bytes())
        delta = as_tensor(tensor_io.read_tensor(sidecar_path.parent / sidecar["delta_file"],
                                                sidecar["delta_sha256"]), shape=image_shape)
        if sidecar["mode"] == "patch":
            geometry = sidecar["mask"]
            carrier = Carrier("patch", square_patch_mask(
                image_shape, geometry["side"], tuple(geometry["offset"])))
        else:
            carrier = Carrier(sidecar["mode"], norm=sidecar["norm"],
                              epsilon=sidecar["epsilon"])
        pert = Perturbation(delta, carrier)
    except MALFORMED_JSON_ERRORS as exc:
        raise IntegrityError(f"{sidecar_path}: malformed sidecar ({exc!r})") from exc
    return pert, sidecar


def cmd_eval(args) -> int:
    enc = _load_encoder_arg(args.encoder)
    enc_hash = encoder_hash(enc)
    ds = datagen.load(args.dataset)
    _check_k_list(args.k_list, ds)
    pert, sidecar = _load_perturbation(Path(args.perturbation), ds.params.image_shape)

    mismatch = {
        "encoder": sidecar.get("encoder_hash") not in ("", enc_hash),
        "dataset": sidecar.get("dataset_hash") not in ("", ds.dataset_hash),
    }
    if any(mismatch.values()) and not args.allow_mismatch:
        names = ", ".join(k for k, v in mismatch.items() if v)
        print(f"error: perturbation sidecar does not match the given {names} "
              "(pass --allow-mismatch for cross-artifact evaluation)",
              file=sys.stderr)
        return EXIT_HASH_MISMATCH

    start = time.monotonic()
    batch = PerturbedBatch(enc, ds.images, pert.carrier)
    batch.set_delta(pert.delta)
    report = _report(
        "eval", start, batch, ds, args.k_list,
        strategy=sidecar.get("strategy", ""), config=sidecar.get("config", {}),
        seeds={"dataset": ds.params.seed, "encoder": enc.seed},
        hashes={"encoder": enc_hash, "dataset": ds.dataset_hash,
                "perturbation": sidecar["delta_sha256"]},
        cross_artifact=mismatch)
    _emit_report(report, Path(args.out) if args.out else None)
    return EXIT_OK


# -- gradcheck ---------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    if args.trials < 1:  # an audit of nothing passes nothing
        raise InvalidArgumentError(f"--trials {args.trials}: must be at least 1")
    if not 0 <= args.seed < 2 ** 64:  # Lcg reads the seed mod 2^64
        raise InvalidArgumentError(f"--seed {args.seed} not in [0, 2^64)")
    enc = _load_encoder_arg(args.encoder)
    rng = Lcg(args.seed)
    worst = 0.0
    for trial in range(args.trials):
        image = rng.fill_uniform(enc.n_inputs, 0.0, 1.0).reshape(enc.input_shape)
        t = rng.fill_gaussian(enc.embed_dim)
        t = t / np.linalg.norm(t)
        err = gradcheck(enc, image, t, step=args.step, seed=args.seed + trial)
        worst = max(worst, err)
    passed = worst < GRADCHECK_THRESHOLD
    print(json.dumps({
        "command": "gradcheck",
        "trials": args.trials,
        "step": args.step,
        "max_relative_error": worst,
        "threshold": GRADCHECK_THRESHOLD,
        "passed": passed,
    }, indent=2, sort_keys=True))
    return EXIT_OK if passed else EXIT_DEGENERATE


# -- argument parsing --------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="uapkit",
                                description="Universal adversarial perturbations "
                                            "against cross-modal retrieval.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--encoder", help="encoder manifest (default: built-in toy mlp)")
    g.add_argument("--n-images", type=int, default=DatasetParams.n_images)
    g.add_argument("--texts-per-image", type=int, default=DatasetParams.texts_per_image)
    g.add_argument("--image-shape", type=int, nargs=3, default=DatasetParams.image_shape,
                   metavar=("C", "H", "W"))
    g.add_argument("--embed-dim", type=int, default=DatasetParams.embed_dim)
    g.add_argument("--class-count", type=int, default=DatasetParams.class_count)
    g.add_argument("--noise-level", type=float, default=DatasetParams.noise_level)
    g.add_argument("--decoder-scale", type=float, default=DatasetParams.decoder_scale)
    g.add_argument("--decoder-rank", type=int, default=DatasetParams.decoder_rank)
    g.add_argument("--seed", type=int, default=DatasetParams.seed)

    a = sub.add_parser("attack", help="synthesize a universal perturbation")
    a.add_argument("--strategy", choices=("tra", "ira", "tira"), required=True)
    a.add_argument("--mode", choices=("patch", "global"), default="patch")
    a.add_argument("--k", type=int, default=AttackConfig.k)
    a.add_argument("--eta", type=float, default=AttackConfig.eta)
    a.add_argument("--epochs", type=int, default=AttackConfig.epochs)
    a.add_argument("--batch-size", type=int, default=AttackConfig.batch_size)
    a.add_argument("--max-inner-iters", type=int, default=AttackConfig.max_inner_iters)
    a.add_argument("--mask-side", type=int, help="patch side (default: 3%% area)")
    a.add_argument("--mask-offset", type=int, nargs=2, metavar=("DY", "DX"),
                   help="offset from the bottom-right corner (default: 0 0)")
    a.add_argument("--norm", choices=("l2", "linf"))
    a.add_argument("--epsilon", type=float)
    a.add_argument("--seed", type=int, default=AttackConfig.seed)
    a.add_argument("--shuffle", action="store_true", default=AttackConfig.shuffle)
    a.add_argument("--encoder")
    a.add_argument("--dataset", required=True, help="dataset manifest path")
    a.add_argument("--out", required=True)
    a.add_argument("--k-list", type=_int_list, default=list(K_LIST_DEFAULT))

    e = sub.add_parser("eval", help="evaluate a saved perturbation")
    e.add_argument("--perturbation", required=True, help="sidecar JSON path")
    e.add_argument("--dataset", required=True)
    e.add_argument("--encoder")
    e.add_argument("--k-list", type=_int_list, default=list(K_LIST_DEFAULT))
    e.add_argument("--allow-mismatch", action="store_true")
    e.add_argument("--out")

    c = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    c.add_argument("--encoder")
    c.add_argument("--trials", type=int, default=20)
    audit = inspect.signature(gradcheck).parameters  # the library's defaults
    c.add_argument("--step", type=float, default=audit["step"].default)
    c.add_argument("--seed", type=int, default=audit["seed"].default)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process; parse_args keeps no
    state from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a command rebound after the parser was built runs
    commands = {"gen": cmd_gen, "attack": cmd_attack, "eval": cmd_eval,
                "gradcheck": cmd_gradcheck}
    try:
        return commands[args.command](args)
    except DegenerateDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HASH_MISMATCH
    except (InvalidArgumentError, UapkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
