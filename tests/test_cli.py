import dataclasses
import functools
import hashlib
import inspect
import json
import operator
import shutil
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapkit import attack, cli, datagen, encoder, tensor_io
from uapkit.cli import _load_perturbation, main
from uapkit.encoder import build_encoder, save_encoder
from uapkit.errors import CorruptDatasetError, IntegrityError, InvalidArgumentError
from uapkit.tensor_io import read_tensor, write_tensor

GEN_ARGS = ["--n-images", "20", "--texts-per-image", "3",
            "--image-shape", "1", "8", "8", "--embed-dim", "16",
            "--class-count", "4", "--noise-level", "0.1", "--seed", "7"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    enc = build_encoder("mlp", (1, 8, 8), 16, (24,), "tanh", 42)
    save_encoder(enc, root / "encoder.json")
    rc = main(["gen", "--out", str(root / "data"),
               "--encoder", str(root / "encoder.json"), *GEN_ARGS])
    assert rc == 0
    return root


def run_attack(workspace, out, extra):
    return main(["attack", "--strategy", "tra", "--k", "3", "--epochs", "1",
                 "--encoder", str(workspace / "encoder.json"),
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--out", str(workspace / out), *extra])


def test_gen_deterministic(workspace, tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "again"),
               "--encoder", str(workspace / "encoder.json"), *GEN_ARGS])
    assert rc == 0
    m1 = json.loads((workspace / "data" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert m1["sha256"] == m2["sha256"]


def test_gen_invalid_args_exit_2(tmp_path):
    rc = main(["gen", "--out", str(tmp_path / "bad"), "--n-images", "0"])
    assert rc == 2


def test_gen_hashes_the_encoder_once(tmp_path, monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(enc):
            calls.append(name)
            return original(enc)
        return wrapper

    for module in (encoder, datagen):
        monkeypatch.setattr(module, "encoder_hash",
                            counting(module.__name__, module.encoder_hash))
    assert main(["gen", "--out", str(tmp_path / "toy"), "--n-images", "40",
                 "--texts-per-image", "3", "--seed", "7"]) == 0
    assert calls == ["uapkit.datagen"]


def test_gen_hashes_each_file_once(tmp_path, monkeypatch):
    # one SHA-256 per file written, fed each byte of it once: the built-in
    # encoder's weights are hashed for encoder_hash and then written unhashed
    digests, hashed = [], []

    class Counting:
        def __init__(self, data=b""):
            self._h = hashlib.sha256()
            digests.append(self)
            self.update(data)

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(tensor_io, "hashlib", SimpleNamespace(sha256=Counting))
    out = tmp_path / "toy"
    assert main(["gen", "--out", str(out), "--n-images", "40",
                 "--texts-per-image", "3", "--seed", "7"]) == 0
    files = sorted(out.iterdir())
    assert len(digests) == len(files) == 13
    assert sum(hashed) == sum(f.stat().st_size for f in files)


def test_two_calls_in_one_process_parse_their_own_arguments(monkeypatch):
    # the parser is built once; no argument of one call reaches the next
    seen = []
    for name in ("cmd_attack", "cmd_eval", "cmd_gradcheck"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
    assert main(["gradcheck", "--trials", "3", "--seed", "5"]) == 0
    assert main(["gradcheck"]) == 0
    assert main(["attack", "--strategy", "tira", "--dataset", "d", "--out", "o",
                 "--k-list", "1,3", "--mask-offset", "1", "2"]) == 0
    assert main(["eval", "--perturbation", "p", "--dataset", "d"]) == 0
    first, second, attack_args, eval_args = seen
    assert (first["trials"], first["seed"]) == (3, 5)
    assert (second["trials"], second["seed"], second["step"]) == (20, 0, 1e-5)
    assert (attack_args["k_list"], attack_args["mask_offset"]) == ([1, 3], [1, 2])
    assert (eval_args["k_list"], eval_args["command"]) == ([1, 5, 10], "eval")
    assert cli._parser() is cli._parser()


def test_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    gen_args = vars(parser.parse_args(["gen", "--out", "x"]))
    params = datagen.DatasetParams
    assert params(**{f.name: gen_args[f.name] for f in dataclasses.fields(params)}) == params()
    # every hyper-parameter of the config is an option, with the field's default
    attack_args = vars(parser.parse_args(["attack", "--strategy", "tira",
                                          "--dataset", "d", "--out", "o"]))
    for f in dataclasses.fields(attack.AttackConfig):
        if f.name != "carrier":
            value = attack_args[f.name]
            assert (value, type(value)) == (f.default, type(f.default)), f.name
    eval_args = parser.parse_args(["eval", "--perturbation", "p", "--dataset", "d"])
    assert eval_args.k_list == list(attack.K_LIST_DEFAULT)
    # gradcheck's step and seed are encoder.gradcheck's
    gradcheck_args = vars(parser.parse_args(["gradcheck"]))
    for name in ("step", "seed"):
        default = inspect.signature(encoder.gradcheck).parameters[name].default
        value = gradcheck_args[name]
        assert (value, type(value)) == (default, type(default)), name


def test_eval_on_a_dataset_with_a_nan_pixel_exits_2(workspace, tmp_path, capsys):
    # the hash of images.uapt is fixed up, so load's range check stops it
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    images = datagen.load(data / "manifest.json").images
    images[0, 0, 0, 0] = np.nan
    manifest["sha256"]["images"] = write_tensor(data / "images.uapt", images)
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert run_attack(workspace, "for_nan", []) == 0
    capsys.readouterr()
    assert main(["eval", "--perturbation", str(workspace / "for_nan" / "delta.json"),
                 "--dataset", str(data / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json"), "--allow-mismatch"]) == 2
    assert capsys.readouterr().err == (
        f"error: {data / 'images.uapt'}: image values not all in [0, 1]\n")


def test_gen_builds_default_encoder_when_absent(tmp_path):
    # default toy encoder has shape (3, 32, 32); use a tiny matching dataset
    rc = main(["gen", "--out", str(tmp_path / "toy"), "--n-images", "40",
               "--texts-per-image", "3", "--seed", "7"])
    assert rc == 0
    assert (tmp_path / "toy" / "encoder.json").exists()


def test_attack_writes_artifacts_and_report(workspace, capsys):
    rc = run_attack(workspace, "run1", [])
    assert rc == 0
    out = workspace / "run1"
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "uapkit-report-v1"
    assert report == json.loads((out / "report.json").read_text())
    sidecar = json.loads((out / "delta.json").read_text())
    digest = hashlib.sha256((out / "delta.uapt").read_bytes()).hexdigest()
    delta = read_tensor(out / "delta.uapt", digest)
    assert delta.shape == (1, 8, 8)
    assert sidecar["delta_sha256"] == digest
    assert sidecar["mode"] == "patch" and "mask" in sidecar
    trace = json.loads((out / "trace.json").read_text())
    assert trace["summary"]["epochs"] == 1


def test_trace_json_is_the_asdict_trace(workspace, monkeypatch, capsys):
    # trace.json writes each commit's __dict__, which serializes to the
    # bytes dataclasses.asdict gave
    traces = []

    def recording(*args):
        pert, trace = attack.run_attack(*args)
        traces.append(trace)
        return pert, trace

    monkeypatch.setattr("uapkit.cli.run_attack", recording)
    assert run_attack(workspace, "trace_asdict", ["--mode", "global", "--norm", "l2",
                                                  "--epsilon", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    [trace] = traces
    assert len(trace.commits) == 20
    expected = json.dumps({"summary": trace.summary(),
                           "epoch_metrics": trace.epoch_metrics,
                           "commits": [dataclasses.asdict(c) for c in trace.commits]},
                          indent=2, sort_keys=True).encode()
    assert (workspace / "trace_asdict" / "trace.json").read_bytes() == expected
    assert report["trace_summary"] == trace.summary()


def test_attack_report_matches_schema(workspace, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    rc = run_attack(workspace, "run_schema", [])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    schema = json.loads(
        (__import__("pathlib").Path(__file__).parent.parent
         / "docs" / "report.schema.json").read_text())
    jsonschema.validate(report, schema)


def test_patch_geometry_is_part_of_the_hashed_config(workspace, capsys):
    # the mask's side and offset change the delta an attack writes, so the
    # config it records, hashes and hands on to eval holds them
    runs = {"side2": ["--mask-side", "2"], "side3": ["--mask-side", "3"],
            "side3_moved": ["--mask-side", "3", "--mask-offset", "1", "2"]}
    hashes = {}
    for name, extra in runs.items():
        out = workspace / f"geometry_{name}"
        assert run_attack(workspace, out.name, ["--epochs", "0", *extra]) == 0
        report = json.loads(capsys.readouterr().out)
        sidecar = json.loads((out / "delta.json").read_text())
        assert report["config"] == sidecar["config"]
        assert report["config"]["mask"] == sidecar["mask"]
        assert report["hashes"]["config"] == hashlib.sha256(
            json.dumps(report["config"], sort_keys=True).encode()).hexdigest()
        hashes[name] = report["hashes"]["config"]
    assert len(set(hashes.values())) == len(runs)
    assert sidecar["mask"] == {"side": 3, "offset": [1, 2]}
    assert main(["eval", "--perturbation", str(out / "delta.json"),
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json")]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == sidecar["config"]


def test_attack_determinism_bitwise(workspace, capsys):
    assert run_attack(workspace, "det_a", ["--seed", "5"]) == 0
    assert run_attack(workspace, "det_b", ["--seed", "5"]) == 0
    capsys.readouterr()
    a = (workspace / "det_a" / "delta.uapt").read_bytes()
    b = (workspace / "det_b" / "delta.uapt").read_bytes()
    assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()


def test_attack_zero_epochs_clean_equals_adv(workspace, capsys):
    # global mode: a zero additive delta is an exact identity. (In patch
    # mode delta replaces pixels, so a zero delta is a black patch, not a
    # no-op; the identity example is a global-mode property.)
    rc = run_attack(workspace, "zero",
                    ["--epochs", "0", "--mode", "global", "--norm", "l2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] == report["adversarial"]
    path = workspace / "zero" / "delta.uapt"
    delta = read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())
    assert np.array_equal(delta, np.zeros((1, 8, 8)))


def test_attack_invalid_config_exit_2(workspace, capsys):
    rc = run_attack(workspace, "bad", ["--mode", "patch", "--norm", "l2"])
    capsys.readouterr()
    assert rc == 2


def test_attack_infinite_epsilon_exit_2(workspace, capsys):
    rc = run_attack(workspace, "inf_eps",
                    ["--mode", "global", "--norm", "l2", "--epsilon", "inf"])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (workspace / "inf_eps" / "delta.json").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64 + 1)])
def test_gen_seed_outside_the_lcg_state_exit_2(tmp_path, capsys, seed):
    rc = main(["gen", "--out", str(tmp_path / "bad"), *GEN_ARGS, "--seed", seed])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
def test_attack_seed_outside_the_shuffle_range_exit_2(workspace, capsys, seed):
    rc = run_attack(workspace, "bad_seed", ["--shuffle", "--seed", seed])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (workspace / "bad_seed").exists()


@pytest.mark.parametrize("flag, value", [("--decoder-scale", "inf"),
                                         ("--noise-level", "nan")])
def test_gen_non_finite_float_exit_2(tmp_path, capsys, flag, value):
    rc = main(["gen", "--out", str(tmp_path / "bad"), *GEN_ARGS, flag, value])
    assert rc == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_attack_global_linf_bound_in_sidecar(workspace, capsys):
    rc = run_attack(workspace, "linf",
                    ["--mode", "global", "--norm", "linf", "--epsilon", "0.0392"])
    assert rc == 0
    capsys.readouterr()
    sidecar = json.loads((workspace / "linf" / "delta.json").read_text())
    assert sidecar["norm"] == "linf" and sidecar["epsilon"] == 0.0392
    path = workspace / "linf" / "delta.uapt"
    delta = read_tensor(path, hashlib.sha256(path.read_bytes()).hexdigest())
    assert np.abs(delta).max() <= 0.0392


def test_eval_roundtrip_and_monotone(workspace, capsys):
    assert run_attack(workspace, "for_eval", []) == 0
    capsys.readouterr()
    rc = main(["eval", "--perturbation", str(workspace / "for_eval" / "delta.json"),
               "--dataset", str(workspace / "data" / "manifest.json"),
               "--encoder", str(workspace / "encoder.json"),
               "--k-list", "1,5,10"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    for side in ("clean", "adversarial"):
        m = report[side]
        assert m["tr_r1"] <= m["tr_r5"] <= m["tr_r10"]
        assert m["ir_r1"] <= m["ir_r5"] <= m["ir_r10"]
    assert report["cross_artifact"] == {"encoder": False, "dataset": False}


def test_eval_hash_mismatch_exit_5(workspace, tmp_path, capsys):
    assert run_attack(workspace, "for_mismatch", []) == 0
    # regenerate a dataset with a different seed -> different hash
    rc = main(["gen", "--out", str(tmp_path / "other"),
               "--encoder", str(workspace / "encoder.json"),
               *GEN_ARGS[:-1], "8"])
    assert rc == 0
    capsys.readouterr()
    args = ["eval", "--perturbation", str(workspace / "for_mismatch" / "delta.json"),
            "--dataset", str(tmp_path / "other" / "manifest.json"),
            "--encoder", str(workspace / "encoder.json")]
    assert main(args) == 5
    capsys.readouterr()
    rc = main([*args, "--allow-mismatch"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cross_artifact"]["dataset"] is True


@pytest.fixture(scope="module")
def other_encoder(workspace):
    """An encoder of the workspace's architecture with other weights."""
    path = workspace / "other_encoder" / "encoder.json"
    save_encoder(build_encoder("mlp", (1, 8, 8), 16, (24,), "tanh", 43), path)
    return path


def test_eval_against_another_encoder_exits_5(workspace, other_encoder, capsys):
    assert run_attack(workspace, "for_encoder_mismatch", []) == 0
    capsys.readouterr()
    args = ["eval", "--perturbation", str(workspace / "for_encoder_mismatch" / "delta.json"),
            "--dataset", str(workspace / "data" / "manifest.json"),
            "--encoder", str(other_encoder)]
    assert main(args) == 5
    assert "encoder" in capsys.readouterr().err
    assert main([*args, "--allow-mismatch"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cross_artifact"] == {"encoder": True, "dataset": False}


def test_attack_on_a_dataset_of_another_encoder_exits_5(workspace, other_encoder, capsys):
    rc = main(["attack", "--strategy", "tra", "--k", "3", "--epochs", "1",
               "--encoder", str(other_encoder),
               "--dataset", str(workspace / "data" / "manifest.json"),
               "--out", str(workspace / "other_encoder_attack")])
    assert rc == 5
    assert "different encoder" in capsys.readouterr().err
    assert not (workspace / "other_encoder_attack").exists()


def test_eval_detects_tampered_delta(workspace, capsys):
    assert run_attack(workspace, "tamper", []) == 0
    capsys.readouterr()
    path = workspace / "tamper" / "delta.uapt"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    rc = main(["eval", "--perturbation", str(workspace / "tamper" / "delta.json"),
               "--dataset", str(workspace / "data" / "manifest.json"),
               "--encoder", str(workspace / "encoder.json")])
    capsys.readouterr()
    assert rc == 5


def run_eval(workspace, out):
    return main(["eval", "--perturbation", str(workspace / out / "delta.json"),
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json")])


FORGED_DELTAS = [
    ("patch_out_of_range", [], lambda d: np.full_like(d, 5.0)),
    ("wrong_shape", [], lambda d: d[0]),
    ("global_over_budget", ["--mode", "global", "--norm", "linf", "--epsilon", "0.05"],
     lambda d: d + 1.0),
    ("global_nan", ["--mode", "global", "--norm", "l2"], lambda d: np.full_like(d, np.nan)),
]


@pytest.mark.parametrize("name, extra, forge", FORGED_DELTAS,
                         ids=[case[0] for case in FORGED_DELTAS])
def test_eval_rejects_invalid_delta_exit_2(workspace, capsys, name, extra, forge):
    # the forged delta carries a matching hash, so only the value checks stop it
    assert run_attack(workspace, f"forged_{name}", extra) == 0
    out = workspace / f"forged_{name}"
    path = out / "delta.uapt"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    write_tensor(path, forge(read_tensor(path, digest)))
    sidecar = json.loads((out / "delta.json").read_text())
    sidecar["delta_sha256"] = hashlib.sha256((out / "delta.uapt").read_bytes()).hexdigest()
    (out / "delta.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run_eval(workspace, f"forged_{name}") == 2
    assert capsys.readouterr().out == ""


MALFORMED_SIDECARS = [
    ("missing_key", lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "mask"})),
    ("invalid_json", lambda text: text[:-5]),
]


@pytest.mark.parametrize("name, corrupt", MALFORMED_SIDECARS,
                         ids=[case[0] for case in MALFORMED_SIDECARS])
def test_eval_malformed_sidecar_exit_5(workspace, capsys, name, corrupt):
    assert run_attack(workspace, f"malformed_{name}", []) == 0
    path = workspace / f"malformed_{name}" / "delta.json"
    path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert run_eval(workspace, f"malformed_{name}") == 5
    assert "malformed sidecar" in capsys.readouterr().err


def drop_key(path, *keys):
    """Rewrite a JSON manifest without the nested key keys[-1]."""
    manifest = json.loads(path.read_text())
    node = manifest
    for key in keys[:-1]:
        node = node[key]
    del node[keys[-1]]
    path.write_text(json.dumps(manifest))


def test_gradcheck_malformed_encoder_manifest_exit_5(tmp_path, capsys):
    enc = build_encoder("mlp", (1, 8, 8), 16, (24,), "tanh", 42)
    save_encoder(enc, tmp_path / "encoder.json")
    drop_key(tmp_path / "encoder.json", "activation")
    capsys.readouterr()
    assert main(["gradcheck", "--encoder", str(tmp_path / "encoder.json"),
                 "--trials", "1"]) == 5
    assert "malformed manifest" in capsys.readouterr().err


def swap_first_layers(manifest):
    manifest["layers"][:2] = manifest["layers"][1::-1]


BAD_ENCODER_MANIFESTS = [
    ("layers_swapped", swap_first_layers),
    ("input_shape_string", lambda m: m.update(input_shape="abc")),
    ("unknown_activation", lambda m: m.update(activation="gelu")),
]


@pytest.mark.parametrize("name, corrupt", BAD_ENCODER_MANIFESTS,
                         ids=[case[0] for case in BAD_ENCODER_MANIFESTS])
def test_gradcheck_encoder_manifest_that_does_not_fit_exit_5(tmp_path, capsys,
                                                            name, corrupt):
    enc = build_encoder("mlp", (1, 8, 8), 16, (24, 12), "tanh", 42)
    save_encoder(enc, tmp_path / "encoder.json")
    manifest = json.loads((tmp_path / "encoder.json").read_text())
    corrupt(manifest)
    (tmp_path / "encoder.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["gradcheck", "--encoder", str(tmp_path / "encoder.json"),
                 "--trials", "1"]) == 5
    assert "malformed manifest" in capsys.readouterr().err


def test_missing_file_named_by_a_manifest_or_sidecar_exit_5(workspace, tmp_path, capsys):
    assert run_attack(workspace, "missing_delta", []) == 0
    (workspace / "missing_delta" / "delta.uapt").unlink()
    save_encoder(build_encoder("mlp", (1, 8, 8), 16, (24,), "tanh", 42),
                 tmp_path / "encoder.json")
    (tmp_path / "w1.uapt").unlink()
    capsys.readouterr()
    assert run_eval(workspace, "missing_delta") == 5
    assert "missing file" in capsys.readouterr().err
    assert main(["gradcheck", "--encoder", str(tmp_path / "encoder.json"),
                 "--trials", "1"]) == 5
    assert "missing file" in capsys.readouterr().err


def test_eval_delta_whose_dims_overflow_exit_5(workspace, capsys):
    # 65536**4 wraps to 0 in int64, which once passed the length check
    assert run_attack(workspace, "overflow", []) == 0
    out = workspace / "overflow"
    (out / "delta.uapt").write_bytes(
        b"UAPT" + bytes([1, 4]) + (65536).to_bytes(4, "little") * 4)
    sidecar = json.loads((out / "delta.json").read_text())
    sidecar["delta_sha256"] = hashlib.sha256((out / "delta.uapt").read_bytes()).hexdigest()
    (out / "delta.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run_eval(workspace, "overflow") == 5
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [["--mask-side", "0"], ["--mask-side", "3"],
                                   ["--mask-offset", "1", "1"]])
def test_attack_global_mode_rejects_mask_flags_exit_2(workspace, capsys, flags):
    rc = run_attack(workspace, "global_mask", ["--mode", "global", "--norm", "l2", *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eval_malformed_dataset_manifest_exit_5(workspace, tmp_path, capsys):
    assert run_attack(workspace, "malformed_manifest", []) == 0
    assert main(["gen", "--out", str(tmp_path / "data"),
                 "--encoder", str(workspace / "encoder.json"), *GEN_ARGS]) == 0
    drop_key(tmp_path / "data" / "manifest.json", "params", "seed")
    capsys.readouterr()
    assert main(["eval", "--perturbation",
                 str(workspace / "malformed_manifest" / "delta.json"),
                 "--dataset", str(tmp_path / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json"),
                 "--allow-mismatch"]) == 5
    assert "malformed manifest" in capsys.readouterr().err


CORRUPT_DATASET_FILES = [
    ("annotation_key_not_int", "annotations.json", lambda a: {"x" if k == "0" else k: v
                                                              for k, v in a.items()}),
    ("annotation_value_not_int", "annotations.json", lambda a: {**a, "0": ["a", 1, 2]}),
    ("annotations_as_list", "annotations.json", lambda a: list(a.values())),
    ("label_string", "labels.json", lambda labels: ["a", *labels[1:]]),
    ("label_list", "labels.json", lambda labels: [[0], *labels[1:]]),
    ("labels_bare_int", "labels.json", lambda labels: 3),
    ("label_fraction", "labels.json", lambda labels: [0.5, *labels[1:]]),
]


@pytest.mark.parametrize("name, fname, corrupt", CORRUPT_DATASET_FILES,
                         ids=[case[0] for case in CORRUPT_DATASET_FILES])
def test_eval_corrupt_dataset_content_exit_2(workspace, tmp_path, capsys,
                                             name, fname, corrupt):
    # the file still parses and its hash is fixed up, so only the content
    # checks stop it
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    path = data / fname
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["sha256"][fname.removesuffix(".json")] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert run_attack(workspace, "for_corrupt", []) == 0
    capsys.readouterr()
    assert main(["eval", "--perturbation", str(workspace / "for_corrupt" / "delta.json"),
                 "--dataset", str(data / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json"),
                 "--allow-mismatch"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gradcheck_passes(workspace, capsys):
    rc = main(["gradcheck", "--encoder", str(workspace / "encoder.json"),
               "--trials", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["passed"] is True
    assert out["max_relative_error"] < 1e-6


def test_gradcheck_large_step_still_reports(workspace, capsys):
    rc = main(["gradcheck", "--encoder", str(workspace / "encoder.json"),
               "--trials", "1", "--step", "0.1"])
    out = json.loads(capsys.readouterr().out)
    assert out["max_relative_error"] > 0.0
    assert rc in (0, 4)


@pytest.mark.parametrize("flags, name", [(["--trials", "0"], "--trials"),
                                         (["--trials", "-3"], "--trials"),
                                         (["--trials", "1", "--step", "nan"], "step"),
                                         (["--trials", "1", "--step", "inf"], "step"),
                                         (["--trials", "1", "--step", "0"], "step"),
                                         (["--trials", "1", "--seed", "-1"], "seed"),
                                         # Lcg would read it as seed 0
                                         (["--trials", "1", "--seed", str(2 ** 64)],
                                          "--seed")])
def test_gradcheck_empty_or_invalid_audit_exit_2(workspace, capsys, flags, name):
    rc = main(["gradcheck", "--encoder", str(workspace / "encoder.json"), *flags])
    out, err = capsys.readouterr()
    assert rc == 2
    assert name in err and "passed" not in out


def test_attack_checks_the_probe_size_before_creating_out(workspace, tmp_path, capsys):
    gen_args = [*GEN_ARGS]
    gen_args[gen_args.index("--n-images") + 1] = "8"
    assert main(["gen", "--out", str(tmp_path / "data"),
                 "--encoder", str(workspace / "encoder.json"), *gen_args]) == 0
    capsys.readouterr()
    rc = main(["attack", "--strategy", "tra", "--mode", "global", "--norm", "l2",
               "--epsilon", "1", "--k", "3", "--k-list", "1,5", "--epochs", "0",
               "--encoder", str(workspace / "encoder.json"),
               "--dataset", str(tmp_path / "data" / "manifest.json"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "R@10 probe" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_attack_checks_k_before_creating_out(workspace, capsys):
    # 20 images: a text has 19 non-matching candidate images
    rc = run_attack(workspace, "k_too_big", ["--strategy", "ira", "--k", "20"])
    assert rc == 2
    assert "n_images - 1" in capsys.readouterr().err
    assert not (workspace / "k_too_big").exists()


@pytest.mark.parametrize("k_list", ["0", "1,21", ",", ""])
def test_attack_rejects_k_list_before_the_attack(workspace, capsys, monkeypatch, k_list):
    # the dataset has 20 images, so each k must lie in [1, 20]; an empty list
    # would give a report with no recall at all
    monkeypatch.setattr("uapkit.cli.run_attack", lambda *args: pytest.fail("attack ran"))
    assert run_attack(workspace, "bad_k_list", ["--k-list", k_list]) == 2
    assert "--k-list" in capsys.readouterr().err
    assert not (workspace / "bad_k_list" / "report.json").exists()


@pytest.fixture(scope="module")
def zero_epoch_runs(workspace):
    """A patch and a global l2 run of 0 epochs: sidecar, delta and reports."""
    runs = {"zero_patch": [], "zero_global": ["--mode", "global", "--norm", "l2"]}
    for name, extra in runs.items():
        assert run_attack(workspace, name, ["--epochs", "0", *extra]) == 0
    return list(runs)


def test_eval_sidecar_with_unknown_mode_exit_2(workspace, zero_epoch_runs, tmp_path, capsys):
    # a mode other than "patch" once read as global and gave a full report
    shutil.copytree(workspace / "zero_global", tmp_path / "run")
    path = tmp_path / "run" / "delta.json"
    path.write_text(json.dumps(json.loads(path.read_text()) | {"mode": "bogus"}))
    capsys.readouterr()
    assert main(["eval", "--perturbation", str(path),
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown mode 'bogus'" in err


@pytest.mark.parametrize("field", ["n_images", "texts_per_image", "seed"])
def test_eval_dataset_manifest_with_float_size_exit_5(workspace, zero_epoch_runs, tmp_path,
                                                      capsys, field):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["params"][field] = float(manifest["params"][field])
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--perturbation", str(workspace / "zero_patch" / "delta.json"),
                 "--dataset", str(data / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json"),
                 "--allow-mismatch"]) == 5
    assert "malformed manifest" in capsys.readouterr().err


@pytest.mark.parametrize("k_list", ["0", "1,21", ",", ""])
def test_eval_rejects_k_list_before_encoding(workspace, zero_epoch_runs, capsys,
                                            monkeypatch, k_list):
    # 20 images and 60 texts: each k must lie in [1, 20], and there must be one
    for name in ("uapkit.cli.PerturbedBatch", "uapkit.cli.report_metrics",
                 "uapkit.encoder._forward"):
        monkeypatch.setattr(name, lambda *args: pytest.fail("encoding ran"))
    capsys.readouterr()
    assert main(["eval", "--perturbation", str(workspace / "zero_patch" / "delta.json"),
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json"),
                 "--k-list", k_list]) == 2
    err = capsys.readouterr().err
    assert "--k-list" in err and "[1, 20]" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--perturbation", "zero_patch/delta.json"],
    ["eval", "--perturbation", "zero_global/delta.json"],
    ["attack", "--out", "one_batch_tra", "--strategy", "tra", "--epochs", "1"],
    ["attack", "--out", "one_batch_ira", "--strategy", "ira", "--mode", "global",
     "--norm", "linf", "--epochs", "1"],
], ids=["eval-patch", "eval-global", "attack-tra-patch", "attack-ira-linf"])
def test_a_command_encodes_through_one_perturbed_batch(workspace, zero_epoch_runs,
                                                       monkeypatch, argv):
    # the report's clean and adversarial rows, attack's floor check and its
    # per-epoch probe all come from one first layer; the full forward of
    # apply -> encode_batch is the tests' oracle only
    built = []
    init = encoder.PerturbedBatch.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def fail(*args):
        pytest.fail("a full forward ran")

    monkeypatch.setattr(encoder.PerturbedBatch, "__init__", counting_init)
    monkeypatch.setattr(encoder, "_forward", fail)
    for name, module in list(sys.modules.items()):  # every binding of encode_batch
        if name.split(".")[0] == "uapkit" and hasattr(module, "encode_batch"):
            monkeypatch.setattr(module, "encode_batch", fail)
    command, flag, path, *rest = argv
    assert main([command, flag, str(workspace / path), *rest, "--k-list", "1,3",
                 "--dataset", str(workspace / "data" / "manifest.json"),
                 "--encoder", str(workspace / "encoder.json")]) == 0
    assert len(built) == 1


# -- fuzzing the dataset and perturbation loaders -----------------------------

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                        st.floats(allow_nan=False), st.text(max_size=4),
                        st.lists(st.integers(-3, 30), max_size=4),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def json_paths(node, prefix=()):
    """The key path of every value below a JSON object or list."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield (*prefix, key)
        yield from json_paths(child, (*prefix, key))


def fuzz_file(data, path):
    """Truncate the file or garble one byte of it, or, in a JSON file,
    delete or retype one value."""
    raw = path.read_bytes()
    ways = ["truncate", "garble"] + (["delete", "retype"] if path.suffix == ".json" else [])
    way = data.draw(st.sampled_from(ways))
    if way == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif way == "garble":
        i = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1:])
    else:
        obj = json.loads(raw)
        *parents, key = data.draw(st.sampled_from(list(json_paths(obj))))
        node = functools.reduce(operator.getitem, parents, obj)
        if way == "delete":
            del node[key]
        else:
            node[key] = data.draw(JSON_VALUES)
        path.write_text(json.dumps(obj))


DATASET_FILES = ["manifest.json", "images.uapt", "texts.uapt", "prototypes.uapt",
                 "annotations.json", "labels.json"]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_load_dataset_on_fuzzed_files(workspace, data):
    # only the errors main maps to exit 5 (manifest or file integrity) or 2
    # (content or parameters) may escape; the altered file's hash is fixed up
    root = workspace / "fuzzed_data"
    shutil.copytree(workspace / "data", root, dirs_exist_ok=True)
    name = data.draw(st.sampled_from(DATASET_FILES))
    fuzz_file(data, root / name)
    if name != "manifest.json":
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["sha256"][name.split(".")[0]] = hashlib.sha256(
            (root / name).read_bytes()).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
    try:
        ds = datagen.load(root / "manifest.json")
    except (IntegrityError, CorruptDatasetError, InvalidArgumentError):
        return
    assert ds.images.shape == (ds.params.n_images, *ds.params.image_shape)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_load_perturbation_on_fuzzed_files(workspace, zero_epoch_runs, data):
    # a malformed sidecar or delta file raises IntegrityError (exit 5), a
    # delta its carrier cannot produce InvalidArgumentError (exit 2)
    root = workspace / "fuzzed_run"
    shutil.copytree(workspace / data.draw(st.sampled_from(zero_epoch_runs)), root,
                    dirs_exist_ok=True)
    name = data.draw(st.sampled_from(["delta.json", "delta.uapt"]))
    fuzz_file(data, root / name)
    if name == "delta.uapt":
        sidecar = json.loads((root / "delta.json").read_text())
        sidecar["delta_sha256"] = hashlib.sha256((root / name).read_bytes()).hexdigest()
        (root / "delta.json").write_text(json.dumps(sidecar))
    try:
        pert, _ = _load_perturbation(root / "delta.json", (1, 8, 8))
    except (IntegrityError, InvalidArgumentError):
        return
    assert pert.delta.shape == (1, 8, 8)
