"""Correctness checks on uapkit's outputs, written independently of uapkit.

Each check returns a list of problems; an empty list means the output is
correct. The UAPT reader and the patch mask are re-implemented here from the
documented formats, so a bug in uapkit's own reader cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

HALVING = 0.5          # adversarial R@10 at most half of clean (criterion 6)
NORM_SLACK = 1e-12     # relative slack of the global-norm projection


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_uapt(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"UAPT" or data[4] != 1:
        raise ValueError(f"{path}: not a UAPT v1 file")
    rank = data[5]
    dims = struct.unpack_from(f"<{rank}I", data, 6)
    offset = 6 + 4 * rank
    count = int(np.prod(dims)) if rank else 1
    if len(data) != offset + 8 * count:
        raise ValueError(f"{path}: size does not match its header")
    return np.frombuffer(data, dtype="<f8", offset=offset).reshape(dims)


def patch_mask(image_shape, side: int, offset) -> np.ndarray:
    """Square mask anchored at the bottom-right corner, as the README defines."""
    c, h, w = image_shape
    dy, dx = offset
    mask = np.zeros((c, h, w), dtype=bool)
    mask[:, h - dy - side:h - dy, w - dx - side:w - dx] = True
    return mask


class ReportSchema:
    """The report JSON schema, read from the checkout at run time."""

    def __init__(self, path):
        import jsonschema
        schema = json.loads(Path(path).read_text())
        self._validator = jsonschema.Draft202012Validator(schema)

    def problems(self, report: dict) -> list[str]:
        return [f"report schema: {e.message}" for e in self._validator.iter_errors(report)]


def delta_problems(out_dir: Path, image_shape) -> list[str]:
    """The saved perturbation matches its sidecar and stays in its budget."""
    sidecar = json.loads((out_dir / "delta.json").read_text())
    delta_path = out_dir / sidecar["delta_file"]
    problems = []
    if sha256_of(delta_path) != sidecar["delta_sha256"]:
        problems.append("delta.uapt does not match the sidecar hash")
    delta = read_uapt(delta_path)
    if delta.shape != tuple(image_shape):
        return problems + [f"delta shape {delta.shape} != image shape {tuple(image_shape)}"]
    if sidecar["mode"] == "patch":
        mask = patch_mask(image_shape, sidecar["mask"]["side"], sidecar["mask"]["offset"])
        on = delta[mask]
        if on.size and (on.min() < 0.0 or on.max() > 1.0):
            problems.append("patch delta outside [0, 1]")
        if np.any(delta[~mask] != 0.0):
            problems.append("patch delta nonzero off the mask")
    else:
        eps = sidecar["epsilon"]
        if sidecar["norm"] == "linf":
            size = float(np.abs(delta).max()) if delta.size else 0.0
        else:
            size = float(np.linalg.norm(delta.ravel()))
        if size > eps * (1.0 + NORM_SLACK):
            problems.append(f"global delta {sidecar['norm']} norm {size!r} > epsilon {eps!r}")
    return problems


def halving_problems(report: dict) -> list[str]:
    """Adversarial R@10 at most half of clean R@10 in both directions."""
    problems = []
    for direction in ("tr", "ir"):
        clean = report["clean"][f"{direction}_r10"]
        adv = report["adversarial"][f"{direction}_r10"]
        if adv > HALVING * clean:
            problems.append(f"{direction}_r10 {adv} not halved from clean {clean}")
    return problems


def eval_problems(report: dict, reference: dict, delta_sha: str) -> list[str]:
    """An eval report reproduces the attack report that made the perturbation."""
    problems = []
    if report["hashes"].get("perturbation") != delta_sha:
        problems.append("eval report names another perturbation hash")
    for part in ("clean", "adversarial"):
        if report[part] != reference[part]:
            problems.append(f"eval {part} metrics differ from the attack report")
    return problems


class Fingerprints:
    """Deterministic outputs of one (workload, seed, code) kept across runs.

    The first run stores each value; every later operation, in this process
    or a later one, must reproduce it exactly.
    """

    def __init__(self, path: Path):
        self.path = path
        self.values = json.loads(path.read_text()) if path.exists() else {}
        self._dirty = False

    def problems(self, observed: dict) -> list[str]:
        problems = []
        for key, value in observed.items():
            if key not in self.values:
                self.values[key] = value
                self._dirty = True
            elif self.values[key] != value:
                problems.append(f"nondeterministic {key}: {value!r} != {self.values[key]!r}")
        return problems

    def save(self) -> None:
        if self._dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.values, indent=1, sort_keys=True))
            tmp.replace(self.path)


def code_hash(src: Path) -> str:
    """SHA-256 over the package sources, so fingerprints follow the code."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
