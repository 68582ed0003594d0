"""The shared model pool: trained once per source tree, cached on disk.

Training the pool (24 specialised models plus one reference network per
predicate) takes about a minute on two cores, so it is a build step, not
part of a run's set-up: the first run in a checkout trains it and saves it
with :func:`repro.core.persistence.save_optimizer` under
``.bench_build/perfbench/``; every later run loads it with
:func:`~repro.core.persistence.load_optimizer`.  The cache key hashes the
pool spec and every source file under ``src/repro``, so a change to the
program retrains instead of reusing a stale pool.  The workload seed never
reaches the pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_spec() -> dict:
    """The benchmark's spec: pool, workloads and layer map."""
    return json.loads(SPEC_PATH.read_text())


@dataclass
class Pool:
    """Loaded optimizers plus what a database needs to price them."""

    scale: object
    optimizers: dict
    device: object
    reference_params: dict


def _scale(pool_spec: dict):
    from repro.experiments.presets import DEFAULT_SCALE

    return replace(DEFAULT_SCALE, name="perfbench",
                   categories=tuple(pool_spec["predicates"]),
                   color_modes=tuple(pool_spec["color_modes"]))


def _reference_params(scale) -> dict:
    return {"base_width": scale.reference_width,
            "n_stages": scale.reference_stages,
            "blocks_per_stage": scale.reference_blocks}


def _cache_key(pool_spec: dict) -> str:
    trained_by = {key: pool_spec[key]
                  for key in ("scale", "predicates", "color_modes")}
    digest = hashlib.sha256(json.dumps(trained_by, sort_keys=True).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _train(scale, target: Path) -> None:
    from repro.core.persistence import save_optimizer
    from repro.experiments.workspace import build_workspace

    workspace = build_workspace(scale)
    staging = target.with_name(target.name + f".tmp-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    for name, predicate in workspace.predicates.items():
        save_optimizer(predicate.optimizer, staging / name,
                       reference_params=_reference_params(scale))
    os.replace(staging, target)


def ensure_pool(pool_spec: dict) -> Path:
    """The cached pool directory, training it first when absent."""
    target = BUILD_DIR / f"pool-{_cache_key(pool_spec)}"
    if not target.is_dir():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        print(f"perfbench: training the model pool into {target.name} "
              "(first run in this checkout)", file=sys.stderr, flush=True)
        _train(_scale(pool_spec), target)
    return target


def load_pool(pool_spec: dict, directory: Path) -> Pool:
    """Load the cached optimizers and calibrate the device on them."""
    from repro.core.persistence import load_optimizer
    from repro.costs.device import calibrate_device

    scale = _scale(pool_spec)
    optimizers = {name: load_optimizer(directory / name)
                  for name in scale.categories}
    reference = optimizers[scale.categories[0]].reference_model
    device = calibrate_device(scale.device, reference.flops,
                              target_fps=scale.reference_target_fps)
    return Pool(scale=scale, optimizers=optimizers, device=device,
                reference_params=_reference_params(scale))
