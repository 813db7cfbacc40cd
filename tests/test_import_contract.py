"""Import contract: each serving process imports only what it runs.

A ``repro fabric`` cold start is a window without predictions, and
most of it is imports.  The router only routes, journals and reads
snapshot metadata, so it must never import numpy; a worker scores its
shard, so it must not import the simulator, the apps, the fault
models, the experiment harness, the controller, the operator API or
the lifecycle loop.  Each check runs in a fresh interpreter, because
this test process has imported everything already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.predictor import AnomalyPredictor
from repro.serve.registry import ModelRegistry

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = ("repro.core", "repro.serve", "repro.sim", "repro.faults")

#: What ``repro fabric`` runs in the router before it accepts clients.
ROUTER = """
import sys
import repro.cli
from repro.obs import Observability
from repro.serve.alarms import AlarmManager
from repro.serve.fabric import FabricConfig, ServingFabric
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import WorkerSupervisor

repro.cli.build_parser()
obs = Observability()
fabric = ServingFabric(ModelRegistry(sys.argv[1]), sys.argv[2],
                       FabricConfig(), obs=obs, alarms=AlarmManager(obs=obs))
described = fabric.registry.describe("fleet")
WorkerSupervisor(2, None, None, fabric.config.supervisor)
"""

#: What a fabric worker runs before it serves (``_worker_serve``).
WORKER = """
import sys
import repro.serve.supervisor
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService, ServiceConfig

shard = ModelRegistry(sys.argv[1]).load("fleet", vms=["vm0"])
PredictionService(shard, ServiceConfig())
"""

WORKER_FORBIDDEN = (
    "repro.sim",
    "repro.apps",
    "repro.faults",
    "repro.experiments",
    "repro.core.controller",
    "repro.serve.api",
    "repro.serve.lifecycle",
)


def modules_after(script, *argv):
    """``sys.modules`` of a fresh interpreter that ran ``script``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{env.get('PYTHONPATH', '')}"
    report = "\nimport json\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script + report, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    rng = np.random.default_rng(3)
    fleet = {}
    for i in range(2):
        predictor = AnomalyPredictor(
            [f"m{j}" for j in range(4)], n_bins=5, markov="2dep")
        values = np.cumsum(rng.normal(size=(150, 4)), axis=0)
        labels = (rng.random(150) < 0.3).astype(int)
        fleet[f"vm{i}"] = predictor.train(values, labels)
    root = tmp_path_factory.mktemp("registry")
    ModelRegistry(root).save("fleet", fleet)
    return root


def test_router_never_imports_numpy(registry_root, tmp_path):
    modules = modules_after(ROUTER, registry_root, tmp_path / "run")
    assert "repro.serve.fabric" in modules
    assert not {m for m in modules if m.split(".")[0] == "numpy"}


def test_worker_imports_only_the_model_and_the_service(registry_root):
    modules = modules_after(WORKER, registry_root)
    assert "repro.core.predictor" in modules
    loaded = sorted(
        m for m in modules
        for prefix in WORKER_FORBIDDEN
        if m == prefix or m.startswith(prefix + ".")
    )
    assert loaded == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_imports(package):
    module = importlib.import_module(package)
    assert module.__all__
    for name in module.__all__:
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(module, name)
        assert name in dir(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
