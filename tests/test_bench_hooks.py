"""The benchmark's traced run wraps named call sites in frontsteer modules
(``perfbench/tracing.py``), and its workloads call the public API
(``perfbench/workloads.py``).  A refactor that drops, renames or re-signs
one of those names should fail here, not in the benchmark run."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_calls():
    return _load("tracing")._calls()


@pytest.mark.parametrize("owner,attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, _layer, _hook in _traced_calls()])
def test_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr))



def test_bundle_certificate_of_an_optimize_bundle_is_finite(tmp_path):
    """``perfbench/workloads.py`` calls ``certify.duality_gap(problem, u, f,
    m, w)`` positionally on a stored bundle's nodal w; that call must return
    a finite certificate."""
    from frontsteer import cli, grid
    workloads = _load("workloads")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"nx": [32], "nt": 33, "u_T": {"preset": "cosine"},
                    "m0": {"preset": "gaussian"}},
        "solver": {"max_iters": 4000, "tol_gap": 1e-3, "tol_cont": 1e-3}}))
    out = tmp_path / "out"
    assert cli.main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
    problem = cli.build_problem(cli.load_config(str(cfg_path)))
    fields = (grid.read_field(out / f"{n}.field") for n in "ufmw")
    figures = workloads.bundle_certificate(problem, *fields)
    assert len(figures) == 3
    assert all(isinstance(x, float) and math.isfinite(x) for x in figures.values())


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_configs_load(name, tmp_path):
    """``load_config`` refuses unknown keys; every key a workload writes must
    stay known."""
    from frontsteer import cli
    workload = _load("workloads").WORKLOADS[name](1, tmp_path)
    config = cli.load_config(str(workload.config))
    assert config["seed"] == 1
