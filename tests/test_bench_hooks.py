"""The benchmark's traced run wraps named call sites in frontsteer modules
(``perfbench/tracing.py``), and its workloads call the public API
(``perfbench/workloads.py``).  A refactor that drops, renames or re-signs
one of those names should fail here, not in the benchmark run."""

import ast
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "frontsteer"


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



def _unused_imports(path):
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_unused_imports_are_traced_names(path):
    """A module imports a name it never reads only for the traced run to
    wrap it in that namespace."""
    wrapped = {attr for owner, attr, _layer, _hook in _traced_calls()
               if getattr(owner, "__name__", None) == f"frontsteer.{path.stem}"}
    assert _unused_imports(path) <= wrapped


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


def test_traced_certify_of_a_nodal_bundle(tmp_path):
    """The traced run's wrappers and hooks (which read positional arguments)
    over ``frontsteer certify`` of a nodal 8^2x9 bundle: all seven checks
    are counted, the subsolution check is timed, and every metric is
    finite."""
    from frontsteer import cli
    from frontsteer.grid import ScalarField, TorusGrid, VecField, write_field
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": {"dim": 2, "nx": [8, 8], "nt": 9, "cost": {"p": 4.0},
                    "u_T": {"preset": "cosine"}, "m0": {"preset": "gaussian"}}}))
    grid = TorusGrid(2, (8, 8), 9, 1.0)
    rng = np.random.default_rng(8)
    shape = (grid.nt, *grid.nx)
    m = rng.random(shape) * (rng.random(shape) > 0.2)
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name, fld in (("u", ScalarField(grid, rng.standard_normal(shape))),
                      ("f", ScalarField(grid, rng.random(shape))),
                      ("m", ScalarField(grid, m)),
                      ("w", VecField(grid, rng.standard_normal((*shape, 2)) * m[..., None]))):
        write_field(bundle / f"{name}.field", fld)
    tracer = _load("tracing").Tracer()
    code = tracer.run(lambda: cli.main(["certify", "--config", str(cfg_path), "--bundle",
                                        str(bundle), "--out", str(tmp_path / "out")]))
    assert code in (0, 1)
    metrics = tracer.metrics(1.0, {})
    assert metrics["certify.checks_run"] == 7
    assert metrics["certify.subsolution_s"] > 0
    assert all(math.isfinite(x) for x in metrics.values())


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_workload_passes_its_gate(name, tmp_path):
    """Each workload the benchmark lists, built at seed 0 and run once as
    the benchmark runs it: its gate finds no error.  This runs the calls
    ``perfbench/workloads.py`` makes (``solve_continuity``,
    ``sample_trajectories``, ``continuity_residual_rows``, ``duality_gap``
    and the CLI commands) with their current signatures."""
    workload = _load("workloads").WORKLOADS[name](0, tmp_path)
    assert workload.gate(workload.run()) == []
    assert all(math.isfinite(x) for x in workload.bundle().values())
