"""Span tracer for the traced run.

Spans are recorded from the benchmark's own code: for the duration of one
traced operation, every public name that one frontsteer layer calls in
another is replaced, in the namespace of the caller, by a wrapper that
records a span (name, layer, start, end, parent).  Spans stay in memory and
are reduced to per-layer metrics when the operation ends.

A layer's self time is the time of its spans minus the time of their child
spans.  The operation itself is the root span (layer ``bench``); its self
time is the part of the traced wall time that no layer span covers.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from frontsteer import certify, cli, grid, hj, pdopt, transport

CHECK_FUNCTIONS = {"ibp_inequality": "check_ibp_inequality",
                   "weak_solution": "check_weak_solution",
                   "pointwise_hj": "check_pointwise_hj",
                   "subsolution": "check_subsolution",
                   "holder": "check_holder",
                   "duality_gap": "duality_gap"}


# -- hooks: counts taken from a wrapped call's arguments and result ------------


def _grid_nodes(g) -> int:
    return g.nt * g.n_space


def _file_size(key):
    def hook(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0])
    return hook


def _optimize(counts, args, kwargs, result):
    diag = result.diagnostics
    g = args[0].grid
    counts["pdopt.cp_iters"] += diag.iterations
    counts["pdopt.node_iters"] += diag.iterations * _grid_nodes(g)
    scale = max(abs(diag.a_history[-1]), abs(diag.b_history[-1]), 1e-10)
    counts["pdopt.final_rel_gap"] = abs(diag.final_gap) / scale


def _prox_nodes(arg_index):
    def hook(counts, args, kwargs, result):
        counts["model.prox_nodes"] += np.size(args[arg_index])
    return hook


def _hj_nodes(counts, args, kwargs, result):
    counts["hj.nodes"] += _grid_nodes(args[0].grid)


def _continuity_nodes(counts, args, kwargs, result):
    counts["transport.continuity_nodes"] += _grid_nodes(args[1].grid)


def _path_steps(counts, args, kwargs, result):
    counts["transport.path_steps"] += args[2] * (args[1].grid.nt - 1)


def _pushforward(counts, args, kwargs, result):
    counts["transport.pushforward_l1"] = result


def _reports(counts, args, kwargs, result):
    reports = result if isinstance(result, tuple) else (result,)
    counts["certify.checks_run"] += len(reports)
    counts["certify.checks_passed"] += sum(bool(r.passed) for r in reports)


def _gap(counts, args, kwargs, result):
    counts["certify.checks_run"] += 1
    counts["certify.checks_passed"] += bool(np.isfinite(result) and result >= -1e-9)


def _calls():
    """(namespace, attribute, layer, hook) for every cross-layer call site."""
    window = hj.CounterexampleWindow
    return [
        (cli, "main", "cli", None),
        (cli, "read_field", "grid", _file_size("grid.bytes_read")),
        (cli, "write_field", "grid", _file_size("grid.bytes_written")),
        (grid, "read_field", "grid", _file_size("grid.bytes_read")),
        (pdopt, "optimize", "pdopt", _optimize),
        (pdopt, "recover_f", "pdopt", None),
        (pdopt, "recover_velocity", "pdopt", None),
        (pdopt, "prox_cost_conj_coned", "model", _prox_nodes(2)),
        (pdopt, "prox_cost_conj", "model", _prox_nodes(1)),
        (pdopt, "cost", "model", None),
        (pdopt, "cost_conj", "model", None),
        (pdopt, "cost_deriv_conj", "model", None),
        (hj, "solve_value_function", "hj", _hj_nodes),
        (hj, "extract_front", "hj", None),
        (hj, "counterexample_instance", "hj", None),
        (hj, "counterexample_speed", "hj", None),
        (window, "exact_window", "hj", None),
        (window, "window_values", "hj", None),
        (window, "window_x", "hj", None),
        (window, "comparison_mask", "hj", None),
        (window, "obstacle_field", "hj", None),
        (transport, "solve_continuity", "transport", _continuity_nodes),
        (transport, "sample_trajectories", "transport", _path_steps),
        (transport, "pushforward_distance", "transport", _pushforward),
        (transport, "write_trajectories", "transport", None),
        (transport, "interp_space", "grid", None),
        (certify, "check_ibp_inequality", "certify", _reports),
        (certify, "check_weak_solution", "certify", _reports),
        (certify, "check_pointwise_hj", "certify", _reports),
        (certify, "check_subsolution", "certify", _reports),
        (certify, "check_holder", "certify", _reports),
        (certify, "duality_gap", "certify", _gap),
        (certify, "reports_to_json", "certify", None),
        (certify, "evaluate_A", "pdopt", None),
        (certify, "evaluate_B", "pdopt", None),
        (certify, "continuity_residual_rows", "pdopt", None),
        (certify, "subsolution_residual", "pdopt", None),
        (certify, "cost_deriv_conj", "model", None),
        (certify, "upwind_directional_derivative", "transport", None),
        (certify, "norm_lp", "grid", None),
        (certify, "interp_space", "grid", None),
    ]


class Tracer:
    """In-memory spans and counts of one traced operation."""

    def __init__(self):
        self.spans = []            # [name, layer, start, end, parent index]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, layer, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every cross-layer call through a span wrapper; undo on exit."""
        saved = []
        try:
            for owner, attr, layer, hook in _calls():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(f"{layer}.{attr}", layer, fn, hook))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def run(self, op):
        """Run ``op`` as the root span with every layer traced; return its result."""
        with self.installed():
            return self.wrap("bench.op", "bench", op)()

    def metrics(self, untraced_wall_s: float, bundle: dict) -> dict:
        """Per-layer metrics of the traced operation.

        ``untraced_wall_s`` is the untraced median wall time of the same
        workload; ``bundle`` holds the certificate figures measured on the
        workload's bundle after the operation (zeros without one).  A
        function the operation never calls gives 0 for its figures."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        evals_in_optimize = 0
        for i, (name, layer, t0, t1, parent) in enumerate(spans):
            incl[name] += t1 - t0
            calls[name] += 1
            self_s[layer] += t1 - t0 - child[i]
            if name == "model.cost" and parent >= 0 and spans[parent][0] == "pdopt.optimize":
                evals_in_optimize += 1
        c = self.counts
        wall = incl["bench.op"]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        prox_s = incl["model.prox_cost_conj_coned"] + incl["model.prox_cost_conj"]
        prox_calls = calls["model.prox_cost_conj_coned"] + calls["model.prox_cost_conj"]
        cost_names = ("model.cost", "model.cost_conj", "model.cost_deriv_conj")
        read_s, write_s = incl["grid.read_field"], incl["grid.write_field"]
        out = {
            "pdopt.optimize_s": incl["pdopt.optimize"],
            "pdopt.self_s": self_s["pdopt"],
            "pdopt.cp_iters": c["pdopt.cp_iters"],
            "pdopt.ns_per_node_iter": per(incl["pdopt.optimize"], c["pdopt.node_iters"], 1e9),
            "pdopt.objective_evals_per_iter": per(evals_in_optimize, c["pdopt.cp_iters"]),
            "pdopt.final_rel_gap": c["pdopt.final_rel_gap"],
            "pdopt.recover_s": incl["pdopt.recover_f"] + incl["pdopt.recover_velocity"],
            "model.self_s": self_s["model"],
            "model.prox_s": prox_s,
            "model.prox_calls": prox_calls,
            "model.prox_ns_per_node": per(prox_s, c["model.prox_nodes"], 1e9),
            "model.cost_eval_s": sum(incl[n] for n in cost_names),
            "model.cost_eval_calls": sum(calls[n] for n in cost_names),
            "hj.self_s": self_s["hj"],
            "hj.solve_s": incl["hj.solve_value_function"],
            "hj.solves": calls["hj.solve_value_function"],
            "hj.ns_per_node": per(incl["hj.solve_value_function"], c["hj.nodes"], 1e9),
            "hj.reference_s": incl["hj.exact_window"],
            "hj.reference_calls": calls["hj.exact_window"],
            "transport.self_s": self_s["transport"],
            "transport.continuity_s": incl["transport.solve_continuity"],
            "transport.continuity_ns_per_node": per(
                incl["transport.solve_continuity"], c["transport.continuity_nodes"], 1e9),
            "transport.sample_s": incl["transport.sample_trajectories"],
            "transport.ns_per_path_step": per(
                incl["transport.sample_trajectories"], c["transport.path_steps"], 1e9),
            "transport.pushforward_s": incl["transport.pushforward_distance"],
            "transport.pushforward_l1": c["transport.pushforward_l1"],
            "grid.self_s": self_s["grid"],
            "grid.read_field_s": read_s,
            "grid.write_field_s": write_s,
            "grid.bytes_read": c["grid.bytes_read"],
            "grid.bytes_written": c["grid.bytes_written"],
            "grid.read_MBps": per(c["grid.bytes_read"], read_s, 1e-6),
            "grid.write_MBps": per(c["grid.bytes_written"], write_s, 1e-6),
            "certify.self_s": self_s["certify"],
            **{f"certify.{check}_s": incl[f"certify.{fn}"]
               for check, fn in CHECK_FUNCTIONS.items()},
            "certify.checks_run": c["certify.checks_run"],
            "certify.checks_passed": c["certify.checks_passed"],
            **bundle,
            "cli.self_s": self_s["cli"],
            "trace.wall_s": wall,
            "trace_overhead_ratio": per(wall, untraced_wall_s),
            "unspanned_s": self_s["bench"],
        }
        return {k: float(v) for k, v in out.items()}
