"""Spans around the calls into each spinquench layer, and the per-layer
metrics derived from them.

The traced child process calls ``Tracer.install()`` before running the CLI.
It replaces each entry point listed in ``WRAPPED`` at the place its caller
looks it up (a module global or a class attribute), so no file under
``src/`` changes.  Each call records a span (name, start, end, parent);
spans stay in memory and are written as JSON when the run ends.  The
pair-mismatch evaluation of the collapse runs ~10^5 times per run, so it
is counted, not spanned.

``layer_metrics`` turns one written trace into the per-layer metrics.  A
span's self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import warnings
from collections import Counter, defaultdict

#: (module, attribute path where the caller looks it up, span name).
#: A later change that moves one of these entry points must move the row
#: with it, or the counter silently drops to zero.
WRAPPED = (
    ("spinquench.config", "generate_geometry", "network.generate_geometry"),
    ("spinquench.config", "dipolar_couplings", "network.dipolar_couplings"),
    ("spinquench.operators", "_Workspace.__init__", "operators.workspace"),
    ("spinquench.evolution", "_apply_mixed_array", "operators.matvec"),
    ("spinquench.evolution", "dense_hamiltonian", "operators.dense_hamiltonian"),
    ("spinquench.operators", "coherence_order_weights", "operators.order_weights"),
    ("spinquench.operators", "DensityMatrix.__post_init__", "operators.density_build"),
    ("spinquench.mqc", "evolve_density_exact", "evolution.exact"),
    ("spinquench.evolution", "Propagator.step_forward", "evolution.propagate"),
    ("spinquench.evolution", "Propagator.step_backward", "evolution.propagate"),
    ("spinquench.evolution", "Propagator.span_forward", "evolution.propagate"),
    ("spinquench.evolution", "Propagator._exp", "evolution.exp"),
    ("spinquench.evolution", "expm_multiply_krylov", "evolution.expm"),
    ("spinquench.mqc", "mqc_typicality_grid", "mqc.typicality"),
    ("spinquench.mqc", "mqc_exact", "mqc.exact_spectrum"),
    ("spinquench.mqc", "cluster_size", "mqc.cluster_size"),
    ("spinquench.pipeline", "fit_growth_exponent", "scaling.growth_fit"),
    ("spinquench.scaling", "fit_growth_exponent", "scaling.growth_fit"),
    ("spinquench.scaling", "beta_scan", "scaling.beta_scan"),
    ("spinquench.scaling", "collapse", "scaling.collapse"),
    ("spinquench.scaling", "_pair_mismatch", "scaling.pair_eval"),
    ("spinquench.scaling", "fit_xi_branch_gauged", "scaling.xi_fit"),
    ("spinquench.scaling", "fit_xi", "scaling.xi_fit"),
    ("spinquench.scaling", "bootstrap_fit_xi", "scaling.bootstrap"),
    ("spinquench.io", "read_trajectory_file", "io.read"),
    ("spinquench.io", "read_report_json", "io.read"),
    ("spinquench.io", "atomic_write_text", "io.write"),
    ("spinquench.cli", "cmd_simulate", "pipeline.simulate"),
    ("spinquench.cli", "cmd_scale", "pipeline.scale"),
)

#: span names that are only counted
COUNT_ONLY = {"scaling.pair_eval"}
#: generators; each step is a span, named <name>_first or <name>_step
GENERATORS = {"evolution.exact"}

#: EstimatorWarning message fragments, counted from outside the estimator
WARNING_COUNTERS = {
    "Gaussian-fit fallback": "k_fallbacks",
    "negative coherence weight": "negative_weight_warnings",
}

#: per-layer metrics: name, unit, better
LAYER_METRICS = (
    ("operators.matvec_calls", "count", "lower"),
    ("operators.matvec_cols", "count", "lower"),
    ("operators.matvec_s", "s", "lower"),
    ("operators.workspace_s", "s", "lower"),
    ("network.build_s", "s", "lower"),
    ("operators.dense_h_s", "s", "lower"),
    ("operators.order_weights_s", "s", "lower"),
    ("operators.density_build_s", "s", "lower"),
    ("evolution.exact_first_s", "s", "lower"),
    ("evolution.exact_step_s", "s", "lower"),
    ("evolution.propagate_calls", "count", "lower"),
    ("evolution.propagate_s", "s", "lower"),
    ("evolution.expm_calls", "count", "lower"),
    ("evolution.matvecs_per_expm", "1", "lower"),
    ("evolution.matvecs_per_norm_t", "1", "lower"),
    ("mqc.typicality_s", "s", "lower"),
    ("mqc.exact_spectrum_s", "s", "lower"),
    ("mqc.cluster_size_calls", "count", "lower"),
    ("mqc.cluster_size_s", "s", "lower"),
    ("mqc.k_fallbacks", "count", "lower"),
    ("mqc.fallback_ratio", "1", "lower"),
    ("mqc.negative_weight_warnings", "count", "lower"),
    ("scaling.growth_fit_s", "s", "lower"),
    ("scaling.beta_scan_s", "s", "lower"),
    ("scaling.collapse_calls", "count", "lower"),
    ("scaling.collapse_s", "s", "lower"),
    ("scaling.pair_evals", "count", "lower"),
    ("scaling.xi_fit_s", "s", "lower"),
    ("scaling.bootstrap_s", "s", "lower"),
    ("scaling.bootstrap_ok_ratio", "1", "higher"),
    ("io.read_s", "s", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("pipeline.simulate_s", "s", "lower"),
    ("pipeline.scale_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("spec_l1", "1", "lower"),
    ("p_c_rel_err", "1", "lower"),
    ("nu_rel_err", "1", "lower"),
    ("fail_ratio", "1", "lower"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counters = Counter()
        self.exp_time = defaultdict(float)   # p -> sum |dt| over Propagator._exp
        self.bootstrap = []                  # (n_effective, n_resamples)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _spanned(self, fn, name, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _stepped(self, fn, name):
        """Times each step of a generator: the first item (for the dense
        evolution, eigh and basis change included), then every later one."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            step = f"{name}_first"
            while True:
                idx = self._open(step)
                try:
                    item = next(gen)
                except StopIteration:
                    self.spans[idx][0] = f"{name}_end"
                    return
                finally:
                    self._close(idx)
                step = f"{name}_step"
                yield item
        return wrapper

    def _hooks(self):
        def matvec(args, kwargs, result):
            v = args[2]
            self.counters["matvec_cols"] += v.shape[1] if v.ndim == 2 else 1

        def exp(args, kwargs, result):
            _, _, p, duration = args
            self.exp_time[float(p)] += abs(float(duration))

        def bootstrap(args, kwargs, result):
            import spinquench.scaling as scaling
            bound = inspect.signature(scaling.bootstrap_fit_xi).bind(*args, **kwargs)
            bound.apply_defaults()
            self.bootstrap.append((int(result["n_effective"]), int(bound.arguments["n_resamples"])))

        def write(args, kwargs, result):
            self.counters["bytes_written"] += len(args[1].encode("utf-8"))

        return {"operators.matvec": matvec, "evolution.exp": exp,
                "scaling.bootstrap": bootstrap, "io.write": write}

    def install(self):
        hooks = self._hooks()
        for module, path, name in WRAPPED:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            if name in GENERATORS:
                wrapped = self._stepped(fn, name)
            elif name in COUNT_ONLY:
                wrapped = self._counted(fn, name)
            else:
                wrapped = self._spanned(fn, name, hooks.get(name))
            setattr(owner, attr, wrapped)
        self._count_warnings()

    def _count_warnings(self):
        from spinquench.errors import EstimatorWarning
        warnings.simplefilter("always", EstimatorWarning)
        shown = warnings.showwarning

        def showwarning(message, category, *args, **kwargs):
            if issubclass(category, EstimatorWarning):
                for fragment, counter in WARNING_COUNTERS.items():
                    if fragment in str(message):
                        self.counters[counter] += 1
                        return
            shown(message, category, *args, **kwargs)
        warnings.showwarning = showwarning

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "exp_time": [[p, t] for p, t in self.exp_time.items()],
                       "bootstrap": self.bootstrap}, fh)


def layer_metrics(trace: dict, norms: dict) -> dict:
    """Per-layer metrics of one trace.  ``norms`` maps p to ||H(p)||_2."""
    spans = trace["spans"]
    counters = trace["counters"]
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        self_time[s[0]] += dur[i] - child_time[i]
        calls[s[0]] += 1

    def has_ancestor(i, names):
        j = spans[i][3]
        while j >= 0:
            if spans[j][0] in names:
                return True
            j = spans[j][3]
        return False

    matvecs_in_expm = sum(1 for i, s in enumerate(spans)
                          if s[0] == "operators.matvec" and has_ancestor(i, {"evolution.expm"}))
    norm_t = sum(norms[p] * t for p, t in trace["exp_time"])
    xi_top = sum(dur[i] for i, s in enumerate(spans) if s[0] == "scaling.xi_fit"
                 and not has_ancestor(i, {"scaling.xi_fit", "scaling.bootstrap"}))
    boot_ok = sum(b[0] for b in trace["bootstrap"])
    boot_n = sum(b[1] for b in trace["bootstrap"])
    n_steps = calls["evolution.exact_step"]
    k_calls = calls["mqc.cluster_size"]
    fallbacks = counters.get("k_fallbacks", 0)
    return {
        "operators.matvec_calls": calls["operators.matvec"],
        "operators.matvec_cols": counters.get("matvec_cols", 0),
        "operators.matvec_s": total["operators.matvec"],
        "operators.workspace_s": total["operators.workspace"],
        "network.build_s": total["network.generate_geometry"] + total["network.dipolar_couplings"],
        "operators.dense_h_s": total["operators.dense_hamiltonian"],
        "operators.order_weights_s": total["operators.order_weights"],
        "operators.density_build_s": total["operators.density_build"],
        "evolution.exact_first_s": total["evolution.exact_first"],
        "evolution.exact_step_s": total["evolution.exact_step"] / n_steps if n_steps else 0.0,
        "evolution.propagate_calls": calls["evolution.propagate"],
        "evolution.propagate_s": total["evolution.propagate"],
        "evolution.expm_calls": calls["evolution.expm"],
        "evolution.matvecs_per_expm": (matvecs_in_expm / calls["evolution.expm"]
                                       if calls["evolution.expm"] else 0.0),
        "evolution.matvecs_per_norm_t": matvecs_in_expm / norm_t if norm_t > 0 else 0.0,
        "mqc.typicality_s": self_time["mqc.typicality"],
        "mqc.exact_spectrum_s": total["mqc.exact_spectrum"],
        "mqc.cluster_size_calls": k_calls,
        "mqc.cluster_size_s": total["mqc.cluster_size"],
        "mqc.k_fallbacks": fallbacks,
        "mqc.fallback_ratio": fallbacks / k_calls if k_calls else 0.0,
        "mqc.negative_weight_warnings": counters.get("negative_weight_warnings", 0),
        "scaling.growth_fit_s": total["scaling.growth_fit"],
        "scaling.beta_scan_s": total["scaling.beta_scan"],
        "scaling.collapse_calls": calls["scaling.collapse"],
        "scaling.collapse_s": total["scaling.collapse"],
        "scaling.pair_evals": counters.get("scaling.pair_eval", 0),
        "scaling.xi_fit_s": xi_top,
        "scaling.bootstrap_s": total["scaling.bootstrap"],
        "scaling.bootstrap_ok_ratio": boot_ok / boot_n if boot_n else 0.0,
        "io.read_s": total["io.read"],
        "io.write_s": total["io.write"],
        "io.bytes_written": counters.get("bytes_written", 0),
        "pipeline.simulate_s": total["pipeline.simulate"],
        "pipeline.scale_s": total["pipeline.scale"],
    }
