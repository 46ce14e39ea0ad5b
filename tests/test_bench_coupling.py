"""The benchmark's tracer (perfbench/tracing.py) wraps package entry points
by name and unpacks some of their arguments, and its harness
(perfbench/child.py, perfbench/run.py) calls a few more directly.  A
rename or a changed signature here would break only benchmark runs, at
benchmark time; these tests catch it in the ordinary suite.  The tracer
is loaded, never installed, so no entry point is replaced.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import spinquench.mqc
from spinquench import operators, pipeline, scaling
from spinquench.config import RunConfig
from spinquench.evolution import Propagator, _apply_mixed_array
from spinquench.io import atomic_write_text
from spinquench.scaling import bootstrap_fit_xi

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

BENCH_CONFIG = """
run.label = quad
geometry.kind = cubic_lattice
geometry.shape = 2, 2, 1
protocol.mode = average
protocol.time_grid = 0.5, 1.0
p_sweep = 0.0, 0.3, 0.6
estimator.kind = exact
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_resolves(tracing):
    for module, path, name in tracing.WRAPPED:
        owner, attr = tracing._resolve(module, path)
        assert callable(getattr(owner, attr, None)), f"{module}.{path} ({name}) is gone"


def test_hooked_signatures_keep_their_arguments():
    # the tracer's exp hook unpacks (self, amp, p, duration); its matvec
    # hook reads the block as the third positional argument
    assert list(inspect.signature(Propagator._exp).parameters) == ["self", "amp", "p", "duration"]
    assert list(inspect.signature(_apply_mixed_array).parameters)[2] == "v"


def test_bootstrap_and_write_hooks_keep_their_arguments():
    # the bootstrap hook binds the call's arguments and reads n_resamples
    # by name; the write hook reads the text as the second positional one
    assert "n_resamples" in inspect.signature(bootstrap_fit_xi).parameters
    assert list(inspect.signature(atomic_write_text).parameters)[1] == "text"


def test_fit_xi_is_the_pipeline_fitter():
    # the tracer's two scaling.xi_fit rows wrap fit_xi_branch_gauged and
    # fit_xi; both must name the one xi fit that the pipeline runs
    assert scaling.fit_xi is scaling.fit_xi_branch_gauged


def test_exact_path_is_stepped_as_a_generator():
    # the tracer times each next() of it as evolution.exact_first/_step
    assert inspect.isgeneratorfunction(spinquench.mqc.evolve_density_exact)


def test_harness_calls_resolve(tmp_path):
    # child.py's set-up timing builds the workspace (simulate) or loads the
    # input trajectories (scale); run.py's h_norms applies H(p) to 1-D vectors
    config = RunConfig.parse(BENCH_CONFIG + f"scale.input_dir = {tmp_path}\n")
    network = config.build_network()
    ws = operators.workspace_for(network)
    dim = ws.basis.dimension
    v = np.random.default_rng(0).standard_normal(dim)
    hv = operators._apply_mixed_array(ws, 0.3, v)
    assert hv.shape == (dim,)
    np.testing.assert_allclose(hv, operators.dense_hamiltonian(network, 0.3) @ v, atol=1e-12)
    pipeline.cmd_simulate(config, tmp_path)
    assert [tr.p for tr in pipeline.load_input_trajectories(config)] == [0.0, 0.3, 0.6]
