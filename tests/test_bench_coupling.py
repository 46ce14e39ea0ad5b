"""The benchmark's tracer (perfbench/tracing.py) wraps package entry points
by name and unpacks some of their arguments.  A rename or a changed
signature here would break only traced benchmark runs, at benchmark time;
these tests catch it in the ordinary suite.  The tracer is loaded, never
installed, so no entry point is replaced.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from spinquench.evolution import Propagator, _apply_mixed_array
from spinquench.io import atomic_write_text
from spinquench.scaling import bootstrap_fit_xi

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
