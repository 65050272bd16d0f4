"""The benchmark's hooks into the package must keep working.

``bench/tracing.py`` replaces each target at the name its caller looks up;
a target missing from its owner's own namespace would silently trace nothing
(or fail only inside the slow ``bench/selftest.py``).  The oracle twins of
``bench/workloads.py`` read ``SolutionRecord.states``.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracing():
    return _load("tracing")


def test_tracer_targets_are_bound_on_their_owners():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _tracing().targets()
               if attr not in vars(owner)]
    assert not missing, f"tracer targets not bound: {missing}"


def test_oracle_twins_at_reduced_sizes():
    # seed 7, input 0 of each solve workload, shrunk; the values before the
    # record kept the solver's coefficients were 6.27e-9 and 8.72e-5
    wl = _load("workloads")
    hinged = wl._hinged_payload(np.random.default_rng([7, 0]))
    hinged.update(N=32, T=1e-3)
    clamped = wl._clamped_payload(np.random.default_rng([7, 0]))
    clamped.update(N=32, K_clamped=16, T=2e-4)
    for err, before in ((wl.hinged_oracle_error(hinged), 6.27e-9),
                        (wl.clamped_oracle_error(clamped), 8.72e-5)):
        assert math.isfinite(err) and err <= 2.0 * before
