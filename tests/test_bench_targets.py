"""Every callable the benchmark tracer wraps must exist where it is wrapped.

``bench/tracing.py`` replaces each target at the name its caller looks up;
a target missing from its owner's own namespace would silently trace nothing
(or fail only inside the slow ``bench/selftest.py``).
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_are_bound_on_their_owners():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _tracing().targets()
               if attr not in vars(owner)]
    assert not missing, f"tracer targets not bound: {missing}"
