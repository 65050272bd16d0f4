"""Spans around calls into the six bihns modules, recorded from outside.

Each public function is replaced at the name its caller looks up (a module
that did ``from .spectral import sine_state`` calls its own binding, while
``bihns.nonlinear`` reaches ``duhamel_history`` through ``lf.``), so one
function can need wrapping in more than one module.  ``restore`` puts every
original object back.

A span is ``[name, start, end, parent, thread, extra]``.  Spans of one unit
hang under the unit's root span; a span opened on a thread with no open span
(the kato sweep pool) takes as parent the innermost span open on the thread
that runs the unit, which is waiting for the pool.  Self time is a span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from collections import defaultdict
from time import perf_counter

ROOT = "bench.unit"


def _mode_steps(args, kwargs, result):
    F = args[0] if args else kwargs["F"]
    return (len(F.times) - 1) * len(F.omegas)


def _gemm_flops(m, k, n):
    # complex x real products run as complex GEMMs: 8 real flops per term
    return 8 * m * k * n


def _picard_stats(args, kwargs, rec):
    """T*/T, iterations and the dense-transform flops computed from shapes.

    hinged: each nonlinearity evaluation is two (nt, N) x (N, M+1) products on
    M = max(2, ceil(p/2)) N + 1 intervals, evaluated once per iteration plus
    once each for the residual and the mode residual;
    clamped: three (nt, K) x (K, Mx) products per iteration on Mx = 4 max(N, K)
    + 1 points, two (nt, N) x (N, Mx) syntheses before the loop and three
    products for the final mixed-basis states.
    """
    spec = args[0] if args else kwargs["spec"]
    nt, N = len(rec.times), spec.N
    if spec.family == "navier":
        evals = rec.iterations + 2 if spec.lam != 0 else 0
        M = max(2, math.ceil(spec.p / 2.0)) * N + 1
        flops = evals * 2 * _gemm_flops(nt, N, M + 1)
    else:
        K = spec.K_clamped
        Mx = 4 * max(N, K) + 1
        flops = (3 * rec.iterations * _gemm_flops(nt, K, Mx)
                 + 4 * _gemm_flops(nt, N, Mx) + _gemm_flops(nt, K, Mx))
    return {"iterations": rec.iterations, "tstar_ratio": rec.tstar / spec.T,
            "flops": flops}


def targets():
    """(owner, attribute, span name, stats hook) for every wrapped callable."""
    import bihns.boundary_ops as bops
    import bihns.cli as cli
    import bihns.lab as lab
    import bihns.linear_flow as lf
    import bihns.nonlinear as nl
    from bihns.spectral import BoundaryTrace

    return [
        (lf, "duhamel_history", "linear_flow.duhamel_history", _mode_steps),
        (bops, "duhamel_history", "linear_flow.duhamel_history", _mode_steps),
        (lf, "build_clamped_basis", "linear_flow.build_clamped_basis", None),
        (bops, "build_clamped_basis", "linear_flow.build_clamped_basis", None),
        (bops, "navier_boundary_history", "boundary_ops.navier_boundary_history", None),
        (bops, "dirichlet_linear_history", "boundary_ops.dirichlet_linear_history", None),
        (bops, "dirichlet_traces", "boundary_ops.dirichlet_traces", None),
        (cli, "picard_navier", "nonlinear.picard", _picard_stats),
        (cli, "picard_dirichlet", "nonlinear.picard", _picard_stats),
        (nl, "sine_state", "spectral.record_states", None),
        (nl, "mixed_state", "spectral.record_states", None),
        (cli, "sobolev_norm", "spectral.sobolev_norm", None),
        (lab, "sobolev_norm", "spectral.sobolev_norm", None),
        (nl, "sine_coefficients", "spectral.transforms", None),
        (nl, "odd_even_extend", "spectral.transforms", None),
        (nl, "reconstruct", "spectral.transforms", None),
        (lab, "odd_even_extend", "spectral.transforms", None),
        (cli, "reconstruct", "spectral.transforms", None),
        (BoundaryTrace, "__call__", "spectral.trace_eval", None),
        (lab, "kato_sweep", "lab.kato_sweep", None),
        (lab, "count_lambda4", "lab.count_lambda4", None),
        (lab, "optimality_run", "lab.other", None),
        (lab, "identity_checks", "lab.other", None),
        (lab, "trace_regularity_r", "lab.other", None),
        (lab, "tail_bound_spotcheck", "lab.other", None),
        (lab, "measured_trace_exponent", "lab.measured_trace_exponent", None),
        (cli, "run", "cli.run", None),
    ]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root = None
        self._main = []
        self._originals = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, stats):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main
                parent = main[-1] if main else tracer._root
            span = [name, perf_counter(), 0.0, parent, threading.get_ident(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if stats is not None:
                span[5] = stats(args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, name, stats in targets():
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, stats))

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def begin_unit(self):
        self._main = self._stack()
        self._root = [ROOT, perf_counter(), 0.0, None, threading.get_ident(), None]
        return len(self.spans)

    def end_unit(self, first: int):
        """Close the root span; returns this unit's spans, root last."""
        self._root[2] = perf_counter()
        self.spans.append(self._root)
        self._root = None
        return self.spans[first:]

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        threads = {}
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "thread"])
            for i, (name, start, end, parent, thread, _) in enumerate(self.spans):
                w.writerow([i, name, f"{start:.9f}", f"{end:.9f}",
                            ids[id(parent)] if parent is not None else "",
                            threads.setdefault(thread, len(threads))])


def originals_restored(originals) -> bool:
    """True when every wrapped attribute is the recorded original object."""
    return all(owner.__dict__[attr] is obj for owner, attr, obj in originals)


def snapshot():
    """(owner, attribute, object) for every target, before tracing."""
    return [(t[0], t[1], t[0].__dict__[t[1]]) for t in targets()]


def _union(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def unit_layers(spans):
    """Per-layer numbers of one traced unit (``spans`` from ``end_unit``)."""
    root = spans[-1]
    children = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[id(s[3])].append(s)
    self_s = {}
    for s in spans:
        inside = [(max(c[1], s[1]), min(c[2], s[2])) for c in children[id(s)]]
        self_s[id(s)] = (s[2] - s[1]) - _union(inside)

    def outermost(s):
        p = s[3]
        while p is not None:
            if p[0] == s[0]:
                return False
            p = p[3]
        return True

    calls, busy, own, extras = (defaultdict(int), defaultdict(float),
                                defaultdict(float), defaultdict(list))
    for s in spans[:-1]:
        calls[s[0]] += 1
        own[s[0]] += self_s[id(s)]
        if outermost(s):
            busy[s[0]] += s[2] - s[1]
        if s[5] is not None:
            extras[s[0]].append(s[5])
    picard = extras["nonlinear.picard"]
    unit_s = root[2] - root[1]
    return {
        "linear_flow.duhamel_history.calls": calls["linear_flow.duhamel_history"],
        "linear_flow.duhamel_history.busy_s": busy["linear_flow.duhamel_history"],
        "linear_flow.duhamel_history.mode_steps": sum(extras["linear_flow.duhamel_history"]),
        "linear_flow.build_clamped_basis.calls": calls["linear_flow.build_clamped_basis"],
        "linear_flow.build_clamped_basis.busy_s": busy["linear_flow.build_clamped_basis"],
        "boundary_ops.dirichlet_linear_history.busy_s": busy["boundary_ops.dirichlet_linear_history"],
        "boundary_ops.navier_boundary_history.busy_s": busy["boundary_ops.navier_boundary_history"],
        "boundary_ops.dirichlet_traces.busy_s": busy["boundary_ops.dirichlet_traces"],
        "nonlinear.picard.self_s": own["nonlinear.picard"],
        "nonlinear.picard.iterations": sum(p["iterations"] for p in picard),
        "nonlinear.picard.tstar_ratio": min((p["tstar_ratio"] for p in picard), default=0.0),
        "nonlinear.dense_transform_flops": sum(p["flops"] for p in picard),
        "spectral.record_states.calls": calls["spectral.record_states"],
        "spectral.record_states.busy_s": busy["spectral.record_states"],
        "spectral.sobolev_norm.calls": calls["spectral.sobolev_norm"],
        "spectral.sobolev_norm.busy_s": busy["spectral.sobolev_norm"],
        "spectral.transforms.busy_s": busy["spectral.transforms"],
        "spectral.trace_eval.busy_s": busy["spectral.trace_eval"],
        "lab.kato_sweep.busy_s": busy["lab.kato_sweep"],
        "lab.count_lambda4.busy_s": busy["lab.count_lambda4"],
        "lab.other.busy_s": busy["lab.other"],
        "lab.measured_trace_exponent.calls": calls["lab.measured_trace_exponent"],
        "cli.run.self_s": own["cli.run"],
        "cli.pool_threads": len({s[4] for s in spans} - {root[4]}),
        "trace.spans": len(spans) - 1,
        "trace.unattributed_s": self_s[id(root)],
        "trace.self_coverage": sum(own.values()) / unit_s,
    }
