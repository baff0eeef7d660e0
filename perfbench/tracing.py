"""Span tracing for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` wraps public functions of trotterlab in place: the module
that defines each one and every trotterlab module that bound the same object
with ``from ... import``.  While ``Tracer.active`` is set, each call records a
span ``(id, name, start, end, parent id, thread id, self seconds)`` in memory;
self time is the span's duration minus the time its child spans on the same
thread cover.  Outside the timed ops ``active`` is off, so the benchmark's own
output checks never show up in the layer numbers.  The untraced run never
creates a Tracer, so it runs no wrapper at all.

``layer_metrics`` turns the spans of a run into the per-layer metrics listed
in ``PER_LAYER`` (all per op).  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Dense-state buckets (name, smallest N, largest N, N the workloads run).
# Verify and panel 3b run N <= 10, panel 3c N = 15, crx_dense one N = 20 circuit.
BUCKETS = (("n_le10", 1, 10, 10), ("n15", 11, 17, 15), ("n20", 18, 24, 20))

VERIFY_SUITES = (
    "closed_form_n2",
    "closed_form_n3",
    "backend_equivalence",
    "continuous_oracle",
    "trotter_convergence",
)

MODULES = (
    "trotterlab",
    "trotterlab.analytics",
    "trotterlab.cli",
    "trotterlab.dense",
    "trotterlab.errors",
    "trotterlab.figures",
    "trotterlab.model",
    "trotterlab.output",
    "trotterlab.subspace",
    "trotterlab.sweep",
    "trotterlab.verification",
)


def _per_layer() -> list[tuple[str, str, str]]:
    m = [
        ("sweep.run_sweep.self_s", "s", "lower"),
        ("sweep.items", "count", "lower"),
        ("sweep.self_s_per_item", "s", "lower"),
        ("sweep.child_seed.calls", "count", "lower"),
        ("sweep.convergence_study.self_s", "s", "lower"),
        ("sweep.pool_busy_frac", "ratio", "higher"),
        ("subspace.continuous_evolve.calls", "count", "lower"),
        ("subspace.continuous_evolve.self_s", "s", "lower"),
        ("subspace.trotter_step.calls", "count", "lower"),
        ("subspace.trotter_step.self_s", "s", "lower"),
        ("subspace.step_matrix.self_s", "s", "lower"),
        ("subspace.run_discrete.self_s", "s", "lower"),
    ]
    for b, *_ in BUCKETS:
        m += [
            (f"dense.apply_gate.{b}.calls", "count", "lower"),
            (f"dense.apply_gate.{b}.self_s", "s", "lower"),
            (f"dense.occupation_probs.{b}.calls", "count", "lower"),
            (f"dense.occupation_probs.{b}.self_s", "s", "lower"),
            (f"dense.{b}.bytes_computed", "B", "lower"),
            (f"dense.{b}.gbps_computed", "GB/s", "higher"),
        ]
    m += [
        ("dense.run_circuit.self_s", "s", "lower"),
        ("model.build_circuit.calls", "count", "lower"),
        ("model.build_circuit.self_s", "s", "lower"),
        ("model.GateOp.calls", "count", "lower"),
        ("model.realize_z_layer.self_s", "s", "lower"),
    ]
    for f in ("tail_prob", "ipr_ave", "find_peaks"):
        m += [(f"analytics.{f}.calls", "count", "lower"), (f"analytics.{f}.self_s", "s", "lower")]
    m += [(f"import_s.{mod}", "s", "lower") for mod in MODULES]
    m += [
        ("output.write_sweep.self_s", "s", "lower"),
        ("output.bytes_written", "B", "lower"),
        ("output.files_written", "count", "lower"),
        ("cli.load_config.self_s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("figures.figure_recipe.self_s", "s", "lower"),
    ]
    for s in VERIFY_SUITES:
        m += [(f"verification.{s}.self_s", "s", "lower"), (f"verification.{s}.checks", "count", "higher")]
    m.append(("trace_overhead_frac", "ratio", "lower"))
    return m


PER_LAYER = _per_layer()


def bucket_of(n_qubits: int) -> str:
    return next(b for b, lo, hi, _ in BUCKETS if lo <= n_qubits <= hi)


def gate_bytes(kind: str, n_qubits: int) -> int:
    """Bytes one gate reads plus writes, computed from the array size.

    X and RZ touch every complex128 amplitude; XY and CRx touch the two
    quarters of the state they mix.  Cache hits and misses are ignored.
    """
    state = 16 * 2**n_qubits
    return 2 * state if kind in ("x", "rz") else state


def occupation_bytes(n_qubits: int) -> int:
    """Bytes ``occupation_probs`` reads: half the state once per qubit."""
    return n_qubits * 8 * 2**n_qubits


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or ``name(args, kwargs)``.

        ``after(args, kwargs, result, seconds)`` runs on the calling thread
        once the span has closed, to record counts taken from the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = self._stack()
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.spans.append(
                    (frame[0], label, t0, t1, parent, threading.get_ident(), t1 - t0 - frame[1])
                )
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Patch every traced function; return the targets that were absent."""
        from trotterlab import model

        missing = []

        def wrap(module: str, attr: str, make) -> None:
            mod = sys.modules[module]
            original = getattr(mod, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                return
            wrapped = make(original)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("trotterlab") and getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)

        def arg(args, kwargs, i, key):
            return args[i] if len(args) > i else kwargs[key]

        def after_sweep(args, kwargs, result, seconds):
            threads = max(1, int(kwargs.get("threads", args[1] if len(args) > 1 else 1)))
            self.count("sweep.items", len(result.rows))
            self.count("sweep.thread_seconds", threads * seconds)

        def after_suite(suite):
            return lambda a, k, r, s: self.count(f"verification.{suite}.checks", r.passed + r.failed)

        plain = {
            "trotterlab.sweep": ("convergence_study",),
            "trotterlab.subspace": ("continuous_evolve", "trotter_step", "step_matrix", "run_discrete"),
            "trotterlab.dense": ("run_circuit",),
            "trotterlab.model": ("build_circuit", "realize_z_layer"),
            "trotterlab.analytics": ("tail_prob", "ipr_ave", "find_peaks"),
            "trotterlab.output": ("write_sweep",),
            "trotterlab.cli": ("load_config", "main"),
            "trotterlab.figures": ("figure_recipe",),
        }
        for module, attrs in plain.items():
            short = module.rsplit(".", 1)[1]
            for attr in attrs:
                wrap(module, attr, lambda f, n=f"{short}.{attr}": self.span(n, f))
        wrap("trotterlab.sweep", "run_sweep", lambda f: self.span("sweep.run_sweep", f, after_sweep))
        # run_sweep's per-item boundary is a private helper.  It is wrapped for
        # tracing only (the benchmark never calls it), so that per-item
        # overhead and pool occupancy can be measured.
        wrap("trotterlab.sweep", "_evaluate", lambda f: self.span("sweep.item", f))
        wrap("trotterlab.sweep", "child_seed", lambda f: self.counter("sweep.child_seed.calls", f))
        wrap(
            "trotterlab.dense",
            "apply_gate",
            lambda f: self.span(
                lambda a, k: f"dense.apply_gate|{arg(a, k, 1, 'gate').kind.value}|{arg(a, k, 0, 'state').n_qubits}",
                f,
            ),
        )
        wrap(
            "trotterlab.dense",
            "occupation_probs",
            lambda f: self.span(lambda a, k: f"dense.occupation_probs|{arg(a, k, 0, 'state').n_qubits}", f),
        )
        for suite in VERIFY_SUITES:
            wrap(
                "trotterlab.verification",
                f"{suite}_suite",
                lambda f, s=suite: self.span(f"verification.{s}", f, after_suite(s)),
            )
        model.GateOp.__post_init__ = self.counter("model.GateOp.calls", model.GateOp.__post_init__)
        return missing

    def span_array(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, for writing to disk."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        return {
            "names": np.array(names),
            "id": np.array(cols[0], dtype=np.int64),
            "name": np.array([index[n] for n in cols[1]], dtype=np.int32),
            "start": np.array(cols[2]),
            "end": np.array(cols[3]),
            "parent": np.array(cols[4], dtype=np.int64),
            "thread": np.array(cols[5], dtype=np.uint64),
            "self_s": np.array(cols[6]),
        }

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics from the spans and counts (import times excluded)."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for _, label, t0, t1, _, _, own in self.spans:
            calls[label] += 1
            self_s[label] += own
            total_s[label] += t1 - t0

        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for label in calls:
            if "|" in label:
                continue
            if f"{label}.calls" in out:
                out[f"{label}.calls"] = calls[label]
            if f"{label}.self_s" in out:
                out[f"{label}.self_s"] = self_s[label]

        busy = defaultdict(float)
        for label in calls:
            if not label.startswith("dense.") or "|" not in label:
                continue
            parts = label.split("|")
            n = int(parts[-1])
            b = bucket_of(n)
            fn = parts[0].split(".")[1]
            out[f"dense.{fn}.{b}.calls"] += calls[label]
            out[f"dense.{fn}.{b}.self_s"] += self_s[label]
            busy[b] += self_s[label]
            per_call = gate_bytes(parts[1], n) if fn == "apply_gate" else occupation_bytes(n)
            out[f"dense.{b}.bytes_computed"] += per_call * calls[label]
        for b, *_ in BUCKETS:
            if busy[b] > 0:
                out[f"dense.{b}.gbps_computed"] = out[f"dense.{b}.bytes_computed"] / busy[b] / 1e9

        for name in ("sweep.child_seed.calls", "model.GateOp.calls", "sweep.items"):
            out[name] = self.counts[name]
        for suite in VERIFY_SUITES:
            out[f"verification.{suite}.checks"] = self.counts[f"verification.{suite}.checks"]
        if self.counts["sweep.items"]:
            out["sweep.self_s_per_item"] = self_s["sweep.item"] / self.counts["sweep.items"]
        if self.counts["sweep.thread_seconds"]:
            out["sweep.pool_busy_frac"] = total_s["sweep.item"] / self.counts["sweep.thread_seconds"]

        for name in out:
            if name.endswith(("calls", "self_s", "items", "checks", "bytes_computed")):
                out[name] /= n_ops
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of each trotterlab module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in MODULES:
            out[parts[2]] = int(parts[1]) / 1e6
    return out
