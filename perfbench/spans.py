"""Span tracing from outside the program: wrap public functions, fold spans.

:class:`SpanRecorder` replaces each function named in :data:`WRAPPED` with
a wrapper that records one span per call -- name, start, end, parent span,
and the id of the iteration or request the call belongs to (the *op*).
Spans stay in memory and are written as JSONL when the run ends, one
record per line with ``name`` and ``dur_s`` so
``benchmarks/harness.summarize_trace`` can fold the file.  Nothing in
``src/`` changes: the wrappers are installed on the classes at run time
and removed afterwards.

:func:`fold` turns the spans of one traced run (from every process of
the run) into the per-layer metrics of :data:`PER_LAYER`: self time,
inclusive time and work counts per layer, each per timed training
iteration (or per client encryption, for the ingest layers) and as a
run total.  Self time is taken within one process: a trainer's
``rpc.key_fetch`` includes the authority's derivation, which
``rpc.key_wire_s`` subtracts, and work done in pool worker processes
shows as ``parallel.dispatch`` self time.  Per-layer times are raw, not
scaled to reference speed.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import threading
import time
from collections import defaultdict

ITERATION = "cryptonn.iteration"
CLIENT_ENCRYPT = "entities.client_encrypt"


def _one(args, kwargs, result) -> int:
    return 1


def _length(args, kwargs, result) -> int:
    return len(result)


def _chunk_bytes(args, kwargs, result) -> int:
    return sum(len(chunk) for chunk in kwargs["chunks"])


def _exchange_bytes(args, kwargs, result) -> int:
    # RpcEndpoint.request logs the request and the response body last
    return sum(record.n_bytes for record in args[0].traffic.records[-2:])


#: (module, attribute path, span name, starts an op, work count).  An op
#: is one training iteration, one prediction or one client shard; every
#: span recorded under it carries its id.
WRAPPED = [
    ("repro.core.cryptonn", "_SecureTrainerBase.train_batch",
     ITERATION, True, _one),
    ("repro.core.cryptonn", "_SecureTrainerBase.predict",
     "cryptonn.predict", True, _one),
    ("repro.core.secure_layers", "SecureLinearInput.forward",
     "secure_layers.secure_forward", False, _one),
    ("repro.core.secure_layers", "SecureLinearInput.backward",
     "secure_layers.secure_backward", False, _one),
    ("repro.core.secure_layers", "SecureSoftmaxCrossEntropy.forward",
     "secure_layers.loss_forward", False, _one),
    ("repro.core.secure_layers", "SecureSoftmaxCrossEntropy.backward",
     "secure_layers.loss_backward", False, _one),
    ("repro.core.entities", "TrustedAuthority.derive_feip_keys",
     "entities.derive_feip", False, _length),
    ("repro.core.entities", "TrustedAuthority.derive_feip_keys_batch",
     "entities.derive_feip", False, _length),
    ("repro.core.entities", "TrustedAuthority.derive_febo_keys",
     "entities.derive_febo", False, _length),
    ("repro.core.entities", "TrustedAuthority.derive_febo_keys_batch",
     "entities.derive_febo", False, _length),
    ("repro.core.entities", "Client.encrypt_tabular",
     CLIENT_ENCRYPT, True, _length),
    ("repro.fe.feip", "Feip.encrypt", "fe.encrypt", False, _one),
    ("repro.fe.febo", "Febo.encrypt", "fe.encrypt", False, _one),
    ("repro.fe.feip", "Feip.decrypt_rows", "fe.feip_decrypt", False, _length),
    ("repro.fe.feip", "Feip.decrypt", "fe.feip_decrypt", False, _one),
    ("repro.fe.feip", "Feip.decrypt_raw", "fe.feip_decrypt", False, _one),
    ("repro.fe.febo", "Febo.decrypt_many", "fe.febo_decrypt", False,
     _length),
    ("repro.fe.febo", "Febo.decrypt", "fe.febo_decrypt", False, _one),
    ("repro.fe.febo", "Febo.decrypt_raw", "fe.febo_decrypt", False, _one),
    ("repro.mathutils.dlog", "DlogSolver.solve_many", "dlog.solve", False,
     _length),
    ("repro.mathutils.dlog", "DlogSolver.solve", "dlog.solve", False, _one),
    ("repro.matrix.parallel", "SecureComputePool.secure_dot",
     "parallel.dispatch", False, _one),
    ("repro.matrix.parallel", "SecureComputePool.secure_elementwise",
     "parallel.dispatch", False, _one),
    ("repro.rpc.messages", "EncryptedDataUpload.body",
     "serialization.pack", False, _one),
    ("repro.rpc.messages", "EncryptedDataUpload.from_wire",
     "serialization.unpack", False, _one),
    ("repro.rpc.client", "RemoteAuthority.derive_feip_keys",
     "rpc.key_fetch", False, _length),
    ("repro.rpc.client", "RemoteAuthority.derive_feip_keys_batch",
     "rpc.key_fetch", False, _length),
    ("repro.rpc.client", "RemoteAuthority.derive_febo_keys",
     "rpc.key_fetch", False, _length),
    ("repro.rpc.client", "RemoteAuthority.derive_febo_keys_batch",
     "rpc.key_fetch", False, _length),
    ("repro.rpc.client", "RpcEndpoint.request", "rpc.request", False,
     _exchange_bytes),
    ("repro.rpc.client_agent", "upload_planned_chunks", "rpc.upload", False,
     _chunk_bytes),
]


class SpanRecorder:
    """Records spans from wrapped calls; one instance per process.

    ``phase`` labels every span recorded while it is set (``setup``,
    ``timed``); :func:`fold` attributes only spans of non-setup
    iterations to the per-iteration figures.  Wrappers called while the
    recorder is disabled run the original function and record nothing.
    """

    def __init__(self, proc: str):
        # span ids restart in every process: the pid keeps them apart
        self.proc = f"{proc}:{os.getpid()}"
        self.phase = "run"
        self.enabled = True
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def install(self, iterations_only: bool = False) -> None:
        """Wrap every function of :data:`WRAPPED` (or just iterations)."""
        for module_name, path, name, root, count in WRAPPED:
            if iterations_only and name != ITERATION:
                continue
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name,
                                                 root, count))
            else:
                wrapped = self._wrap(original, name, root, count)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()

    def _wrap(self, fn, name: str, root: bool, count):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            if not recorder.enabled or (stack and stack[-1][2] == name):
                # a call nested in a span of the same name (solve inside
                # solve_many, decrypt_raw inside decrypt_many) folds
                # into the outer span
                return fn(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            op = span_id if root or parent is None else parent[1]
            stack.append((span_id, op, name))
            n = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                n = count(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent[0] if parent else None, op, name,
                     start, end, n, recorder.phase))

        return wrapper

    def records(self) -> list[dict]:
        return [
            {"name": name, "id": span_id, "parent": parent, "op": op,
             "proc": self.proc, "phase": phase, "start_s": start,
             "end_s": end, "dur_s": end - start, "n": n}
            for span_id, parent, op, name, start, end, n, phase
            in list(self.spans)
        ]

def process_counters() -> dict:
    """Counters of this process that the per-layer report needs."""
    from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE
    from repro.obs.metrics import GLOBAL_REGISTRY

    return {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dlog_cache": GLOBAL_SOLVER_CACHE.stats(),
        "comb_builds":
            GLOBAL_REGISTRY.counter("repro_fastexp_comb_tables_total").value,
    }


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def iteration_times(records: list[dict]) -> list[tuple[float, float]]:
    """``(start_s, dur_s)`` of the non-setup training iterations, in
    start order."""
    return sorted((r["start_s"], r["dur_s"]) for r in records
                  if r["name"] == ITERATION and r["phase"] != "setup")


#: Per-layer metrics: (name, unit, span names, kind, scope).  ``kind`` is
#: ``incl`` (inclusive seconds), ``self`` (seconds not covered by child
#: spans), ``count`` (work items: keys, decrypts, dlogs, bytes) or
#: ``calls`` (number of spans).  ``scope`` divides the per-op figure by
#: timed training iterations (``iter``) or by client encryptions, one
#: ``Client.encrypt_tabular`` call each (``shard``).
PER_LAYER = [
    ("cryptonn.iteration_s", "s", (ITERATION,), "incl", "iter"),
    ("cryptonn.residual_s", "s", (ITERATION,), "self", "iter"),
    ("secure_layers.secure_forward_s", "s",
     ("secure_layers.secure_forward",), "incl", "iter"),
    ("secure_layers.secure_backward_s", "s",
     ("secure_layers.secure_backward",), "incl", "iter"),
    ("secure_layers.loss_forward_s", "s",
     ("secure_layers.loss_forward",), "incl", "iter"),
    ("secure_layers.loss_backward_s", "s",
     ("secure_layers.loss_backward",), "incl", "iter"),
    ("entities.feip_keys", "count", ("entities.derive_feip",), "count",
     "iter"),
    ("entities.febo_keys", "count", ("entities.derive_febo",), "count",
     "iter"),
    ("entities.derive_s", "s", ("entities.derive_feip",
                                "entities.derive_febo"), "incl", "iter"),
    ("fe.feip_decrypt_s", "s", ("fe.feip_decrypt",), "incl", "iter"),
    ("fe.feip_decrypts", "count", ("fe.feip_decrypt",), "count", "iter"),
    ("fe.febo_decrypt_s", "s", ("fe.febo_decrypt",), "incl", "iter"),
    ("fe.febo_decrypts", "count", ("fe.febo_decrypt",), "count", "iter"),
    ("dlog.solve_s", "s", ("dlog.solve",), "self", "iter"),
    ("dlog.solves", "count", ("dlog.solve",), "count", "iter"),
    ("rpc.key_fetch_s", "s", ("rpc.key_fetch",), "incl", "iter"),
    ("rpc.requests", "count", ("rpc.request",), "calls", "iter"),
    ("rpc.bytes", "bytes", ("rpc.request",), "count", "iter"),
    ("parallel.dispatch_s", "s", ("parallel.dispatch",), "incl", "iter"),
    ("parallel.dispatches", "count", ("parallel.dispatch",), "calls",
     "iter"),
    ("fe.encrypt_s", "s", ("fe.encrypt",), "incl", "shard"),
    ("fe.encrypts", "count", ("fe.encrypt",), "count", "shard"),
    ("serialization.pack_s", "s", ("serialization.pack",), "incl", "shard"),
    ("serialization.unpack_s", "s", ("serialization.unpack",), "incl",
     "shard"),
    ("rpc.upload_s", "s", ("rpc.upload",), "incl", "shard"),
    ("rpc.upload_bytes", "bytes", ("rpc.upload",), "count", "shard"),
]

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("cryptonn", "secure_layers", "entities", "fe", "dlog", "rpc",
          "parallel", "serialization")

#: Run-level per-layer figures computed outside :func:`fold`.
RUN_METRICS = [
    ("rpc.retries", "count"),
    ("parallel.degraded", "count"),
    ("dlog.cache_hit_ratio", "ratio"),
    ("fastexp.comb_builds", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_iter_p50_s", "s"),
    ("trace.overhead_train_ratio", "ratio"),
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name, unit, *_ in PER_LAYER:
        names += [(name, unit), (f"{name}.total", unit)]
    names += [("rpc.key_wire_s", "s"), ("rpc.key_wire_s.total", "s")]
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.self_s.total", "s")]
    return names + RUN_METRICS


def fold(records: list[dict]) -> dict[str, float]:
    """Fold the spans of one traced run into the :data:`PER_LAYER` figures.

    A span counts toward the per-iteration figures when it starts inside
    a timed iteration.  That holds across processes too (``perf_counter``
    is the system-wide monotonic clock), so the authority's key
    derivations land in the trainer iterations that requested them.
    """
    windows = sorted((r["start_s"], r["end_s"]) for r in records
                     if r["name"] == ITERATION and r["phase"] != "setup")
    starts = [start for start, _ in windows]
    children = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            children[(r["proc"], r["parent"])] += r["dur_s"]
    # sums[scope][span name] = [inclusive, self, count, calls]
    sums = {"iter": defaultdict(lambda: [0.0, 0.0, 0, 0]),
            "total": defaultdict(lambda: [0.0, 0.0, 0, 0])}
    for r in records:
        self_s = r["dur_s"] - children[(r["proc"], r["id"])]
        i = bisect.bisect_right(starts, r["start_s"]) - 1
        scopes = ["total"]
        if i >= 0 and r["start_s"] <= windows[i][1]:
            scopes.append("iter")
        for scope in scopes:
            slot = sums[scope][r["name"]]
            slot[0] += r["dur_s"]
            slot[1] += self_s
            slot[2] += r["n"]
            slot[3] += 1
    column = {"incl": 0, "self": 1, "count": 2, "calls": 3}
    shards = sum(r["name"] == CLIENT_ENCRYPT for r in records)
    per = {"iter": max(1, len(windows)), "shard": max(1, shards)}

    def total(scope: str, span_names, kind: str) -> float:
        return sum(sums[scope][n][column[kind]] for n in span_names)

    out: dict[str, float] = {}
    for name, _, span_names, kind, scope in PER_LAYER:
        source = "iter" if scope == "iter" else "total"
        out[name] = total(source, span_names, kind) / per[scope]
        out[f"{name}.total"] = total("total", span_names, kind)
    # key fetch minus the authority's own derive time: wire + framing
    for suffix in ("", ".total"):
        fetch = out[f"rpc.key_fetch_s{suffix}"]
        out[f"rpc.key_wire_s{suffix}"] = (
            fetch - out[f"entities.derive_s{suffix}"] if fetch else 0.0)
    for layer in LAYERS:
        for scope, suffix in (("iter", ""), ("total", ".total")):
            value = sum(slot[1] for n, slot in sums[scope].items()
                        if n.split(".")[0] == layer)
            out[f"{layer}.self_s{suffix}"] = (
                value / per["iter"] if scope == "iter" else value)
    out["trace.spans"] = len(records)
    return out
