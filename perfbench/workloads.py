"""The benchmark's three workloads and the checks on their outputs.

Common shape: the Dense-ReLU-Dense MLP of
``repro.rpc.training_service.build_mlp`` with 8 features and 2 classes,
batch 10, SGD at learning rate 0.5, over clinic data from
``repro.data.tabular.load_clinics`` generated from the workload seed.
Training and prediction are closed loops: one caller, the next request
after the previous reply.

* ``cold-epoch`` -- in-process, serial, hidden 8.  One timed epoch over
  samples the trainer has never seen, so every batch pays FEBO feature
  reconstruction (identity keys plus FEBO decrypts per feature).
* ``warm-wide`` -- in-process, serial, hidden 32.  Set-up trains one
  untimed epoch, filling the reconstruction cache; the timed epochs are
  dominated by FEIP row decryption.
* ``served`` -- ``repro serve-authority`` and ``repro serve-train`` as OS
  processes on loopback; this process plays the clients one at a time
  (encrypt, chunked upload), then waits for training and sends
  ``predict-request``s.  A run is ``Size.rounds`` such rounds, each
  with fresh services and ``seconds / rounds`` long, so every metric
  samples the whole run (host speed drifts on the scale of seconds).

Predictions are closed-loop requests of :data:`PREDICT_SAMPLES` samples.
In-process, each one is a fresh query the client encrypts first (timed
apart, as ingest), and they fill the gaps of an even training schedule
across the timed window; in ``served`` they follow training until the
round's time is up.  Every run checks its outputs: each prediction
against the plaintext forward pass of the same weights over the
harness's own fixed-point features, and the final weights byte for byte
against an in-process run of the same seed and schedule on the toy group
(decryption recovers exact integers, so the group size cannot change the
trajectory).  Every duration is kept raw and scaled to reference host
speed by probes taken next to it (:mod:`perfbench.speed`).
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import json
import os
import pathlib
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.core import protocol
from repro.core.checkpoint import load_model_weights
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.encdata import shuffled_order
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.mathutils.group import TOY_SECURITY_BITS
from repro.nn.activations import softmax
from repro.nn.optimizers import SGD
from repro.rpc import client_agent
from repro.rpc.client import RemoteAuthority, RpcEndpoint
from repro.rpc.messages import (
    PredictRequest,
    TrainStatusRequest,
)
from repro.rpc.training_service import build_mlp

from perfbench import spans
from perfbench.speed import WINDOW, Speed, Timed, cpu_jiffies, steal_share

FEATURES = 8
CLASSES = 2
BATCH = 10
LEARNING_RATE = 0.5
PREDICT_SAMPLES = 10
CHUNK_BYTES = 64 * 1024
REFERENCE_BITS = TOY_SECURITY_BITS
STOP_GRACE_S = 20.0
POLL_S = 0.05
#: Server probes that scale a served iteration: the last three, one per
#: iteration, follow the host's drift more closely than a longer window.
SERVER_WINDOW = 3
ROOT = pathlib.Path(__file__).resolve().parent.parent


@dataclasses.dataclass(frozen=True)
class Workload:
    hidden: int
    samples: int
    clients: int = 1
    epochs: int = 1
    warm_epochs: int = 0
    served: bool = False


WORKLOADS = {
    "cold-epoch": Workload(hidden=8, samples=1200),
    "warm-wide": Workload(hidden=32, samples=300, epochs=6, warm_epochs=1),
    # per round; a served run is ``Size.rounds`` rounds
    # one epoch: every iteration is cold.  With a second epoch, half the
    # iterations would be warm (about half as long), and the median would
    # sit on the gap between the two modes.
    "served": Workload(hidden=8, samples=300, clients=2, served=True),
}


@dataclasses.dataclass(frozen=True)
class Size:
    """Group and run size: the paper's 256 bits, or a fast smoke size."""

    bits: int
    sample_divisor: int
    setup_repeats: int  # in-process; served sets up once per round
    rounds: int
    min_predicts: int


FULL = Size(bits=256, sample_divisor=1, setup_repeats=3, rounds=5,
            min_predicts=100)
SMOKE = Size(bits=64, sample_divisor=10, setup_repeats=2, rounds=2,
             min_predicts=4)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclasses.dataclass
class Outcome:
    """One pass of a workload: end-to-end metrics plus what fed them."""

    metrics: dict[str, float]  # scaled to reference speed
    raw: dict[str, float]
    reference_s: float  # median time of the speed probes
    attempted: int
    failed: int
    failed_checks: list[str]
    records: list[dict]
    counters: dict
    faults: dict
    #: served: unstolen share of each round's training and predictions
    steal_shares: list[float] = dataclasses.field(default_factory=list)


def make_shards(seed: int, samples: int, clients: int):
    """Per-client (features, labels), normalized with one shared scale."""
    shards = load_clinics(n_clinics=clients,
                          samples_per_clinic=samples // clients,
                          n_features=FEATURES, seed=seed)
    scale = shared_feature_scale([s.x for s in shards])
    return [(normalize_features(s.x, scale), s.y) for s in shards]


def train_epochs(state: "InProcess", epochs: int, before_batch=None,
                 speed: Speed | None = None) -> Timed:
    """``fit``'s batch schedule, timing each iteration.

    ``before_batch(i)`` runs ahead of the i-th iteration, and ``speed``
    probes the host just before it, both outside its timing.
    """
    durations = Timed()
    for _ in range(epochs):
        order = shuffled_order(len(state.dataset), state.rng)
        for start in range(0, len(order), BATCH):
            if before_batch is not None:
                before_batch(len(durations.raw))
            if speed is not None:
                speed.probe()
            begin = time.perf_counter()
            state.trainer.train_batch(state.dataset,
                                      order[start:start + BATCH],
                                      state.optimizer)
            durations.add(time.perf_counter() - begin,
                          speed.scale() if speed is not None else 1.0)
    return durations


@dataclasses.dataclass
class InProcess:
    client: Client
    trainer: CryptoNNTrainer
    dataset: object
    optimizer: SGD
    rng: np.random.Generator


def setup_in_process(workload: Workload, bits: int, seed: int,
                     x: np.ndarray, y: np.ndarray) -> InProcess:
    """Keygen, client encryption, trainer, and any warm-up epochs."""
    authority = TrustedAuthority(CryptoNNConfig(security_bits=bits),
                                 rng=random.Random(seed))
    client = Client(authority)
    dataset = client.encrypt_tabular(x, y, CLASSES)
    trainer = CryptoNNTrainer(
        build_mlp(FEATURES, workload.hidden, CLASSES, seed), authority)
    state = InProcess(client, trainer, dataset, SGD(LEARNING_RATE),
                      np.random.default_rng(seed))
    train_epochs(state, workload.warm_epochs)
    return state


def weights_of(model) -> dict[str, np.ndarray]:
    return {f"layer{i}.{name}": value
            for i, layer in enumerate(model.layers)
            for name, value in layer.params.items()}


def reference_weights(workload: Workload, seed: int, x, y) -> dict:
    """Same seed and schedule, in-process on the toy group."""
    state = setup_in_process(workload, REFERENCE_BITS, seed, x, y)
    train_epochs(state, workload.epochs)
    return weights_of(state.trainer.model)


def same_bytes(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def plaintext_scores(model, rows: np.ndarray) -> np.ndarray:
    """The secure forward pass computed in the clear: fixed-point first
    layer (clipped, encoded weights times encoded features), then the
    model's own plaintext tail and softmax."""
    config = CryptoNNConfig()
    dense = model.layers[0]
    w = np.clip(dense.params["W"], -config.max_abs_weight,
                config.max_abs_weight)
    xq = np.rint(rows * config.scale).astype(np.int64)
    wq = np.rint(w * config.scale).astype(np.int64)
    out = (xq @ wq) / float(config.scale ** 2) + dense.params["b"]
    for layer in model.layers[1:]:
        out = layer.forward(out, training=False)
    return softmax(out, axis=1)


class Predictor:
    """Closed-loop secure predictions of :data:`PREDICT_SAMPLES` samples,
    each checked against :func:`plaintext_scores` of the model's current
    weights.

    ``predict`` takes the sample indices, or, when ``encrypt`` is given,
    what ``encrypt(indices)`` returns: the client's query encrypted
    just before the request, timed on its own as ingest.  ``speed``
    probes the host before each request.
    """

    def __init__(self, predict, model, x: np.ndarray, rng, speed: Speed,
                 encrypt=None):
        self.predict = predict
        self.encrypt = encrypt
        self.model = model
        self.x = x
        self.rng = rng
        self.speed = speed
        self.latencies = Timed()
        self.encrypts = Timed()
        self.attempted = 0
        self.failed = 0

    def step(self) -> None:
        indices = np.sort(self.rng.choice(len(self.x), PREDICT_SAMPLES,
                                          replace=False))
        self.attempted += 1
        self.speed.probe()
        scale = self.speed.scale()
        try:
            request = indices
            if self.encrypt is not None:
                begin = time.perf_counter()
                request = self.encrypt(indices)
                self.encrypts.add(time.perf_counter() - begin, scale)
            begin = time.perf_counter()
            scores = self.predict(request)
        except Exception as exc:  # counted, and the loop goes on
            print(f"predict failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed += 1
            return
        self.latencies.add(time.perf_counter() - begin, scale)
        expected = plaintext_scores(self.model, self.x[indices])
        if not np.allclose(np.asarray(scores), expected, rtol=0, atol=1e-9):
            self.failed += 1

    def until(self, deadline: float, min_count: int = 0) -> None:
        while self.attempted < min_count or time.perf_counter() < deadline:
            self.step()


def predict_note(failures: int) -> list[str]:
    return [f"{failures} predictions failed or mismatched"] if failures \
        else []


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(prefix: str, values: list[float]) -> dict[str, float]:
    return {f"{prefix}_p50_s": statistics.median(values),
            f"{prefix}_p90_s": quantile(values, 90)}


def end_to_end(trained: int, train: Timed, iterations: Timed,
               predicts: Timed, ingested: int, ingest: Timed, setups: Timed,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled to reference speed and raw."""
    def metrics(pick) -> dict[str, float]:
        return {
            "train_samples_per_s": trained / sum(pick(train)),
            **latency_metrics("iter", pick(iterations)),
            **latency_metrics("predict", pick(predicts)),
            "ingest_samples_per_s": ingested / sum(pick(ingest)),
            "setup_s": statistics.median(pick(setups)),
            "peak_rss_mb": peak_rss_mb,
        }
    return (metrics(lambda t: t.scaled), metrics(lambda t: t.raw))


def probed(speed: Speed, setups: Timed, build):
    """Return ``build()``, its time added to ``setups``, scaled by speed
    probes on both sides of it."""
    before = speed.probe(WINDOW)
    begin = time.perf_counter()
    result = build()
    raw = time.perf_counter() - begin
    setups.add(raw, speed.scale(before + speed.probe(WINDOW)))
    return result


def run_in_process(name: str, size: Size, seed: int, seconds: float,
                   recorder: spans.SpanRecorder | None) -> Outcome:
    workload = WORKLOADS[name]
    shards = make_shards(seed, workload.samples // size.sample_divisor,
                         workload.clients)
    x = np.vstack([s[0] for s in shards])
    y = np.concatenate([s[1] for s in shards])
    speed = Speed()
    setups = Timed()

    def setup() -> InProcess:
        return probed(speed, setups, lambda: setup_in_process(
            workload, size.bits, seed, x, y))

    if recorder is not None:
        recorder.reset()
        recorder.phase = "setup"
    before = spans.process_counters()
    state = setup()
    if recorder is not None:
        recorder.phase = "timed"
    model = state.trainer.model
    predictor = Predictor(
        state.trainer.predict, model, x, np.random.default_rng(seed + 1),
        speed, encrypt=lambda idx: state.client.encrypt_tabular(
            x[idx], y[idx], CLASSES))
    # queries fill the gaps of an even training schedule, so every
    # metric samples the whole timed window
    begin = time.perf_counter()
    slot = seconds / (workload.epochs * -(-len(x) // BATCH))
    iterations = train_epochs(
        state, workload.epochs,
        before_batch=lambda i: predictor.until(begin + i * slot),
        speed=speed)
    predictor.until(begin + seconds, size.min_predicts)
    after = spans.process_counters()
    if recorder is not None:
        recorder.enabled = False
    # the other set-up repeats come last, apart in time from the first
    for _ in range(size.setup_repeats - 1):
        setup()
    failed_checks = []
    if not same_bytes(weights_of(model),
                      reference_weights(workload, seed, x, y)):
        failed_checks.append("final weights differ from the reference run")
    metrics, raw = end_to_end(
        len(x) * workload.epochs, iterations, iterations,
        predictor.latencies, PREDICT_SAMPLES * len(predictor.encrypts.raw),
        predictor.encrypts, setups, after["peak_rss_mb"])
    attempted = len(iterations.raw) + predictor.attempted + 1  # + weights
    return Outcome(metrics, raw, statistics.median(speed.probes), attempted,
                   predictor.failed + len(failed_checks),
                   failed_checks + predict_note(predictor.failed),
                   recorder.records() if recorder is not None else [],
                   counter_delta(before, after), faults={})


def counter_delta(before: dict, after: dict) -> dict:
    hits = after["dlog_cache"]["hits"] - before["dlog_cache"]["hits"]
    builds = after["dlog_cache"]["builds"] - before["dlog_cache"]["builds"]
    return {"dlog.cache_hit_ratio": hits / max(1, hits + builds),
            "fastexp.comb_builds": after["comb_builds"]
            - before["comb_builds"]}


# -- served ------------------------------------------------------------------

class Service:
    """One ``repro`` CLI service process started through ``serve.py``."""

    def __init__(self, outdir: pathlib.Path, tag: str, trace: bool,
                 cli_args: list[str]):
        self.summary_path = outdir / f"{tag}.summary.json"
        self._stderr = open(outdir / f"{tag}.stderr.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(ROOT / "perfbench" / "serve.py"),
             str(self.summary_path), "trace" if trace else "time",
             *cli_args],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            start_new_session=True)
        self.lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)

    def port(self, timeout: float = 60.0) -> int:
        """Wait for the service's ``listening on host:port`` line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.05)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            match = re.search(r"listening on [\w.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"service {self.summary_path.name} did not start "
                           f"(exit code {self.proc.poll()})")

    def stop(self) -> dict | None:
        """SIGTERM, wait, and return the process summary (if written).

        SIGTERM is re-sent while the service runs: ``repro.cli`` exits
        by raising ``SystemExit`` from its signal handler, which is lost
        when the signal lands inside a finalizer (``StreamWriter.__del__``
        swallows it).  A service still running after the grace period
        gets SIGUSR1 (its thread stacks go to its stderr log), then its
        whole process group -- pool workers included -- is killed.
        """
        deadline = time.monotonic() + STOP_GRACE_S
        while self.proc.poll() is None and time.monotonic() < deadline:
            self.proc.send_signal(signal.SIGTERM)
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.proc.wait(timeout=2.0)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGUSR1)
            time.sleep(0.5)
            self.proc.kill()
            self.proc.wait()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._stderr.close()
        if not self.summary_path.exists():
            return None
        return json.loads(self.summary_path.read_text())


class Services:
    """The authority and the training server of one served run."""

    def __init__(self, outdir, tag, trace, bits, seed, workload):
        self.authority = Service(outdir, f"{tag}-authority", trace, [
            "serve-authority", "--bits", str(bits), "--seed", str(seed)])
        self.server = None
        try:
            self.authority_port = self.authority.port()
            self.model_out = outdir / f"{tag}-model.npz"
            self.server = Service(outdir, f"{tag}-server", trace, [
                "serve-train", "--authority-port", str(self.authority_port),
                "--expected-clients", str(workload.clients),
                "--hidden", str(workload.hidden),
                "--epochs", str(workload.epochs),
                "--batch-size", str(BATCH),
                "--learning-rate", str(LEARNING_RATE),
                "--seed", str(seed), "--workers", str(cpu_count()),
                "--stay", "--model-out", str(self.model_out)])
            self.server_port = self.server.port()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> tuple[dict | None, dict | None]:
        try:
            server = self.server.stop() if self.server is not None else None
        finally:
            authority = self.authority.stop()
        return server, authority


def upload_client(authority_port: int, server_port: int, x, y, name: str,
                  seed: int) -> tuple[dict, list[dict]]:
    """One client: encrypt locally, then upload in resumable chunks.

    The authority connection closes before the server connection opens,
    so the client holds at most one connection at a time.
    """
    authority = RemoteAuthority("127.0.0.1", authority_port, name=name,
                                rng=random.Random(seed))
    try:
        dataset = Client(authority, name=name).encrypt_tabular(x, y, CLASSES)
    finally:
        authority.close()
    meta, fingerprint, chunks = client_agent.plan_shard_chunks(
        dataset, name, authority.wire_ctx, CHUNK_BYTES)
    with RpcEndpoint("127.0.0.1", server_port, name=name,
                     peer=protocol.SERVER, timeout=120.0) as server:
        result = client_agent.upload_planned_chunks(
            server, name=name, meta=meta, fingerprint=fingerprint,
            chunks=chunks)
    return result["ack"], [authority.endpoint.stats.snapshot(),
                           server.stats.snapshot()]


@dataclasses.dataclass
class Round:
    """One served round: fresh services, uploads, training, predictions."""

    setup: Timed
    ingest: Timed
    train: Timed
    iterations: Timed
    predictor: Predictor
    failed_checks: list[str]
    retries: int
    degraded: int
    server: dict
    authority: dict
    steal_shares: list[float]  # training, predictions


def served_round(outdir: pathlib.Path, index: int, size: Size, seed: int,
                 seconds: float, trace: bool, shards, speed: Speed) -> Round:
    """Start the services, upload every shard, wait for training, then
    predict until ``seconds`` have passed since the first upload.

    Each upload is scaled by speed probes taken in this process on both
    sides of it, and each prediction by those taken just before it.
    Training is scaled by the probes the server runs before each
    iteration (``perfbench/serve.py``), and each iteration by the last
    :data:`SERVER_WINDOW` of them; the training time leaves the probes'
    own time out.  Training, iterations and predictions are scaled
    further by the :func:`~perfbench.speed.steal_share` of their phase.
    """
    workload = WORKLOADS["served"]
    tag = f"round{index}"
    x = np.vstack([s[0] for s in shards])
    setup = Timed()
    services = probed(speed, setup, lambda: Services(
        outdir, tag, trace, size.bits, seed, workload))
    endpoint_stats = []
    failed_checks = []
    ingest = Timed()
    try:
        begin = time.perf_counter()
        for k, (xs, ys) in enumerate(shards):
            ack, stats = probed(speed, ingest, lambda: upload_client(
                services.authority_port, services.server_port, xs, ys,
                f"client-{k}", seed + k))
            endpoint_stats += stats
            if not ack.get("complete"):
                failed_checks.append(f"{tag}: client-{k} upload not "
                                     f"acknowledged")
        last_ack = time.perf_counter()
        at_last_ack = cpu_jiffies()
        with RpcEndpoint("127.0.0.1", services.server_port, name="bench",
                         peer=protocol.SERVER, timeout=120.0) as server:
            status = server.request(TrainStatusRequest(requester="bench"))
            while status.state == "training" or status.state == "waiting":
                if time.perf_counter() - last_ack > 150:
                    raise RuntimeError("served training did not finish")
                time.sleep(POLL_S)
                status = server.request(TrainStatusRequest(requester="bench"))
            done = time.perf_counter()
            train_share = steal_share(at_last_ack, cpu_jiffies())
            if status.state != "done":
                raise RuntimeError(
                    f"served training {status.state}: "
                    f"{status.detail.get('error')}")
            model = build_mlp(FEATURES, workload.hidden, CLASSES, seed)
            load_model_weights(model, services.model_out)
            predictor = Predictor(
                lambda idx: server.request(PredictRequest(
                    indices=[int(i) for i in idx],
                    requester="bench")).scores,
                model, x, np.random.default_rng([seed, index]), speed)
            predicting = cpu_jiffies()
            predictor.until(begin + seconds,
                            -(-size.min_predicts // size.rounds))
            predict_share = steal_share(predicting, cpu_jiffies())
            predictor.latencies.rescale(predict_share)
            faults = server.request(
                TrainStatusRequest(requester="bench")).detail["faults"]
        endpoint_stats.append(server.stats.snapshot())
    finally:
        server_summary, authority_summary = services.stop()
    if server_summary is None or authority_summary is None:
        raise RuntimeError(f"a served process did not exit cleanly; see the "
                           f"stderr logs in {outdir}")
    retries = sum(s["retries"] + s["giveups"] for s in endpoint_stats)
    authority_link = faults.get("authority_endpoint", {})
    retries += authority_link.get("retries", 0) + \
        authority_link.get("giveups", 0)
    pool = faults.get("pool", {})
    probe_starts = [start for start, _ in server_summary["probes"]]
    probe_times = [seconds for _, seconds in server_summary["probes"]]
    train, iterations = Timed(), Timed()
    train.add(done - last_ack - sum(probe_times),
              speed.scale(probe_times) * train_share)
    for start, duration in spans.iteration_times(
            spans.read_jsonl(server_summary["spans"])):
        last = bisect.bisect(probe_starts, start)
        iterations.add(duration, speed.scale(
            probe_times[max(0, last - SERVER_WINDOW):last]) * train_share)
    return Round(
        setup, ingest, train, iterations, predictor, failed_checks, retries,
        pool.get("worker_restarts", 0) + pool.get("degraded_dispatches", 0),
        server_summary, authority_summary, [train_share, predict_share])


def run_served(size: Size, seed: int, seconds: float,
               recorder: spans.SpanRecorder | None,
               outdir: pathlib.Path) -> Outcome:
    """``size.rounds`` rounds of ``seconds / rounds`` each, so
    every metric samples the whole run rather than one stretch of it."""
    workload = WORKLOADS["served"]
    shards = make_shards(seed, workload.samples // size.sample_divisor,
                         workload.clients)
    x = np.vstack([s[0] for s in shards])
    y = np.concatenate([s[1] for s in shards])
    if recorder is not None:
        recorder.reset()
        recorder.phase = "timed"
    # the services run on every core: probe each of them in turn
    speed = Speed(cpus=sorted(os.sched_getaffinity(0)))
    try:
        rounds = [served_round(outdir, r, size, seed,
                               seconds / size.rounds,
                               recorder is not None, shards, speed)
                  for r in range(size.rounds)]
    finally:
        if recorder is not None:
            recorder.enabled = False
    reference = reference_weights(workload, seed, x, y)
    checks = [note for one in rounds for note in one.failed_checks]
    for r, one in enumerate(rounds):
        if not same_bytes(weights_of(one.predictor.model), reference):
            checks.append(f"round{r}: served weights differ from the "
                          f"in-process reference run")
    predict_failures = sum(one.predictor.failed for one in rounds)
    records = []
    if recorder is not None:
        records = recorder.records()
        for one in rounds:
            for summary in (one.server, one.authority):
                records += spans.read_jsonl(summary["spans"])
    timings = {key: Timed() for key in
               ("setup", "ingest", "train", "iterations", "predicts")}
    for one in rounds:
        for key in ("setup", "ingest", "train", "iterations"):
            timings[key].extend(getattr(one, key))
        timings["predicts"].extend(one.predictor.latencies)
    retries = sum(one.retries for one in rounds)
    degraded = sum(one.degraded for one in rounds)
    samples = len(rounds) * len(x)
    metrics, raw = end_to_end(
        samples * workload.epochs, timings["train"], timings["iterations"],
        timings["predicts"], samples, timings["ingest"], timings["setup"],
        statistics.median(one.server["peak_rss_mb"] for one in rounds))
    # per round: iterations, predictions, shard uploads, weights check
    attempted = len(timings["iterations"].raw) + sum(
        one.predictor.attempted + len(shards) + 1 for one in rounds)
    failed = predict_failures + len(checks) + retries + degraded
    totals = {"dlog_cache": {key: sum(one.server["dlog_cache"][key]
                                      for one in rounds)
                             for key in ("hits", "builds")},
              "comb_builds": sum(one.server["comb_builds"] for one in rounds)}
    counters = counter_delta({"dlog_cache": {"hits": 0, "builds": 0},
                              "comb_builds": 0}, totals)
    return Outcome(metrics, raw, statistics.median(speed.probes), attempted,
                   failed, checks + predict_note(predict_failures), records,
                   counters,
                   faults={"rpc.retries": retries,
                           "parallel.degraded": degraded},
                   steal_shares=[share for one in rounds
                                 for share in one.steal_shares])


def run(name: str, size: Size, seed: int, seconds: float,
        recorder: spans.SpanRecorder | None,
        outdir: pathlib.Path) -> Outcome:
    if WORKLOADS[name].served:
        return run_served(size, seed, seconds, recorder, outdir)
    return run_in_process(name, size, seed, seconds, recorder)
