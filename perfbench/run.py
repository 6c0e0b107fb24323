"""End-to-end CryptoNN benchmark at the paper's 256-bit group.

    python3 perfbench/run.py --workload {cold-epoch,warm-wide,served} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice, untraced and then with
span wrappers on every layer's public functions, and prints the
per-layer metrics (``perfbench/spans.py``) with the tracing overhead
(traced minus untraced).  ``--smoke`` shrinks the run to a 64-bit group
and a few batches, for the self-test.

Timed end-to-end metrics are scaled to a reference host speed
(``perfbench/speed.py``): the host's own drift would otherwise swamp the
bounds.  The raw figures are printed too, as ``raw.<name>``, with the
median time of the speed probes.

Output: a ``config`` line (workload, shapes, group, host, Python, seed),
one ``name value unit`` line per metric, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``error_rate``
(failed / attempted) is printed with the metrics; in the JSON it is the
``failed`` and ``attempted`` fields, because on a correct run it is 0.
The exit code is 1 when any output check failed.  Spans, service logs
and a JSON record of the run land in ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: end-to-end metrics, with units, in report order
END_TO_END = [
    ("train_samples_per_s", "samples/s"),
    ("iter_p50_s", "s"),
    ("iter_p90_s", "s"),
    ("predict_p50_s", "s"),
    ("predict_p90_s", "s"),
    ("ingest_samples_per_s", "samples/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-epoch", "warm-wide", "served"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="64-bit group, a few batches (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]
    from harness import summarize_trace
    from perfbench import spans, speed, workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    outdir.mkdir(parents=True, exist_ok=True)
    config = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "group_bits": size.bits, "features": workloads.FEATURES,
        "hidden": workload.hidden, "classes": workloads.CLASSES,
        "samples": workload.samples // size.sample_divisor,
        "clients": workload.clients, "batch": workloads.BATCH,
        "learning_rate": workloads.LEARNING_RATE,
        "timed_epochs": workload.epochs,
        "warm_epochs": workload.warm_epochs,
        "predict_samples": workloads.PREDICT_SAMPLES,
        "setup_repeats":
            size.rounds if workload.served else size.setup_repeats,
        "served_rounds": size.rounds if workload.served else 0,
        "reference_s": speed.REFERENCE_S,
        "workers": workloads.cpu_count() if workload.served else 0,
        "nproc": workloads.cpu_count(),
        "python": platform.python_version(),
        "host": platform.platform(),
    }
    print("config " + json.dumps(config), flush=True)

    outcome = workloads.run(args.workload, size, args.seed, args.seconds,
                            None, outdir)
    passes = [outcome]
    print(f"speed probe median {outcome.reference_s:.6g} s against "
          f"{speed.REFERENCE_S:g} s at reference speed", flush=True)
    if outcome.steal_shares:
        print(f"unstolen share of core time in served training and "
              f"predictions: {min(outcome.steal_shares):.4g} to "
              f"{max(outcome.steal_shares):.4g}", flush=True)
    for name, unit in END_TO_END:
        print(f"{'raw.' + name:36s} {outcome.raw[name]:14.6g} {unit}")
    report = {name: (outcome.metrics[name], unit)
              for name, unit in END_TO_END}
    report["error_rate"] = (outcome.failed / outcome.attempted, "ratio")
    if args.trace:
        untraced = outcome
        recorder = spans.SpanRecorder(proc="bench")
        recorder.install()
        try:
            outcome = workloads.run(args.workload, size, args.seed,
                                    args.seconds, recorder, outdir)
        finally:
            recorder.uninstall()
        passes.append(outcome)
        trace_path = outdir / "trace.jsonl"
        spans.write_jsonl(trace_path, outcome.records)
        folded = summarize_trace(trace_path)
        print(f"trace {trace_path}: {sum(s['count'] for s in folded.values())}"
              f" spans over {len(folded)} names", flush=True)
        layer = spans.fold(outcome.records)
        layer.update(outcome.counters)
        layer["rpc.retries"] = outcome.faults.get("rpc.retries", 0)
        layer["parallel.degraded"] = outcome.faults.get(
            "parallel.degraded", 0)
        layer["trace.overhead_iter_p50_s"] = (
            outcome.metrics["iter_p50_s"] - untraced.metrics["iter_p50_s"])
        layer["trace.overhead_train_ratio"] = (
            untraced.metrics["train_samples_per_s"]
            / outcome.metrics["train_samples_per_s"] - 1.0)
        report = {name: (layer[name], unit)
                  for name, unit in spans.per_layer_names()}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checks = [note for p in passes for note in p.failed_checks]
    for note in checks:
        print(f"CHECK FAILED: {note}", file=sys.stderr)
    for name, (value, unit) in report.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    (outdir / "result.json").write_text(json.dumps({
        "config": config, "metrics": {n: v for n, (v, _) in report.items()},
        "end_to_end": [p.metrics for p in passes],
        "raw": [p.raw for p in passes],
        "reference_s": [p.reference_s for p in passes],
        "steal_shares": [p.steal_shares for p in passes],
        "attempted": attempted, "failed": failed, "failed_checks": checks,
    }, indent=2))
    result = {
        "correct": not checks, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()
                    if name != "error_rate"},
    }
    print(json.dumps(result), flush=True)
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
