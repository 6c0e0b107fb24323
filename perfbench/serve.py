"""Entry point for the ``served`` workload's service processes.

    python3 perfbench/serve.py <summary.json> <trace|time> <repro cli args...>

Installs the span wrappers (every wrapped function with ``trace``, only
the training iteration with ``time``), runs ``repro.cli.main`` with the
remaining arguments, and on exit -- including the SIGTERM the benchmark
stops it with -- writes a JSON summary of the process: peak RSS, the
dlog solver-cache and comb-table counters, the path of its span JSONL
file, and ``probes``: ``[start_s, seconds]`` of the host-speed probe run
just before each training iteration, outside its span.  The probes run
in this process, next to the iterations they scale: probes taken in the
benchmark process, before or after training, do not follow the host's
drift while the services train.
"""

from __future__ import annotations

import faulthandler
import functools
import json
import os
import pathlib
import signal
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import (  # noqa: E402
    SpanRecorder,
    process_counters,
    write_jsonl,
)
from perfbench.speed import Speed  # noqa: E402


def probe_before_iterations() -> list[list[float]]:
    """Run a speed probe before every training iteration, alternating
    over the cores the pool workers share; return the growing log."""
    from repro.core.cryptonn import _SecureTrainerBase

    speed = Speed(cpus=sorted(os.sched_getaffinity(0)))
    log: list[list[float]] = []
    train_batch = _SecureTrainerBase.train_batch

    @functools.wraps(train_batch)
    def probed(*args, **kwargs):
        start = time.perf_counter()
        log.append([start, speed.probe()[0]])
        return train_batch(*args, **kwargs)

    _SecureTrainerBase.train_batch = probed
    return log


def main(argv: list[str]) -> int:
    summary_path, mode, *cli_args = argv
    faulthandler.register(signal.SIGUSR1)
    recorder = SpanRecorder(proc=cli_args[0])
    recorder.install(iterations_only=(mode != "trace"))
    probes = probe_before_iterations()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        spans_path = f"{summary_path}.spans.jsonl"
        write_jsonl(spans_path, recorder.records())
        summary = dict(process_counters(), spans=spans_path,
                       probes=probes)
        pathlib.Path(summary_path).write_text(json.dumps(summary))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
