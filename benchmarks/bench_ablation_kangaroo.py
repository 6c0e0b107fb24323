"""Ablation: BSGS (table-based) vs Pollard kangaroo (memoryless) dlogs.

BSGS amortizes a baby-step table over many queries of the same bound --
the training workload.  Kangaroo uses O(log) memory, attractive for
one-shot queries with very large windows.  This bench measures both on
the same batch of bounded dlog instances.
"""

from __future__ import annotations

import random

from benchmarks.conftest import series_table, write_report
from repro.mathutils.dlog import BabyStepTables, DlogSolver
from repro.mathutils.group import SchnorrGroup
from repro.mathutils.kangaroo import KangarooSolver
from repro.utils.timer import Stopwatch

BOUND = 1 << 16
QUERIES = 60


def test_bsgs_vs_kangaroo(benchmark, bench_params):
    rng = random.Random(5)
    group = SchnorrGroup(bench_params, rng=rng)
    exponents = [rng.randrange(-BOUND, BOUND + 1) for _ in range(QUERIES)]
    targets = [group.gexp(m) for m in exponents]

    bsgs = DlogSolver(group, BOUND)
    kangaroo = KangarooSolver(group, BOUND)

    with Stopwatch() as sw_build:
        # isolate table-build cost: a private registry cannot reuse the
        # table `bsgs` already holds
        DlogSolver(group, BOUND, tables=BabyStepTables())
    with Stopwatch() as sw_bsgs:
        res_bsgs = [bsgs.solve(t) for t in targets]
    with Stopwatch() as sw_kangaroo:
        res_kangaroo = [kangaroo.solve(t) for t in targets]
    assert res_bsgs == res_kangaroo == exponents

    benchmark.pedantic(lambda: [bsgs.solve(t) for t in targets],
                       rounds=3, iterations=1)

    rows = [
        ["BSGS table build (once)", f"{sw_build.elapsed:.3f}"],
        [f"BSGS {QUERIES} queries (table reused)", f"{sw_bsgs.elapsed:.3f}"],
        [f"kangaroo {QUERIES} queries (no table)", f"{sw_kangaroo.elapsed:.3f}"],
        ["memory", f"BSGS ~{bsgs.table_size} elems vs kangaroo O(log)"],
    ]
    write_report("ablation_kangaroo",
                 series_table(["configuration", "seconds"], rows))

    # with the table amortized, BSGS queries must beat kangaroo walks
    assert sw_bsgs.elapsed < sw_kangaroo.elapsed
