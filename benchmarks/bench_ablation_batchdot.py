"""Ablation: batched decryption of the secure dot-product matrix.

PR 1 made a *single* FEIP decryption fast (multiexp numerator, comb
tables, dense-table dlog) but still decrypted the output matrix row by
row: for every encrypted column, each of the m weight keys re-walked its
own exponentiation and discrete-log machinery even though all m rows
share the exact same ciphertext bases ``(ct_0, ct_1..ct_eta)``.  The
batched engine amortizes everything shareable across the batch
dimension:

* :meth:`~repro.fe.feip.Feip.plan_rows` recodes the m keys once into a
  :class:`~repro.mathutils.fastexp.RowPlan`, shared by every column:
  each full-width ``-sk`` becomes a Lim-Lee comb schedule and the small
  signed weights, offset to unsigned, ride the bottom of the same
  squaring chain;
* per column, ``decrypt_rows`` builds the comb's subset products of
  ``ct_0`` and one 16-entry table per four ``ct_i``, then walks one
  short chain per row;
* :meth:`~repro.mathutils.dlog.DlogSolver.solve_many` dedups the m
  targets (and, when the window exceeds the baby-step table, advances
  them through one giant-step walk).

The acceptance gate asserts the combined effect: >= 2x wall clock on an
m x eta secure dot at the paper's 256-bit parameter versus the PR 1
per-row path (which stays available as ``Feip.decrypt``, the reference
implementation both pipelines are checked against).
"""

from __future__ import annotations

import random

from benchmarks.conftest import series_table, write_report
from benchmarks.harness import write_bench_json
from repro.fe.febo import Febo, packed_bound, unpack
from repro.fe.feip import Feip
from repro.mathutils.dlog import DlogSolver
from repro.utils.timer import Stopwatch
from repro.mathutils.group import GroupParams

#: The paper's security parameter; the acceptance criterion is stated at
#: this size, so this bench does not follow the scaled BENCH_BITS.
BITS = 256

#: Output rows of the decryption matrix -- the hidden width of a
#: Figure-6-style MLP first layer (one FEIP key per unit).
M_ROWS = 64

VECTOR_LENGTH = 10
VALUE_RANGE = (1, 100)
N_COLUMNS = 6
ROUNDS = 3
GATE = 2.0


def test_batched_vs_per_row_secure_dot(benchmark):
    """m x eta decryption matrix: per-row PR 1 path vs decrypt_rows."""
    params = GroupParams.predefined(BITS)
    lo, hi = VALUE_RANGE
    rng = random.Random(11)
    feip = Feip(params, rng=random.Random(12))
    mpk, msk = feip.setup(VECTOR_LENGTH)
    columns = [[rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
               for _ in range(N_COLUMNS)]
    weights = [[rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
               for _ in range(M_ROWS)]
    keys = [feip.key_derive(msk, y) for y in weights]
    cts = [feip.encrypt(mpk, col) for col in columns]
    bound = VECTOR_LENGTH * hi * hi + 1
    expected = [[sum(a * b for a, b in zip(col, y)) for col in columns]
                for y in weights]

    solver = feip.solver_for(bound)

    def per_row_pipeline():
        # PR 1: one independent decrypt per (row, column) cell
        return [[feip.decrypt(mpk, ct, key, bound, solver=solver)
                 for ct in cts]
                for key in keys]

    def batched_pipeline():
        plan = feip.plan_rows(keys)  # once per key set, as training does
        z = [feip.decrypt_rows(mpk, ct, plan, bound, solver=solver)
             for ct in cts]
        return [[z[j][i] for j in range(len(cts))]
                for i in range(len(keys))]

    # warm shared state (solver tables, comb tables for g) for BOTH sides
    assert per_row_pipeline() == expected
    assert batched_pipeline() == expected

    with Stopwatch() as sw_per_row:
        for _ in range(ROUNDS):
            per_row_pipeline()
    with Stopwatch() as sw_batched:
        for _ in range(ROUNDS):
            batched_pipeline()
    benchmark.pedantic(batched_pipeline, rounds=1, iterations=1)

    speedup = sw_per_row.elapsed / max(sw_batched.elapsed, 1e-9)
    write_report("ablation_batchdot", series_table(
        ["pipeline",
         f"time for {ROUNDS} x ({M_ROWS}x{VECTOR_LENGTH} @ "
         f"{VECTOR_LENGTH}x{N_COLUMNS}) secure dots, {BITS}-bit (s)"],
        [["per-row (PR 1: decrypt per cell)", f"{sw_per_row.elapsed:.3f}"],
         ["batched (decrypt_rows per column)", f"{sw_batched.elapsed:.3f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_batchdot",
        {"per_row_s": sw_per_row.elapsed, "batched_s": sw_batched.elapsed},
        speedups={"batched_vs_per_row": speedup},
        meta={"bits": BITS, "rounds": ROUNDS, "m_rows": M_ROWS,
              "vector_length": VECTOR_LENGTH, "columns": N_COLUMNS,
              "gate": GATE})
    assert speedup >= GATE, f"expected >= {GATE}x, measured {speedup:.2f}x"


def test_solve_many_shares_the_stride_walk():
    """Micro: batched dlog vs per-element under a sparse baby table.

    Training-sized bounds ride the dense-table fast path (O(1) per
    query, nothing to batch); this pins the sparse-table regime where
    the batch shares one deduplicated giant-step walk.  Informational --
    the end-to-end gate lives in the test above.
    """
    params = GroupParams.predefined(64)
    from repro.mathutils.group import SchnorrGroup

    group = SchnorrGroup(params)
    bound = 200_000
    solver = DlogSolver(group, bound, table_size=512)
    rng = random.Random(13)
    values = [rng.randrange(-bound, bound + 1) for _ in range(96)]
    values += values[:32]  # duplicates: the dedup path
    targets = [group.gexp(v) for v in values]

    assert solver.solve_many(targets) == values  # warm + correct
    with Stopwatch() as sw_each:
        each = [solver.solve(h) for h in targets]
    with Stopwatch() as sw_many:
        many = solver.solve_many(targets)
    assert each == many == values

    speedup = sw_each.elapsed / max(sw_many.elapsed, 1e-9)
    write_report("ablation_batchdot_solvemany", series_table(
        ["method", f"time for {len(targets)} dlogs, bound={bound}, "
                   f"table=512 (s)"],
        [["solve per element", f"{sw_each.elapsed:.4f}"],
         ["solve_many", f"{sw_many.elapsed:.4f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_batchdot_solvemany",
        {"solve_each_s": sw_each.elapsed, "solve_many_s": sw_many.elapsed},
        speedups={"solve_many_vs_each": speedup},
        meta={"bits": 64, "bound": bound, "table_size": 512,
              "targets": len(targets)})


#: One cold training step's feature reconstruction: 10 samples x 8
#: features, each decrypted as ``x * 1`` (the identity multiplier).
FEBO_CELLS = 80
FEBO_ROUNDS = 20
FEBO_GATE = 3.0


def test_batched_vs_per_element_febo():
    """80-cell ``*``-by-1 grid: per-element ``decrypt`` vs ``decrypt_many``.

    Per-element decryption pays one modular inversion of ``sk`` per
    cell; ``decrypt_many`` shares one Montgomery batch inversion across
    the grid (three multiplies per cell) and one batched dlog.
    """
    params = GroupParams.predefined(BITS)
    rng = random.Random(14)
    febo = Febo(params, rng=random.Random(15))
    mpk, msk = febo.setup()
    values = [rng.randrange(-100, 101) for _ in range(FEBO_CELLS)]
    cts = [febo.encrypt(mpk, x) for x in values]
    items = [(febo.key_derive(msk, ct.cmt, "*", 1), ct) for ct in cts]
    bound = 101
    solver = febo.solver_for(bound)

    def per_element():
        return [febo.decrypt(mpk, key, ct, bound, solver=solver)
                for key, ct in items]

    def batched():
        return febo.decrypt_many(mpk, items, bound, solver=solver)

    assert per_element() == batched() == values  # warm + correct
    with Stopwatch() as sw_each:
        for _ in range(FEBO_ROUNDS):
            per_element()
    with Stopwatch() as sw_many:
        for _ in range(FEBO_ROUNDS):
            batched()

    speedup = sw_each.elapsed / max(sw_many.elapsed, 1e-9)
    write_report("ablation_batchdot_febo", series_table(
        ["pipeline", f"time for {FEBO_ROUNDS} x {FEBO_CELLS}-cell "
                     f"'*'-by-1 grids, {BITS}-bit (s)"],
        [["per-element decrypt (one inversion per cell)",
          f"{sw_each.elapsed:.4f}"],
         ["decrypt_many (one shared inversion)", f"{sw_many.elapsed:.4f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_batchdot_febo",
        {"per_element_s": sw_each.elapsed, "decrypt_many_s": sw_many.elapsed},
        speedups={"decrypt_many_vs_per_element": speedup},
        meta={"bits": BITS, "rounds": FEBO_ROUNDS, "cells": FEBO_CELLS,
              "gate": FEBO_GATE})
    assert speedup >= FEBO_GATE, \
        f"expected >= {FEBO_GATE}x, measured {speedup:.2f}x"


PACKED_GATE = 1.6


def test_packed_vs_per_element_reconstruction():
    """80 identity elements: one key each vs one key per packed pair.

    Times what a cold step's feature reconstruction pays on both sides
    of the key exchange: the authority's ``cmt^s`` derivations plus the
    server's decryption.  Packing (``Febo.pack``) halves the full-width
    derivations for two small-exponent ``^B`` per pair and a dlog over
    the wider packed window, which the shared cap-sized baby-step table
    covers in two giant steps.
    """
    params = GroupParams.predefined(BITS)
    rng = random.Random(16)
    febo = Febo(params, rng=random.Random(17))
    mpk, msk = febo.setup()
    bound = 101
    values = [rng.randrange(-bound, bound + 1) for _ in range(FEBO_CELLS)]
    cts = [febo.encrypt(mpk, x) for x in values]
    solver = febo.solver_for(bound)
    packed_solver = febo.solver_for(packed_bound(bound))

    def per_element():
        items = [(febo.key_derive(msk, ct.cmt, "*", 1), ct) for ct in cts]
        return febo.decrypt_many(mpk, items, bound, solver=solver)

    def packed():
        pairs = [febo.pack(cts[k], cts[k + 1], bound)
                 for k in range(0, FEBO_CELLS, 2)]
        items = [(febo.key_derive(msk, ct.cmt, "*", 1), ct) for ct in pairs]
        out = []
        for value in febo.decrypt_many(mpk, items, packed_bound(bound),
                                       solver=packed_solver):
            out.extend(unpack(value, bound))
        return out

    assert per_element() == packed() == values  # warm + correct
    # rounds alternate and each side keeps its fastest, so a burst of
    # host noise during some rounds cannot decide the gate
    each_s, packed_s = [], []
    for _ in range(FEBO_ROUNDS):
        with Stopwatch() as sw_each:
            per_element()
        with Stopwatch() as sw_packed:
            packed()
        each_s.append(sw_each.elapsed)
        packed_s.append(sw_packed.elapsed)
    each, fastest = min(each_s), min(packed_s)

    speedup = each / max(fastest, 1e-9)
    write_report("ablation_batchdot_packed", series_table(
        ["pipeline", f"fastest of {FEBO_ROUNDS} {FEBO_CELLS}-element "
                     f"identity reconstructions (derive + decrypt), "
                     f"{BITS}-bit (s)"],
        [["one key per element", f"{each:.4f}"],
         ["one key per packed pair", f"{fastest:.4f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_batchdot_packed",
        {"per_element_s": each, "packed_s": fastest},
        speedups={"packed_vs_per_element": speedup},
        meta={"bits": BITS, "rounds": FEBO_ROUNDS, "cells": FEBO_CELLS,
              "gate": PACKED_GATE})
    assert speedup >= PACKED_GATE, \
        f"expected >= {PACKED_GATE}x, measured {speedup:.2f}x"
