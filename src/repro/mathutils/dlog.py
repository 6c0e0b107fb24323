"""Bounded discrete-logarithm recovery.

Decryption in both FEIP and FEBO yields ``g ** m mod p`` and must recover
the exponent ``m``.  This is feasible exactly because the plaintext result
of the permitted function is small and bounded -- the paper points at the
baby-step giant-step (BSGS) algorithm [26].  We implement BSGS over a
*signed* interval ``[-bound, bound]`` with a reusable baby-step table so
that the (dominant) table construction is amortized across the thousands
of decryptions a single training iteration performs.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from collections.abc import Sequence

from repro.mathutils.group import SchnorrGroup
from repro.obs.metrics import GLOBAL_REGISTRY


class DiscreteLogError(ValueError):
    """Raised when no exponent within the search bound matches.

    In practice this signals either a plaintext that overflowed the
    declared bound (fixed-point scale too large) or a tampered/corrupt
    ciphertext, so it doubles as an integrity check.
    """


#: Default ceiling on the baby-step table.  The classic ``sqrt(window)``
#: table balances build time against a *single* query, but the solver
#: cache amortizes one build over thousands of queries, so a denser
#: table (fewer giant steps per query, O(1) solve once the whole window
#: fits) is the right trade until memory becomes the constraint.
DENSE_TABLE_CAP = 1 << 15


class _BabySteps(dict):
    """``{g^j: j}``; a ``dict`` subclass so it can be weakly referenced."""

    __slots__ = ("__weakref__",)


class BabyStepTables:
    """Baby-step tables ``{g^j: j}`` shared by every solver of one size.

    A table depends only on ``(p, g, table_size)``, not on the bound it
    serves, and every window wider than :data:`DENSE_TABLE_CAP` gets a
    cap-sized table -- so dot-product, loss and packed-reconstruction
    solvers of one group would otherwise each hold an identical copy.
    Values are weak: a table lives exactly as long as some solver uses
    it, so LRU-evicting or dropping its last solver frees it.  Builds
    happen under the lock, so two threads never build the same table.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: weakref.WeakValueDictionary[
            tuple[int, int, int], _BabySteps] = weakref.WeakValueDictionary()

    def get(self, group: SchnorrGroup, table_size: int) -> dict[int, int]:
        key = (group.p, group.g, table_size)
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = _BabySteps()
                element = 1
                g, p = group.g, group.p
                for j in range(table_size):
                    table.setdefault(element, j)
                    element = element * g % p
                self._tables[key] = table
            return table


#: Process-wide table registry every :class:`DlogSolver` draws from
#: unless handed its own.
GLOBAL_BABY_STEP_TABLES = BabyStepTables()


class DlogSolver:
    """Baby-step giant-step solver for ``g ** m = h (mod p)``, ``|m| <= bound``.

    The solver precomputes ``table_size`` baby steps ``g^j`` once and reuses
    them for every query; a query then costs at most
    ``ceil(window / table_size)`` giant-step multiplications plus hash
    lookups.  ``table_size`` defaults to the full window when that fits
    under :data:`DENSE_TABLE_CAP` (making queries O(1)), else to the
    larger of the cap and the classic ``ceil(sqrt(window))`` balance.

    The table itself comes from ``tables`` (default
    :data:`GLOBAL_BABY_STEP_TABLES`), so solvers of the same group and
    table size share one table object, whatever their bounds.
    """

    def __init__(self, group: SchnorrGroup, bound: int,
                 table_size: int | None = None,
                 tables: BabyStepTables | None = None):
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if 2 * bound + 1 >= group.q:
            raise ValueError("search window exceeds the group order")
        self.group = group
        self.bound = bound
        window = 2 * bound + 1
        if table_size is None:
            classic = math.isqrt(window - 1) + 1
            table_size = min(window, max(classic, DENSE_TABLE_CAP))
        self.table_size = max(1, table_size)
        self._baby_steps = (tables or GLOBAL_BABY_STEP_TABLES).get(
            group, self.table_size)
        # giant step multiplies by g^{-table_size}
        self._giant_step = group.exp(group.g, -self.table_size)
        self._max_giant_steps = (window + self.table_size - 1) // self.table_size
        # window-shift element g^bound, reused by every solve() query
        self._shift = group.gexp(self.bound)

    def solve(self, h: int) -> int:
        """Return the signed exponent ``m`` with ``g^m == h``.

        Raises:
            DiscreteLogError: when no exponent in ``[-bound, bound]`` works.
        """
        # Shift the window to [0, 2*bound]: search m' with g^{m'} = h * g^{bound}.
        gamma = self.group.mul(h, self._shift)
        p = self.group.p
        for i in range(self._max_giant_steps + 1):
            j = self._baby_steps.get(gamma)
            if j is not None:
                shifted = i * self.table_size + j
                candidate = shifted - self.bound
                if -self.bound <= candidate <= self.bound:
                    return candidate
            gamma = gamma * self._giant_step % p
        raise DiscreteLogError(
            f"no discrete log within [-{self.bound}, {self.bound}]"
        )

    def solve_nonneg(self, h: int) -> int:
        """Like :meth:`solve` but requires the result to be non-negative."""
        value = self.solve(h)
        if value < 0:
            raise DiscreteLogError(f"expected non-negative exponent, got {value}")
        return value

    def solve_many(self, elements: Sequence[int]) -> list[int]:
        """Solve a whole batch of targets, sharing one giant-step walk.

        Targets are deduplicated first (a decryption matrix repeats
        values whenever two rows agree), then all still-unsolved gammas
        advance through the giant-step stride together, dropping out as
        they hit the baby-step table -- one shared walk loop for the m
        dlogs of a column instead of m restarts.  Under the dense-table
        fast path (the whole window fits in the table, so every query is
        one lookup) batching buys nothing and each element goes through
        :meth:`solve` directly.

        Raises:
            DiscreteLogError: when any element has no exponent in
                ``[-bound, bound]`` -- same contract as :meth:`solve`.
        """
        elements = [int(h) for h in elements]
        if not elements:
            return []
        window = 2 * self.bound + 1
        if self.table_size >= window:
            return [self.solve(h) for h in elements]
        # dedup: equal targets share one walk and one result
        solved: dict[int, int] = {}
        p = self.group.p
        shift = self._shift
        pending: dict[int, int] = {}  # target h -> current gamma
        for h in elements:
            if h not in pending:
                pending[h] = h * shift % p
        baby = self._baby_steps
        giant = self._giant_step
        table_size, bound = self.table_size, self.bound
        for i in range(self._max_giant_steps + 1):
            if not pending:
                break
            base_shift = i * table_size - bound
            still: dict[int, int] = {}
            for h, gamma in pending.items():
                j = baby.get(gamma)
                if j is not None:
                    candidate = base_shift + j
                    if -bound <= candidate <= bound:
                        solved[h] = candidate
                        continue
                still[h] = gamma * giant % p
            pending = still
        if pending:
            raise DiscreteLogError(
                f"{len(pending)} of {len(elements)} targets have no "
                f"discrete log within [-{self.bound}, {self.bound}]"
            )
        return [solved[h] for h in elements]


def discrete_log_linear(group: SchnorrGroup, h: int, bound: int) -> int:
    """Exhaustive-scan fallback used to cross-check BSGS in tests.

    Linear in ``bound``; only use for tiny windows.
    """
    if h == 1:
        return 0
    acc_pos = 1
    acc_neg = 1
    g_inv = group.inv(group.g)
    for m in range(1, bound + 1):
        acc_pos = group.mul(acc_pos, group.g)
        if acc_pos == h:
            return m
        acc_neg = group.mul(acc_neg, g_inv)
        if acc_neg == h:
            return -m
    raise DiscreteLogError(f"no discrete log within [-{bound}, {bound}]")


#: Entry cap of the process-wide :data:`GLOBAL_SOLVER_CACHE`.  Each dense
#: solver can pin up to :data:`DENSE_TABLE_CAP` group elements, so a
#: long-lived service meeting many distinct bounds (every new tenant or
#: layer shape introduces one) would otherwise grow without limit --
#: the same reason ``FIXED_BASE_CACHE_ENTRIES`` bounds the comb tables.
#: Unlike the comb budget (which stops building), stale *solvers* are
#: safe to LRU-evict: a rebuilt baby-step table is slow, not wrong.
GLOBAL_SOLVER_CACHE_ENTRIES = 64


class SolverCache:
    """Per-(group, bound) cache of :class:`DlogSolver` instances.

    Building the baby-step table is the expensive part of decryption;
    training touches the same handful of bounds over and over, so the
    secure-computation layer routes all dlog queries through one of these.
    Solvers of different bounds may share one table (see
    :class:`BabyStepTables`); evicting a solver frees its table only once
    no other solver uses it.

    ``max_entries`` bounds the cache with least-recently-used eviction;
    the default (None) keeps it unbounded, which is what in-process
    experiments with a handful of bounds want.

    The map and the ``hits``/``builds``/``evictions`` counters are
    guarded by one lock: :data:`GLOBAL_SOLVER_CACHE` is shared
    process-wide (every decrypting thread routes through it) and the
    metrics registry scrapes the counters from an arbitrary thread, so
    both the LRU bookkeeping and the scrape need a consistent view --
    the same treatment ``pool.stats`` and the engine stats got in PR 7.
    Table *construction* happens under the lock too, which also stops
    two threads racing to build the same expensive baby-step table.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._solvers: OrderedDict[tuple[int, int, int], DlogSolver] = \
            OrderedDict()

    def get(self, group: SchnorrGroup, bound: int) -> DlogSolver:
        key = (group.p, group.g, bound)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is None:
                self.builds += 1
                solver = DlogSolver(group, bound)
                self._solvers[key] = solver
                if self.max_entries is not None:
                    while len(self._solvers) > self.max_entries:
                        self._solvers.popitem(last=False)
                        self.evictions += 1
            else:
                self.hits += 1
                self._solvers.move_to_end(key)
            return solver

    def clear(self) -> None:
        with self._lock:
            self._solvers.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._solvers)

    def stats(self) -> dict[str, int]:
        """Consistent counter snapshot (one lock acquisition).

        ``builds`` counts solvers constructed, not baby-step tables: a new
        solver reuses a live table of its size from :class:`BabyStepTables`.
        """
        with self._lock:
            return {
                "entries": len(self._solvers),
                "hits": self.hits,
                "builds": self.builds,
                "evictions": self.evictions,
            }


#: Process-wide default cache.  Library code accepts an explicit cache for
#: isolation (tests) but falls back to this shared one; it is bounded so
#: long-lived services cannot accumulate dlog tables indefinitely.
GLOBAL_SOLVER_CACHE = SolverCache(max_entries=GLOBAL_SOLVER_CACHE_ENTRIES)


def _collect_global_solver_cache() -> dict[str, int]:
    stats = GLOBAL_SOLVER_CACHE.stats()
    return {
        "repro_dlog_solver_cache_entries": stats["entries"],
        "repro_dlog_solver_cache_hits_total": stats["hits"],
        "repro_dlog_solver_cache_builds_total": stats["builds"],
        "repro_dlog_solver_cache_evictions_total": stats["evictions"],
    }


GLOBAL_REGISTRY.register_collector(
    "dlog.global_solver_cache", _collect_global_solver_cache)
