"""Unit tests for the bounded discrete-log solver."""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mathutils.dlog import (
    DENSE_TABLE_CAP,
    BabyStepTables,
    DiscreteLogError,
    DlogSolver,
    SolverCache,
    discrete_log_linear,
)
from repro.mathutils.group import GroupParams, SchnorrGroup


class TestDlogSolver:
    def test_solves_zero(self, group):
        solver = DlogSolver(group, bound=100)
        assert solver.solve(1) == 0

    def test_solves_positive_and_negative(self, group):
        solver = DlogSolver(group, bound=1000)
        for m in (1, 42, 999, -1, -999, 1000, -1000):
            assert solver.solve(group.gexp(m)) == m

    def test_out_of_bound_raises(self, group):
        solver = DlogSolver(group, bound=50)
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(51))
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(-51))

    def test_solve_nonneg(self, group):
        solver = DlogSolver(group, bound=50)
        assert solver.solve_nonneg(group.gexp(7)) == 7
        with pytest.raises(DiscreteLogError):
            solver.solve_nonneg(group.gexp(-7))

    def test_bound_zero_only_identity(self, group):
        solver = DlogSolver(group, bound=0)
        assert solver.solve(1) == 0
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(1))

    def test_rejects_negative_bound(self, group):
        with pytest.raises(ValueError):
            DlogSolver(group, bound=-1)

    def test_rejects_window_larger_than_group(self, group):
        with pytest.raises(ValueError):
            DlogSolver(group, bound=group.q)

    def test_custom_table_size(self, group):
        solver = DlogSolver(group, bound=500, table_size=10)
        for m in (-500, -3, 0, 77, 500):
            assert solver.solve(group.gexp(m)) == m

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=-4096, max_value=4096))
    def test_property_roundtrip(self, group, m):
        # the group fixture is stateless here, so sharing it across
        # hypothesis examples is safe
        solver = DlogSolver(group, bound=4096)
        assert solver.solve(group.gexp(m)) == m

    def test_agrees_with_linear_scan(self, group):
        solver = DlogSolver(group, bound=64)
        for m in range(-64, 65, 7):
            h = group.gexp(m)
            assert solver.solve(h) == m
            if m != 0:
                assert discrete_log_linear(group, h, 64) == m


class TestSolveMany:
    """solve_many must agree with per-element solve on every input class."""

    def test_dense_fast_path_matches_solve(self, group):
        solver = DlogSolver(group, bound=1000)  # window fits the table
        assert solver.table_size >= 2 * solver.bound + 1
        values = [0, 1, -1, 42, -999, 1000, -1000, 42, 0]
        targets = [group.gexp(v) for v in values]
        assert solver.solve_many(targets) == values
        assert solver.solve_many(targets) == [solver.solve(h)
                                              for h in targets]

    def test_batched_walk_matches_solve(self, group, rng):
        # a small table forces real giant-stepping: the batched path
        solver = DlogSolver(group, bound=4000, table_size=23)
        values = [rng.randrange(-4000, 4001) for _ in range(50)]
        values += [4000, -4000, 0] + values[:10]  # edges + duplicates
        targets = [group.gexp(v) for v in values]
        assert solver.solve_many(targets) == values
        assert solver.solve_many(targets) == [solver.solve(h)
                                              for h in targets]

    def test_empty_batch(self, group):
        assert DlogSolver(group, bound=10).solve_many([]) == []

    @pytest.mark.parametrize("table_size", [None, 7])
    def test_out_of_bound_raises_like_solve(self, group, table_size):
        solver = DlogSolver(group, bound=50, table_size=table_size)
        bad = group.gexp(51)
        with pytest.raises(DiscreteLogError):
            solver.solve(bad)
        with pytest.raises(DiscreteLogError):
            solver.solve_many([bad])
        with pytest.raises(DiscreteLogError):
            # one bad apple fails the whole batch, as m solve() calls would
            solver.solve_many([group.gexp(3), bad, group.gexp(-50)])

    def test_deduplicates_repeated_targets(self, group):
        solver = DlogSolver(group, bound=600, table_size=11)
        target = group.gexp(123)
        assert solver.solve_many([target] * 40 + [group.gexp(-7)]) == \
            [123] * 40 + [-7]


class TestSolverCache:
    def test_reuses_solver(self, group):
        cache = SolverCache()
        first = cache.get(group, 100)
        second = cache.get(group, 100)
        assert first is second
        assert len(cache) == 1

    def test_distinct_bounds_distinct_solvers(self, group):
        cache = SolverCache()
        assert cache.get(group, 100) is not cache.get(group, 200)
        assert len(cache) == 2

    def test_clear(self, group):
        cache = SolverCache()
        cache.get(group, 10)
        cache.clear()
        assert len(cache) == 0

    def test_unbounded_by_default(self, group):
        cache = SolverCache()
        for bound in range(1, 101):
            cache.get(group, bound)
        assert len(cache) == 100

    def test_lru_eviction_past_cap(self, group):
        cache = SolverCache(max_entries=3)
        solvers = {b: cache.get(group, b) for b in (10, 20, 30)}
        assert len(cache) == 3
        cache.get(group, 40)  # evicts bound=10, the least recently used
        assert len(cache) == 3
        assert cache.get(group, 20) is solvers[20]  # survived
        assert cache.get(group, 10) is not solvers[10]  # rebuilt

    def test_get_refreshes_recency(self, group):
        cache = SolverCache(max_entries=2)
        first = cache.get(group, 10)
        cache.get(group, 20)
        assert cache.get(group, 10) is first  # touch: 10 is now newest
        cache.get(group, 30)  # must evict 20, not 10
        assert cache.get(group, 10) is first

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            SolverCache(max_entries=0)

    def test_global_cache_is_bounded(self):
        from repro.mathutils.dlog import (
            GLOBAL_SOLVER_CACHE,
            GLOBAL_SOLVER_CACHE_ENTRIES,
        )
        assert GLOBAL_SOLVER_CACHE.max_entries == GLOBAL_SOLVER_CACHE_ENTRIES


class TestSharedTables:
    """Solvers of one (group, table size) share one weakly held table."""

    def test_same_group_and_size_share_one_table(self, group):
        # both windows exceed the cap, so both get a cap-sized table
        wide = DlogSolver(group, bound=DENSE_TABLE_CAP)
        wider = DlogSolver(group, bound=5 * DENSE_TABLE_CAP)
        assert wide.table_size == wider.table_size == DENSE_TABLE_CAP
        assert wide._baby_steps is wider._baby_steps
        assert DlogSolver(group, 500, table_size=37)._baby_steps is \
            DlogSolver(group, 900, table_size=37)._baby_steps
        assert DlogSolver(group, 100)._baby_steps is not wide._baby_steps
        other = SchnorrGroup(GroupParams.predefined(48))
        assert DlogSolver(other, bound=DENSE_TABLE_CAP)._baby_steps is \
            not wide._baby_steps

    @pytest.mark.parametrize("bound", [
        DENSE_TABLE_CAP // 4,  # window below the cap: dense, O(1) solve
        20604,  # packed feature pairs: window just past the cap
        3 * DENSE_TABLE_CAP,  # several giant steps per solve
    ])
    def test_shared_table_solves_like_a_private_one(self, group, rng, bound):
        shared = DlogSolver(group, bound)
        private = DlogSolver(group, bound, tables=BabyStepTables())
        assert shared._baby_steps is not private._baby_steps
        values = [rng.randrange(-bound, bound + 1) for _ in range(40)]
        values += [bound, -bound, 0]
        targets = [group.gexp(v) for v in values]
        assert shared.solve_many(targets) == private.solve_many(targets) \
            == values
        assert [shared.solve(h) for h in targets[:5]] == values[:5]
        outside = group.gexp(bound + 1)
        for solver in (shared, private):
            with pytest.raises(DiscreteLogError):
                solver.solve(outside)

    def test_dropping_every_user_frees_the_table(self, group):
        first = DlogSolver(group, 700, table_size=41)
        second = DlogSolver(group, 800, table_size=41)
        table = weakref.ref(first._baby_steps)
        del first
        gc.collect()
        assert table() is second._baby_steps  # still in use
        del second
        gc.collect()
        assert table() is None

    def test_lru_eviction_frees_the_table(self, group):
        cache = SolverCache(max_entries=1)
        table = weakref.ref(cache.get(group, 4321)._baby_steps)
        cache.get(group, 10)  # evicts the only user of the 4321 table
        gc.collect()
        assert table() is None
        assert cache.stats()["evictions"] == 1
