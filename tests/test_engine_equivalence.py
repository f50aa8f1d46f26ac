"""The gate for the vectorized execution layer.

``engine="vectorized"`` and ``engine="reference"`` must produce *identical*
results — same tail samples, same (handle -> position) assignments, same
acceptance statistics, same replenishment schedule — for the same session
seed, on randomized plans and seeds.  Likewise the sharded Monte Carlo
executor must be invariant to ``n_jobs`` and shard geometry, and every
``engine × n_jobs × backend × replenishment × speculate_depth ×
window_growth × det_cache`` combination — including seed-axis-sharded
GibbsLooper runs with worker-owned state replaying commit notifications,
with shared memory and on its allocation-failure fallback — must be
bit-identical to the serial reference.  Nothing here is
approximate: every comparison is exact.
"""

import errno

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.engine import shm as shm_module
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    Join, Scan, Select, Split, random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.shm import leaked_segments
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import DISCRETE_CHOICE, NORMAL

ENGINES = ("reference", "vectorized")
BACKENDS = ("serial", "thread", "process")


def _losses_catalog(customers):
    catalog = Catalog()
    means = np.linspace(0.8, 3.5, customers)
    catalog.add_table(Table("means", {
        "CID": np.arange(customers), "m": means}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    return catalog, spec


def _assert_identical(a, b):
    """Exact equality of everything a LooperResult exposes."""
    assert a.quantile_estimate == b.quantile_estimate
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.assignments == b.assignments
    assert a.plan_runs == b.plan_runs
    assert a.num_seeds == b.num_seeds
    assert a.num_tuples == b.num_tuples
    assert len(a.trace) == len(b.trace)
    for step_a, step_b in zip(a.trace, b.trace):
        assert step_a.cutoff == step_b.cutoff
        assert step_a.elite_count == step_b.elite_count
        assert step_a.replenish_runs == step_b.replenish_runs
        assert (step_a.stats.proposals, step_a.stats.acceptances,
                step_a.stats.stalls) == (step_b.stats.proposals,
                                         step_b.stats.acceptances,
                                         step_b.stats.stalls)


class TestLooperEquivalence:
    """Vectorized vs reference GibbsLooper on the portfolio family."""

    def _run(self, engine, customers=20, window=250, base_seed=0,
             aggregate_kind="sum", k=1, num_samples=25, m=2, p_step=0.3,
             versions=40, predicate=None, max_proposals=100_000,
             replenishment="delta", n_jobs=1, backend="process",
             shard_size=None, window_growth=1.0, speculate_depth=4):
        catalog, spec = _losses_catalog(customers)
        plan = random_table_pipeline(spec)
        if predicate is not None:
            plan = Select(plan, predicate)
        params = TailParams(p=p_step ** m, m=m, n_steps=(versions,) * m,
                            p_steps=(p_step,) * m)
        expr = None if aggregate_kind == "count" else col("val")
        return GibbsLooper(
            plan, catalog, params, num_samples,
            aggregate_kind=aggregate_kind, aggregate_expr=expr,
            window=window, base_seed=base_seed, k=k,
            max_proposals=max_proposals,
            options=ExecutionOptions(engine=engine,
                                     replenishment=replenishment,
                                     n_jobs=n_jobs, backend=backend,
                                     shard_size=shard_size,
                                     window_growth=window_growth,
                                     speculate_depth=speculate_depth)).run()

    @given(customers=st.integers(3, 15),
           window=st.integers(60, 300),
           base_seed=st.integers(0, 10_000),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]),
           m=st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_property_random_plans_and_seeds(self, customers, window,
                                             base_seed, aggregate_kind, m):
        kwargs = dict(customers=customers, window=window, base_seed=base_seed,
                      aggregate_kind=aggregate_kind, m=m, versions=30,
                      num_samples=15)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_replenishment_heavy_window(self):
        """A window barely above the population forces many plan re-runs —
        both engines must replenish at the same points."""
        kwargs = dict(customers=10, window=45, versions=40, m=2, base_seed=5)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_multi_sweep_k(self):
        kwargs = dict(k=3, base_seed=17)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_single_seed_presence_predicate(self):
        kwargs = dict(predicate=col("val") > lit(1.2), base_seed=23,
                      window=400)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_tight_proposal_budget_stalls_identically(self):
        """With a tiny max_proposals both engines must stall on the same
        versions after consuming the same candidates."""
        kwargs = dict(max_proposals=7, base_seed=29, window=400, m=2)
        a = self._run("reference", **kwargs)
        b = self._run("vectorized", **kwargs)
        _assert_identical(a, b)
        assert a.total_stats.stalls > 0  # the scenario must exercise stalls

    def test_avg_aggregate_with_predicate(self):
        kwargs = dict(aggregate_kind="avg", predicate=col("val") > lit(0.5),
                      base_seed=31, window=400)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))


class TestDeltaReplenishmentEquivalence:
    """``replenishment="delta"`` must be bit-identical to full re-runs.

    The delta path merges never-materialized stream positions into the
    previous bundles and keeps the looper's per-version caches; streams
    are pure functions of position, so nothing observable may change —
    samples, assignments, acceptance statistics and the replenishment
    schedule itself all stay exact, for both engines.
    """

    _runner = TestLooperEquivalence()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_equals_full_heavy_replenishment(self, engine):
        kwargs = dict(customers=10, window=45, versions=40, m=2, base_seed=5,
                      engine=engine)
        full = self._runner._run(replenishment="full", **kwargs)
        delta = self._runner._run(replenishment="delta", **kwargs)
        _assert_identical(full, delta)
        assert full.plan_runs > 1  # the scenario must replenish
        assert full.full_replenish_runs == full.plan_runs - 1
        assert full.delta_replenish_runs == 0
        assert delta.delta_replenish_runs == delta.plan_runs - 1
        assert delta.full_replenish_runs == 0

    @given(customers=st.integers(3, 12), window=st.integers(60, 200),
           base_seed=st.integers(0, 10_000),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]))
    @settings(max_examples=8, deadline=None)
    def test_property_delta_equals_full(self, customers, window, base_seed,
                                        aggregate_kind):
        kwargs = dict(customers=customers, window=window, base_seed=base_seed,
                      aggregate_kind=aggregate_kind, versions=30,
                      num_samples=15)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(
            self._runner._run("vectorized", replenishment="full", **kwargs),
            self._runner._run("vectorized", replenishment="delta", **kwargs))

    def test_presence_predicate_under_delta(self):
        kwargs = dict(predicate=col("val") > lit(1.2), base_seed=23,
                      window=60, customers=8, versions=40)
        full = self._runner._run("vectorized", replenishment="full", **kwargs)
        delta = self._runner._run("vectorized", replenishment="delta",
                                  **kwargs)
        _assert_identical(full, delta)
        assert full.plan_runs > 1

    def test_multi_seed_delta_equals_full(self):
        results = {}
        for replenishment in ("full", "delta"):
            catalog, plan = TestMultiSeedPlans._salary_plan()
            params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
            results[replenishment] = GibbsLooper(
                plan, catalog, params, 30, aggregate_kind="sum",
                aggregate_expr=col("e2.sal") - col("e1.sal"),
                final_predicate=col("e2.sal") > col("e1.sal"),
                window=70, base_seed=3,
                options=ExecutionOptions(
                    replenishment=replenishment)).run()
        _assert_identical(results["full"], results["delta"])
        assert results["full"].plan_runs > 1

    def test_split_join_delta_equals_full(self):
        catalog = Catalog()
        catalog.add_table(Table("people", {"pid": np.arange(8)}))
        catalog.add_table(Table("bonus", {
            "bage": [20.0, 21.0], "amount": [10.0, 100.0]}))
        spec = RandomTableSpec(
            name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        params = TailParams(p=0.2, m=1, n_steps=(50,), p_steps=(0.2,))
        results = {}
        for replenishment in ("full", "delta"):
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results[replenishment] = GibbsLooper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=60, base_seed=5,
                options=ExecutionOptions(
                    replenishment=replenishment)).run()
        _assert_identical(results["full"], results["delta"])
        assert results["full"].plan_runs > 1


class TestMultiSeedPlans:
    """Plans whose Gibbs tuples carry several TS-seed handles."""

    @staticmethod
    def _salary_plan():
        catalog = Catalog()
        catalog.add_table(Table("emp", {
            "eid": ["Joe", "Sue", "Jim", "Ann", "Sid"],
            "msal": [26.0, 24.0, 77.0, 45.0, 50.0]}))
        catalog.add_table(Table("sup", {
            "boss": ["Sue", "Jim", "Sue"], "peon": ["Joe", "Ann", "Sid"]}))
        spec = RandomTableSpec(
            name="salaries", parameter_table="emp", vg=NORMAL,
            vg_params=(col("msal"), lit(4.0)),
            random_columns=(RandomColumnSpec("sal"),),
            passthrough_columns=("eid",))
        emp1 = random_table_pipeline(spec, prefix="e1.")
        emp2 = random_table_pipeline(spec, prefix="e2.")
        plan = Join(Join(Scan("sup"), emp1, ["boss"], ["e1.eid"]),
                    emp2, ["peon"], ["e2.eid"])
        return catalog, plan

    def _run(self, engine, base_seed):
        catalog, plan = self._salary_plan()
        params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
        return GibbsLooper(
            plan, catalog, params, 30, aggregate_kind="sum",
            aggregate_expr=col("e2.sal") - col("e1.sal"),
            final_predicate=col("e2.sal") > col("e1.sal"),
            window=500, base_seed=base_seed,
            options=ExecutionOptions(engine=engine)).run()

    @pytest.mark.parametrize("base_seed", [0, 7, 101])
    def test_salary_inversion_pulled_up_predicate(self, base_seed):
        _assert_identical(self._run("reference", base_seed),
                          self._run("vectorized", base_seed))

    def test_split_join_on_random_attribute(self):
        catalog = Catalog()
        catalog.add_table(Table("people", {"pid": np.arange(8)}))
        catalog.add_table(Table("bonus", {
            "bage": [20.0, 21.0], "amount": [10.0, 100.0]}))
        spec = RandomTableSpec(
            name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        params = TailParams(p=0.2, m=1, n_steps=(50,), p_steps=(0.2,))
        results = []
        for engine in ENGINES:
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results.append(GibbsLooper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=300, base_seed=5,
                options=ExecutionOptions(engine=engine)).run())
        _assert_identical(*results)


class TestMonteCarloSharding:
    """MonteCarloExecutor results must not depend on n_jobs/shard layout."""

    @staticmethod
    def _executor(options=None, group_by=(), base_seed=3):
        catalog, spec = _losses_catalog(12)
        catalog.add_table(Table("segments", {
            "CID2": np.arange(12), "seg": ["a"] * 5 + ["b"] * 7}))
        plan = Join(Select(random_table_pipeline(spec),
                           col("val") > lit(1.0)),
                    Scan("segments"), ["CID"], ["CID2"])
        aggregates = [
            AggregateSpec("total", "sum", col("val")),
            AggregateSpec("n", "count"),
            AggregateSpec("mean", "avg", col("val")),
            AggregateSpec("worst", "max", col("val")),
        ]
        return MonteCarloExecutor(plan, aggregates, catalog,
                                  group_by=group_by, base_seed=base_seed,
                                  options=options)

    @staticmethod
    def _assert_results_equal(a, b):
        assert a.group_keys == b.group_keys
        assert a.repetitions == b.repetitions
        for key in a.group_keys:
            for name in ("total", "n", "mean", "worst"):
                np.testing.assert_array_equal(
                    a.distribution(name, key).samples,
                    b.distribution(name, key).samples)

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_sharded_equals_serial(self, n_jobs):
        serial = self._executor().run(200)
        sharded = self._executor(
            ExecutionOptions(n_jobs=n_jobs)).run(200)
        self._assert_results_equal(serial, sharded)

    def test_sharded_group_by(self):
        serial = self._executor(group_by=["seg"]).run(150)
        sharded = self._executor(
            ExecutionOptions(n_jobs=2), group_by=["seg"]).run(150)
        self._assert_results_equal(serial, sharded)

    def test_shard_size_does_not_matter(self):
        serial = self._executor().run(100)
        for shard_size in (1, 33, 64):
            sharded = self._executor(ExecutionOptions(
                n_jobs=2, shard_size=shard_size)).run(100)
            self._assert_results_equal(serial, sharded)

    def test_uneven_split_covers_all_repetitions(self):
        bounds = ExecutionOptions(n_jobs=3).shard_bounds(100)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        assert all(hi == next_lo for (_, hi), (next_lo, _)
                   in zip(bounds, bounds[1:]))

    def test_options_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionOptions(engine="warp-drive")
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionOptions(n_jobs=0)
        with pytest.raises(ValueError, match="shard_size"):
            ExecutionOptions(shard_size=0)


class TestSessionLevelEquivalence:
    """The options thread end-to-end through the SQL surface."""

    CREATE = """
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """

    def _session(self, options=None):
        session = Session(base_seed=11, tail_budget=300, window=200,
                          options=options)
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    def test_tail_query_same_result_under_both_engines(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
            WITH RESULTDISTRIBUTION MONTECARLO(40)
            DOMAIN loss >= QUANTILE(0.95)
        """
        outputs = [
            self._session(ExecutionOptions(engine=engine)).execute(query)
            for engine in ENGINES]
        _assert_identical(outputs[0].tail, outputs[1].tail)

    def test_montecarlo_query_same_result_under_sharding(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(120)
        """
        serial = self._session().execute(query)
        sharded = self._session(ExecutionOptions(n_jobs=2)).execute(query)
        np.testing.assert_array_equal(
            serial.distributions.distribution("loss").samples,
            sharded.distributions.distribution("loss").samples)

    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
        WITH RESULTDISTRIBUTION MONTECARLO(40)
        DOMAIN loss >= QUANTILE(0.95)
    """

    @pytest.mark.parametrize("det_cache", ["session", "context", "off"])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_tail_query_invariant_to_cache_and_replenishment(
            self, det_cache, replenishment):
        """The full mode matrix: every (det_cache, replenishment) pair must
        reproduce the default configuration's tail result exactly."""
        baseline = self._session().execute(self.TAIL_QUERY)
        other = self._session(ExecutionOptions(
            det_cache=det_cache, replenishment=replenishment)
        ).execute(self.TAIL_QUERY)
        _assert_identical(baseline.tail, other.tail)

    @pytest.mark.parametrize("det_cache", ["session", "context", "off"])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_sharded_tail_query_invariant_to_cache_and_replenishment(
            self, det_cache, replenishment):
        """The same matrix with the seed-sharded Gibbs tail on the
        default backend: still the serial default's exact tail."""
        baseline = self._session().execute(self.TAIL_QUERY)
        with self._session(ExecutionOptions(
                det_cache=det_cache, replenishment=replenishment,
                n_jobs=2)) as session:
            other = session.execute(self.TAIL_QUERY)
        _assert_identical(baseline.tail, other.tail)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_backend_axis_tail_and_montecarlo(self, backend):
        """The whole SQL surface, sharded on each backend over the
        session's persistent pool, equals the serial session."""
        serial_tail = self._session().execute(self.TAIL_QUERY)
        mc_query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(90)
        """
        serial_mc = self._session().execute(mc_query)
        with self._session(ExecutionOptions(
                n_jobs=2, backend=backend)) as session:
            sharded_tail = session.execute(self.TAIL_QUERY)
            sharded_mc = session.execute(mc_query)
        _assert_identical(serial_tail.tail, sharded_tail.tail)
        np.testing.assert_array_equal(
            serial_mc.distributions.distribution("loss").samples,
            sharded_mc.distributions.distribution("loss").samples)

    @pytest.mark.parametrize("det_cache", ["session", "off"])
    def test_sharded_montecarlo_with_cache_modes(self, det_cache):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(90)
        """
        serial = self._session().execute(query)
        sharded = self._session(ExecutionOptions(
            n_jobs=2, shard_size=25, det_cache=det_cache)).execute(query)
        np.testing.assert_array_equal(
            serial.distributions.distribution("loss").samples,
            sharded.distributions.distribution("loss").samples)

    def test_repeated_tail_query_hits_session_cache_identically(self):
        """Cross-query det-cache hits must not change tail results."""
        session = self._session()
        first = session.execute(self.TAIL_QUERY)
        assert len(session.det_cache) > 0
        second = session.execute(self.TAIL_QUERY)
        assert session.det_cache.hits > 0
        _assert_identical(first.tail, second.tail)


class TestBackendMatrix:
    """The backend axis: every backend × n_jobs × engine × replenishment
    combination must be bit-identical to the serial reference run —
    including seed-axis-sharded GibbsLooper runs, where workers evaluate
    candidate windows for disjoint handle ranges and the sweep merges
    them in handle order.
    """

    _runner = TestLooperEquivalence()
    #: Replenishment-heavy Gibbs workload: the window barely covers the
    #: population, so sharded sweeps also cross refuel boundaries.
    GIBBS = dict(customers=12, window=60, versions=30, num_samples=15,
                 m=2, base_seed=9)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_monte_carlo_backends_equal_serial(self, backend, n_jobs):
        serial = TestMonteCarloSharding._executor().run(120)
        sharded = TestMonteCarloSharding._executor(
            ExecutionOptions(n_jobs=n_jobs, backend=backend)).run(120)
        TestMonteCarloSharding._assert_results_equal(serial, sharded)

    @pytest.mark.parametrize("speculate_depth", [0, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_gibbs_seed_sharding_equals_serial(self, backend, replenishment,
                                               speculate_depth):
        serial = self._runner._run("vectorized", replenishment=replenishment,
                                   **self.GIBBS)
        sharded = self._runner._run("vectorized", replenishment=replenishment,
                                    n_jobs=2, backend=backend,
                                    speculate_depth=speculate_depth,
                                    **self.GIBBS)
        _assert_identical(serial, sharded)
        assert serial.sharded_windows == 0
        assert sharded.sharded_windows > 0  # the shard path actually ran
        assert serial.plan_runs > 1  # …and crossed replenishments
        if speculate_depth == 0:
            assert sharded.speculated_windows == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_gibbs_engine_axis_under_process_backend(self, engine, n_jobs):
        """Both engines, sharded, must still match the scalar reference
        (the reference engine ignores seed sharding by design)."""
        reference = self._runner._run("reference", **self.GIBBS)
        sharded = self._runner._run(engine, n_jobs=n_jobs,
                                    backend="process", **self.GIBBS)
        _assert_identical(reference, sharded)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_gibbs_engine_axis_under_full_replenishment(self, engine,
                                                        n_jobs):
        """The engine axis again with ``replenishment="full"``, where
        every refuel discards and re-ships the worker state."""
        reference = self._runner._run("reference", replenishment="full",
                                      **self.GIBBS)
        sharded = self._runner._run(engine, n_jobs=n_jobs,
                                    backend="process", replenishment="full",
                                    **self.GIBBS)
        _assert_identical(reference, sharded)

    @pytest.mark.parametrize("n_jobs", [2, 5])
    def test_gibbs_shard_size_geometry_invariance(self, n_jobs):
        """Seed-axis shard geometry (shard_size cuts the handle list) must
        not matter, down to one-seed shards."""
        serial = self._runner._run("vectorized", **self.GIBBS)
        for shard_size in (1, 3):
            sharded = self._runner._run(
                "vectorized", n_jobs=n_jobs, backend="serial",
                shard_size=shard_size, **self.GIBBS)
            _assert_identical(serial, sharded)
            assert sharded.sharded_windows > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_seed_plans_fall_back_to_serial_sweeps(self, backend):
        """Tuples carrying several handles couple seeds through shared
        state; sharding must detect that and stay serial (bit-identity
        the easy way), serving zero worker windows on every backend."""
        runner = TestMultiSeedPlans()
        serial = runner._run("vectorized", base_seed=7)
        catalog, plan = TestMultiSeedPlans._salary_plan()
        params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
        sharded = GibbsLooper(
            plan, catalog, params, 30, aggregate_kind="sum",
            aggregate_expr=col("e2.sal") - col("e1.sal"),
            final_predicate=col("e2.sal") > col("e1.sal"),
            window=500, base_seed=7,
            options=ExecutionOptions(n_jobs=2, backend=backend)).run()
        _assert_identical(serial, sharded)
        assert sharded.sharded_windows == 0
        assert sharded.followup_windows == 0

    _sql = TestSessionLevelEquivalence()

    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_cache_append_splice_on_every_backend(self, backend,
                                                          replenishment):
        """The session det-cache — including an append-splice refresh
        mid-session — must reproduce the uncached oracle's tail samples
        bit-for-bit, on every backend and under both replenishment
        modes."""
        def run(options):
            with self._sql._session(options) as session:
                before = session.execute(self._sql.TAIL_QUERY)
                session.append("means", {"CID": [15, 16], "m": [3.2, 3.4]})
                after = session.execute(self._sql.TAIL_QUERY)
                stats = session.cache_stats()
            return before, after, stats

        baseline = run(ExecutionOptions(det_cache="off",
                                        replenishment=replenishment))
        cached = run(ExecutionOptions(n_jobs=2, backend=backend,
                                      replenishment=replenishment))
        _assert_identical(baseline[0].tail, cached[0].tail)
        _assert_identical(baseline[1].tail, cached[1].tail)
        assert cached[2]["append_refreshes"] >= 1

    @given(base_seed=st.integers(0, 10_000),
           n_jobs=st.integers(2, 4),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]))
    @settings(max_examples=8, deadline=None)
    def test_property_seed_sharding_invariance(self, base_seed, n_jobs,
                                               aggregate_kind):
        kwargs = dict(customers=10, window=80, versions=25, num_samples=12,
                      m=2, base_seed=base_seed, aggregate_kind=aggregate_kind)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", n_jobs=n_jobs, backend="serial",
                              **kwargs))


class TestZeroCopyFallbackEquivalence:
    """The zero-copy data plane degrades by itself: when shared-memory
    allocation fails, payloads ship as whole pickles instead of segment
    descriptors.  That moves bytes between transports, never values — so
    a process-backend run forced onto the fallback must land on the same
    bits as the serial reference and as the shared-memory run."""

    _runner = TestLooperEquivalence()
    GIBBS = TestBackendMatrix.GIBBS

    @staticmethod
    def _refuse_allocation(monkeypatch):
        real_shared_memory = shm_module.shared_memory.SharedMemory

        def refuse_creation(*args, create=False, **kwargs):
            if create:
                raise OSError(errno.ENOSPC, "shared memory exhausted")
            return real_shared_memory(*args, create=create, **kwargs)

        monkeypatch.setattr(shm_module.shared_memory, "SharedMemory",
                            refuse_creation)

    @pytest.mark.parametrize("speculate_depth", [0, 4])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_gibbs_tail_fallback_equals_shm(self, monkeypatch,
                                            replenishment, speculate_depth):
        kwargs = dict(replenishment=replenishment,
                      speculate_depth=speculate_depth, **self.GIBBS)
        serial = self._runner._run("vectorized", backend="serial", **kwargs)
        shm_run = self._runner._run("vectorized", n_jobs=2,
                                    backend="process", **kwargs)
        self._refuse_allocation(monkeypatch)
        fallback = self._runner._run("vectorized", n_jobs=2,
                                     backend="process", **kwargs)
        _assert_identical(serial, shm_run)
        _assert_identical(shm_run, fallback)
        assert fallback.sharded_windows > 0
        assert leaked_segments() == []

    def test_monte_carlo_fallback_equals_shm(self, monkeypatch):
        serial = TestMonteCarloSharding._executor().run(120)
        options = ExecutionOptions(n_jobs=2, backend="process")
        shm_run = TestMonteCarloSharding._executor(options).run(120)
        self._refuse_allocation(monkeypatch)
        fallback = TestMonteCarloSharding._executor(options).run(120)
        TestMonteCarloSharding._assert_results_equal(serial, shm_run)
        TestMonteCarloSharding._assert_results_equal(serial, fallback)
        assert leaked_segments() == []


class TestWorkerStateReplay:
    """The worker-owned-state replay gate.

    Stateful workers never see a fresh snapshot after ``init_state``:
    their mirrors evolve solely through commit/clone notifications, and
    every window they serve — first *and* follow-up — is computed from
    the mirror.  The serial backend applies exactly that replay to a
    **pickled** mirror, so an under-specified notification stream
    diverges the mirror and breaks bit-identity right here, in-process,
    with no worker pool in the loop; the process-backend cases then hold
    the real pipe transport to the same bits.
    """

    _runner = TestLooperEquivalence()
    #: Rejection-heavy: a tight elite fraction makes versions burn many
    #: candidates, exhausting first windows and forcing worker-served
    #: follow-ups; the wide window keeps replenishment mostly out of the
    #: way so the mirrors live across all ``m * k`` sweeps.
    REJECTION_HEAVY = dict(customers=24, window=4000, versions=60,
                           num_samples=30, m=2, p_step=0.05, k=2,
                           base_seed=13)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_followup_windows_replay_identically(self, backend):
        serial = self._runner._run("vectorized", **self.REJECTION_HEAVY)
        worker = self._runner._run("vectorized", n_jobs=2, backend=backend,
                                   **self.REJECTION_HEAVY)
        _assert_identical(serial, worker)
        assert worker.followup_windows > 0  # rejection forced follow-ups…
        # …and they are counted on top of the per-sweep first windows.
        assert worker.sharded_windows > worker.followup_windows

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_followup_windows_replay_without_speculation(self, backend):
        """``speculate_depth=0``: every follow-up is a blocking owner
        call, none is served from a speculation chain."""
        serial = self._runner._run("vectorized", **self.REJECTION_HEAVY)
        worker = self._runner._run("vectorized", n_jobs=2, backend=backend,
                                   speculate_depth=0,
                                   **self.REJECTION_HEAVY)
        _assert_identical(serial, worker)
        assert worker.followup_windows > 0
        assert worker.speculated_windows == 0

    def test_process_shard_size_one_is_capped_and_identical(self):
        """``shard_size=1`` on the process transport must not pin many
        one-seed shards on one worker — that geometry can wedge a worker
        blocked on a large uncollected reply against the parent's commit
        casts (see ``ExecutionBackend.state_shard_limit``).  Ownership is
        repartitioned to one shard per worker, and since windows are
        computed per seed, the bits cannot move."""
        serial = self._runner._run("vectorized", **self.REJECTION_HEAVY)
        worker = self._runner._run("vectorized", n_jobs=2, backend="process",
                                   shard_size=1, **self.REJECTION_HEAVY)
        _assert_identical(serial, worker)
        assert worker.followup_windows > 0

    def test_replay_across_replenishments(self):
        """Replenishment invalidates the mirrors mid-run; the re-init +
        continued replay must still land on the serial bits."""
        kwargs = dict(customers=10, window=45, versions=40, m=2,
                      base_seed=5, k=2)
        serial = self._runner._run("vectorized", **kwargs)
        worker = self._runner._run("vectorized", n_jobs=2, backend="process",
                                   **kwargs)
        _assert_identical(serial, worker)
        assert worker.plan_runs > 1  # the mirrors were really re-initialized

    def test_notifications_actually_flow(self, monkeypatch):
        """White-box: the bits must come from the replay protocol — the
        mirror receives commit and clone notifications and serves the
        windows — not from a silent fallback to local evaluation."""
        from repro.core import gibbs_looper as gl
        counts = {"commit": 0, "clone": 0, "serve": 0}
        for name, key in (("apply_commit", "commit"),
                          ("apply_clone", "clone"),
                          ("serve_window", "serve")):
            original = getattr(gl.GibbsSeedShard, name)

            def wrapped(self, *args, _original=original, _key=key):
                counts[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(gl.GibbsSeedShard, name, wrapped)
        result = self._runner._run("vectorized", n_jobs=2, backend="serial",
                                   **self.REJECTION_HEAVY)
        assert counts["commit"] > 0
        assert counts["clone"] > 0  # the between-step elite overwrite
        assert counts["serve"] >= result.sharded_windows > 0

    @given(base_seed=st.integers(0, 10_000),
           n_jobs=st.integers(2, 4),
           shard_size=st.sampled_from([None, 1, 3]),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]),
           window=st.integers(60, 400))
    @settings(max_examples=10, deadline=None)
    def test_property_replay_bit_identical(self, base_seed, n_jobs,
                                           shard_size, aggregate_kind,
                                           window):
        """Random plans x random commit interleavings: every seed draws a
        different accept/reject/replenish path through the sweep, so the
        mirrors replay a different notification stream each example —
        all of them must land on the serial sweep's exact bits, for any
        shard geometry (down to one-seed shards)."""
        kwargs = dict(customers=10, window=window, versions=25,
                      num_samples=12, m=2, k=2, base_seed=base_seed,
                      aggregate_kind=aggregate_kind)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", n_jobs=n_jobs, backend="serial",
                              shard_size=shard_size, **kwargs))


class TestDeltaStateReinit:
    """Delta state re-init x speculation: the worker-owned state must
    survive delta replenishments through ``state_merge`` splices —
    per-version caches kept, only never-materialized window values
    shipped — and speculative follow-up prefetch must resolve windows
    from the speculation buffer, all at the serial sweep's exact bits.
    """

    _runner = TestLooperEquivalence()
    #: Replenishment-heavy: every sweep crosses several refuels, so a
    #: delta run exercises the splice path many times per query.
    HEAVY = dict(customers=12, window=60, versions=30, num_samples=15,
                 m=2, base_seed=9)

    @staticmethod
    def _run_skewed(n_jobs=1, backend="serial", speculate_depth=4):
        """Skew-rejection workload: a few extreme-variance seeds.

        Their versions burn thousands of candidates — long zero-accept
        window chains, exactly what the speculative prefetch predicts —
        while the cold majority keeps the plan replenishing normally.
        """
        catalog = Catalog()
        sigma = np.full(40, 0.25)
        sigma[:3] = 25.0
        catalog.add_table(Table("means", {
            "CID": np.arange(40),
            "m": np.linspace(0.8, 3.5, 40),
            "s": sigma}))
        spec = RandomTableSpec(
            name="Losses", parameter_table="means", vg=NORMAL,
            vg_params=(col("m"), col("s")),
            random_columns=(RandomColumnSpec("val"),),
            passthrough_columns=("CID",))
        params = TailParams(p=0.12 ** 2, m=2, n_steps=(40, 40),
                            p_steps=(0.12, 0.12))
        return GibbsLooper(
            random_table_pipeline(spec), catalog, params, 20,
            aggregate_kind="sum", aggregate_expr=col("val"),
            window=1200, base_seed=13, k=2,
            options=ExecutionOptions(
                n_jobs=n_jobs, backend=backend,
                speculate_depth=speculate_depth)).run()

    @pytest.mark.parametrize("speculate_depth", [0, 1, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reinit_matrix_equals_serial(self, backend, speculate_depth):
        serial = self._runner._run("vectorized", **self.HEAVY)
        sharded = self._runner._run(
            "vectorized", n_jobs=2, backend=backend,
            speculate_depth=speculate_depth, **self.HEAVY)
        _assert_identical(serial, sharded)
        assert sharded.plan_runs > 1  # the scenario must replenish
        # The state survived every refuel: one snapshot ship for the
        # whole query, one splice per replenishment.
        assert sharded.worker_state_inits == 1
        assert sharded.worker_state_merges == sharded.plan_runs - 1
        assert sharded.merged_positions > 0

    def test_full_replenishment_mode_disables_merging(self):
        """``replenishment="full"`` rebuilds the tuples, so the worker
        state must fall back to discard + re-init."""
        result = self._runner._run(
            "vectorized", n_jobs=2, backend="serial",
            replenishment="full", **self.HEAVY)
        _assert_identical(
            self._runner._run("vectorized", replenishment="full",
                              **self.HEAVY), result)
        assert result.worker_state_merges == 0
        assert result.worker_state_inits > 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_speculation_serves_windows_bit_identically(self, backend):
        serial = self._run_skewed()
        plain = self._run_skewed(n_jobs=2, backend=backend,
                                 speculate_depth=0)
        speculated = self._run_skewed(n_jobs=2, backend=backend)
        _assert_identical(serial, plain)
        _assert_identical(serial, speculated)
        assert plain.speculated_windows == 0
        assert speculated.speculated_windows > 0  # buffer really served
        assert speculated.followup_windows >= \
            speculated.speculated_windows

    def test_thread_backend_never_speculates(self):
        """The thread transport elides casts, so the owners never see
        the notification stream speculation depends on — it must be
        disabled there (results identical regardless)."""
        serial = self._run_skewed()
        threaded = self._run_skewed(n_jobs=2, backend="thread")
        _assert_identical(serial, threaded)
        assert threaded.speculated_windows == 0
        assert threaded.wasted_speculations == 0

    def test_merge_and_speculation_notifications_flow(self, monkeypatch):
        """White-box: the delta re-init and speculation paths must run —
        mirrors receive ``apply_merge`` splices, speculations are built
        by the owners, and consumed ones are acknowledged by notes."""
        from repro.core import gibbs_looper as gl
        counts = {"merge": 0, "speculate": 0, "note": 0}
        for name, key in (("apply_merge", "merge"),
                          ("_speculate", "speculate"),
                          ("note_speculation", "note")):
            original = getattr(gl.GibbsSeedShard, name)

            def wrapped(self, *args, _original=original, _key=key):
                counts[_key] += 1
                return _original(self, *args)

            monkeypatch.setattr(gl.GibbsSeedShard, name, wrapped)
        result = self._run_skewed(n_jobs=2, backend="serial")
        assert result.worker_state_merges > 0
        # apply_merge fires once per shard per survived replenishment.
        assert counts["merge"] >= result.worker_state_merges
        assert counts["speculate"] > 0
        assert counts["note"] == result.speculated_windows > 0

    def test_instantiate_exposes_merged_position_delta(self):
        """The relation/context-level ``fresh_slots`` must name exactly
        the slots whose positions were never materialized before."""
        from repro.engine.operators import ExecutionContext
        catalog, spec = _losses_catalog(6)
        plan = random_table_pipeline(spec)
        context = ExecutionContext(catalog, positions=40, aligned=False,
                                   base_seed=3)
        context.delta_tracking = True
        first = plan.execute(context)
        assert first.fresh_slots == {}  # full run: no delta to expose
        handles = sorted(
            int(h) for h in
            next(iter(first.rand_columns.values())).seed_handles)
        old = {h: context.positions_for(h) for h in handles}
        # Replenishment-style re-run: keep a few "assigned" positions,
        # extend past the old window.
        context.positions = 50
        context.position_plan = {
            h: np.concatenate([np.arange(3, dtype=np.int64),
                               np.arange(35, 82, dtype=np.int64)])
            for h in handles}
        context.delta_mode = True
        context.last_fresh_slots = {}
        merged = plan.execute(context)
        context.delta_mode = False
        assert set(merged.fresh_slots) == set(handles)
        for h in handles:
            new = context.positions_for(h)
            expected = np.nonzero(~np.isin(new, old[h]))[0]
            np.testing.assert_array_equal(merged.fresh_slots[h], expected)
            np.testing.assert_array_equal(
                context.last_fresh_slots[h], expected)

    @given(base_seed=st.integers(0, 10_000),
           n_jobs=st.integers(2, 4),
           shard_size=st.sampled_from([None, 1, 3]),
           speculate_depth=st.sampled_from([0, 1, 4]),
           window=st.integers(60, 400))
    @settings(max_examples=10, deadline=None)
    def test_property_delta_reinit_bit_identical(self, base_seed, n_jobs,
                                                 shard_size, speculate_depth,
                                                 window):
        """Random refuel/commit interleavings: every example splices a
        different never-materialized set into the mirrors (and draws a
        different speculation pattern) — all must land on the serial
        sweep's exact bits, for any shard geometry."""
        kwargs = dict(customers=10, window=window, versions=25,
                      num_samples=12, m=2, k=2, base_seed=base_seed)
        _assert_identical(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", n_jobs=n_jobs, backend="serial",
                              shard_size=shard_size,
                              speculate_depth=speculate_depth, **kwargs))


class TestSpeculationChains:
    """``speculate_depth``: K-deep speculative window chains and adaptive
    sweep scheduling are pure transport — chain entries are consumed only
    on an exact ``(params, epoch)`` match, hot seeds are served first only
    within the bit-identity rules, and commit notifications are batched
    but never reordered within a seed's dependency chain — so every depth
    must land on the serial sweep's exact bits.
    """

    _runner = TestLooperEquivalence()
    HEAVY = TestBackendMatrix.GIBBS

    @staticmethod
    def _run_chain(n_jobs=1, backend="serial", speculate_depth=4,
                   base_seed=2026, shard_size=None):
        """Deep-tail (m=3) workload with one extreme-variance hot seed.

        The final conditioning step accepts ~1 candidate in tens of
        thousands for the hot seed, so its versions scan long streaks of
        entirely-rejected windows — pressure builds past the adaptive
        gate and the owner's chain really deepens past one entry.
        """
        catalog = Catalog()
        sigma = np.full(8, 0.25)
        sigma[0] = 80.0
        catalog.add_table(Table("means", {
            "CID": np.arange(8),
            "m": np.linspace(0.8, 3.5, 8),
            "s": sigma}))
        spec = RandomTableSpec(
            name="Losses", parameter_table="means", vg=NORMAL,
            vg_params=(col("m"), col("s")),
            random_columns=(RandomColumnSpec("val"),),
            passthrough_columns=("CID",))
        params = TailParams(p=0.03 ** 3, m=3, n_steps=(34,) * 3,
                            p_steps=(0.03,) * 3)
        return GibbsLooper(
            random_table_pipeline(spec), catalog, params, 8,
            aggregate_kind="sum", aggregate_expr=col("val"),
            window=30000, base_seed=base_seed, k=1, max_proposals=30000,
            options=ExecutionOptions(
                n_jobs=n_jobs, backend=backend, window_growth=2.0,
                speculate_depth=speculate_depth,
                shard_size=shard_size)).run()

    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("speculate_depth", [0, 1, 4])
    def test_chain_matrix_equals_serial(self, speculate_depth, backend,
                                        replenishment):
        """The depth x backend x replenishment matrix on the
        replenishment-heavy workload: ``"full"`` refuels discard and
        re-ship the worker state, ``"delta"`` refuels splice it."""
        serial = self._runner._run("vectorized", replenishment=replenishment,
                                   **self.HEAVY)
        sharded = self._runner._run(
            "vectorized", n_jobs=2, backend=backend,
            replenishment=replenishment,
            speculate_depth=speculate_depth, **self.HEAVY)
        _assert_identical(serial, sharded)
        assert sharded.plan_runs > 1  # the scenario must replenish
        if speculate_depth == 0:
            assert sharded.speculated_windows == 0
            assert sharded.speculation_chain_depth == 0

    def test_depth_one_caps_chains_at_one_window(self):
        result = TestDeltaStateReinit._run_skewed(
            n_jobs=2, backend="serial", speculate_depth=1)
        _assert_identical(TestDeltaStateReinit._run_skewed(), result)
        assert result.speculated_windows > 0
        assert result.speculation_chain_depth == 1

    def test_depth_zero_disables_speculation(self):
        result = TestDeltaStateReinit._run_skewed(
            n_jobs=2, backend="serial", speculate_depth=0)
        _assert_identical(TestDeltaStateReinit._run_skewed(), result)
        assert result.speculated_windows == 0
        assert result.wasted_speculations == 0
        assert result.speculation_chain_depth == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_deep_chains_flow_bit_identically(self, backend):
        serial = self._run_chain()
        deep = self._run_chain(n_jobs=2, backend=backend,
                               speculate_depth=4)
        np.testing.assert_array_equal(serial.samples, deep.samples)
        assert serial.assignments == deep.assignments
        assert deep.speculation_chain_depth >= 2  # chains really deepen
        assert deep.speculated_windows > 0
        assert deep.batched_notifications > 0

    @pytest.mark.slow
    @given(speculate_depth=st.integers(0, 8),
           base_seed=st.integers(0, 10_000),
           shard_size=st.sampled_from([None, 1, 3]))
    @settings(max_examples=10, deadline=None)
    def test_property_chain_replay_bit_identical(self, speculate_depth,
                                                 base_seed, shard_size):
        """Random depths x seeds over the serial backend's pickled
        mirror: every example draws a different rejection path, so the
        owners build, partially consume, and invalidate different chains
        — chain prefixes serve only while the all-rejected premise holds,
        epoch bumps kill whole chains — and every replay must land on the
        unsharded sweep's exact bits."""
        reference = self._run_chain(base_seed=base_seed)
        replayed = self._run_chain(
            n_jobs=2, backend="serial", base_seed=base_seed,
            speculate_depth=speculate_depth, shard_size=shard_size)
        np.testing.assert_array_equal(reference.samples, replayed.samples)
        assert reference.assignments == replayed.assignments
        assert reference.plan_runs == replayed.plan_runs

    def test_chain_prefix_serves_and_epoch_bump_kills(self, monkeypatch):
        """White-box on the owner: a follow-up that matches the chain
        head is served the buffered matrices (the prefix premise held);
        any mismatch — or a commit's epoch bump — leaves no stale-epoch
        entry behind, ever."""
        from repro.core import gibbs_looper as gl
        hits = []
        orig_serve = gl.GibbsSeedShard.serve_followup

        def serve(self, handle, first_version, count, start, stop, epoch,
                  first=False):
            before = list(self._speculation.get(handle, ()))
            out = orig_serve(self, handle, first_version, count, start,
                             stop, epoch, first=first)
            if before and not first:
                key = (first_version, count, start, stop)
                if before[0][0] == key and before[0][1] == epoch:
                    hits.append(len(before))
                    # the chain head's buffered matrices were served
                    assert out[0] is before[0][2]
            # hit, miss, or re-speculation: whatever survives carries
            # the request's epoch — stale entries never linger
            assert all(entry[1] == epoch
                       for entry in self._speculation.get(handle, ()))
            return out

        orig_commit = gl.GibbsSeedShard.apply_commit

        def commit(self, handle, versions, indices, values, present,
                   epoch=0):
            orig_commit(self, handle, versions, indices, values, present,
                        epoch)
            # the bump killed every pre-commit entry; any rebuilt chain
            # is anchored on the committed epoch
            assert all(entry[1] == epoch
                       for entry in self._speculation.get(handle, ()))

        monkeypatch.setattr(gl.GibbsSeedShard, "serve_followup", serve)
        monkeypatch.setattr(gl.GibbsSeedShard, "apply_commit", commit)
        result = self._run_chain(n_jobs=2, backend="serial",
                                 speculate_depth=4)
        assert result.speculated_windows > 0
        assert hits  # the chain-head fast path really served windows
        assert max(hits) >= 2  # ...from a chain deeper than one entry

    def test_adaptive_never_reorders_commits_within_a_seed(
            self, monkeypatch):
        """White-box: hot-seed-first scatter ordering and per-segment
        commit batching may interleave *different* seeds' notifications
        differently, but each seed's commit stream — its Gauss-Seidel
        dependency chain — must reach the owner in exactly the order the
        sweep issued it, with strictly increasing epochs."""
        from repro.core import gibbs_looper as gl
        issued, delivered = {}, {}

        def record(streams, handle, versions, indices, values, present,
                   epoch):
            streams.setdefault(handle, []).append(
                (epoch, versions.tobytes(), indices.tobytes(),
                 values.tobytes(), present.tobytes()))

        orig_cast = gl.GibbsLooper._cast_commit

        def cast(self, shard, *args):
            record(issued, *args)
            orig_cast(self, shard, *args)

        orig_commit = gl.GibbsSeedShard.apply_commit

        def commit(self, handle, versions, indices, values, present,
                   epoch=0):
            record(delivered, handle, versions, indices, values, present,
                   epoch)
            orig_commit(self, handle, versions, indices, values, present,
                        epoch)

        monkeypatch.setattr(gl.GibbsLooper, "_cast_commit", cast)
        monkeypatch.setattr(gl.GibbsSeedShard, "apply_commit", commit)
        result = TestDeltaStateReinit._run_skewed(n_jobs=2,
                                                  backend="serial")
        assert result.batched_notifications > 0  # batching really ran
        assert delivered  # commits really flowed
        for stream in delivered.values():
            epochs = [entry[0] for entry in stream]
            assert epochs == sorted(epochs)
            assert len(set(epochs)) == len(epochs)
        # Batching and hot-first serving moved nothing within a seed.
        assert delivered == issued


class TestWindowGrowth:
    """``window_growth`` must change only the replenishment schedule.

    Window sizing never changes which candidate is accepted — the
    consumption pointer resumes across refuels — so samples, assignments
    and acceptance statistics stay bit-identical while the refuel count
    drops.
    """

    _runner = TestLooperEquivalence()
    #: ROADMAP's lever: a window barely above the population refuels
    #: dozens of times at fixed size.
    HEAVY = dict(customers=10, window=45, versions=40, m=2, base_seed=5)

    @staticmethod
    def _assert_same_samples(a, b):
        assert a.quantile_estimate == b.quantile_estimate
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.assignments == b.assignments
        stats_a, stats_b = a.total_stats, b.total_stats
        assert (stats_a.proposals, stats_a.acceptances, stats_a.stalls) == \
            (stats_b.proposals, stats_b.acceptances, stats_b.stalls)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_growth_preserves_results_and_cuts_refuels(self, engine):
        flat = self._runner._run(engine, **self.HEAVY)
        grown = self._runner._run(engine, window_growth=2.0, **self.HEAVY)
        self._assert_same_samples(flat, grown)
        assert flat.plan_runs > 2  # the scenario must refuel repeatedly
        assert grown.plan_runs < flat.plan_runs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_composes_with_seed_sharding(self, backend):
        flat = self._runner._run("vectorized", **self.HEAVY)
        grown = self._runner._run("vectorized", window_growth=1.5,
                                  n_jobs=2, backend=backend, **self.HEAVY)
        self._assert_same_samples(flat, grown)
        assert grown.plan_runs < flat.plan_runs

    @given(growth=st.sampled_from([1.3, 2.0, 3.0]),
           base_seed=st.integers(0, 1_000))
    @settings(max_examples=6, deadline=None)
    def test_property_growth_invariance(self, growth, base_seed):
        kwargs = dict(customers=10, window=50, versions=30, num_samples=15,
                      m=2, base_seed=base_seed)
        self._assert_same_samples(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", window_growth=growth, **kwargs))
