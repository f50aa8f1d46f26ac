"""Top-level session: catalog + statement execution.

A :class:`Session` is the public face of the system.  Typical flow, exactly
mirroring Sec. 2 of the paper::

    session = Session(base_seed=42)
    session.add_table("means", {"CID": ..., "m": ...})
    session.execute('''
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal''')
    output = session.execute('''
        SELECT SUM(val) AS totalLoss FROM Losses
        WHERE CID < 10010
        WITH RESULTDISTRIBUTION MONTECARLO(100)
        DOMAIN totalLoss >= QUANTILE(0.99)
        FREQUENCYTABLE totalLoss''')
    output.tail.quantile_estimate        # the estimated 0.99-quantile
    session.execute("SELECT MIN(totalLoss) FROM FTABLE")  # same thing
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.gibbs_looper import LooperResult
from repro.engine.backends import make_backend
from repro.engine.det_cache import (
    ContextDetCache, NullDetCache, SessionDetCache, classify_moves)
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import Col
from repro.engine.mcdb import MonteCarloResult
from repro.engine.operators import (
    ExecutionContext, appends_keep_prefix)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql.ast_nodes import CreateRandomTable, SelectStmt
from repro.sql.parser import parse
from repro.sql.planner import (
    compile_select, describe_compiled, monte_carlo_executor, tail_looper)
from repro.vg.base import VGRegistry, default_registry

__all__ = ["Session", "QueryOutput", "StandingQuery"]

FTABLE_NAME = "FTABLE"


@dataclass
class QueryOutput:
    """Result of ``Session.execute``.

    Exactly one of the payload fields is set, per statement kind:
    ``rows`` for deterministic SELECTs, ``distributions`` for plain
    ``MONTECARLO`` queries, ``tail`` for ``DOMAIN ... QUANTILE`` queries.
    """

    kind: str  # "create" | "rows" | "montecarlo" | "tail"
    rows: Table | None = None
    distributions: MonteCarloResult | None = None
    tail: LooperResult | None = None

    def __repr__(self):
        payload = self.rows or self.distributions or self.tail or ""
        return f"QueryOutput({self.kind}, {payload!r})"


class StandingQuery:
    """A registered risk query whose estimate follows the data.

    Created by :meth:`Session.standing_query`.  The statement is parsed
    and compiled **once**; :attr:`result` always holds the latest
    :class:`QueryOutput`, and :meth:`refresh` brings it up to date with
    the catalog.  A refresh is classified exactly like a det-cache entry
    (:func:`~repro.engine.det_cache.classify_moves`):

    * nothing moved — a no-op;
    * every moved dependency grew append-only *and* the plan is
      prefix-stable under that growth
      (:func:`~repro.engine.operators.appends_keep_prefix`) — an
      incremental **delta** refresh: the retained execution context
      extends its materialized stream windows to just the appended
      tuples' positions, and either the Monte Carlo accumulators fold
      only ``rows[prev:]`` in or the Gibbs looper re-enters over the
      delta-extended windows;
    * anything else — a full re-execution from scratch.

    Every mode returns a result bit-identical to a fresh session running
    the same statement against the current catalog — streams are pure
    functions of ``(base_seed, handle, position)`` and appended rows get
    the exact handles/positions a fresh run would assign them, so
    incrementality is purely an execution-cost optimization.

    Handles are not thread-safe on their own; :meth:`refresh` serializes
    on the owning session's single-flight lock like any statement.
    """

    def __init__(self, session: "Session", sql: str):
        statement = parse(sql)
        if not isinstance(statement, SelectStmt):
            raise PlanError("standing queries must be SELECT statements")
        spec = statement.result_spec
        if spec is None:
            raise PlanError(
                "standing queries need a WITH RESULTDISTRIBUTION "
                "MONTECARLO(n) clause; deterministic SELECTs have nothing "
                "to keep fresh")
        if spec.frequency_table:
            raise PlanError(
                "standing queries cannot register a FREQUENCYTABLE: each "
                "refresh would mutate the catalog and invalidate every "
                "other query; issue a one-shot execute() instead")
        self._session = session
        self.sql = sql
        self._spec = spec
        self._tail_mode = spec.domain is not None
        self.kind = "tail" if self._tail_mode else "montecarlo"
        with session._execute_lock:
            self._compiled = compile_select(
                statement, session.catalog, tail_mode=self._tail_mode)
            if not self._tail_mode:
                # Bound once for its group/aggregate folding helpers; the
                # plan itself runs on the retained context, never through
                # executor.run().
                self._executor = monte_carlo_executor(
                    self._compiled, session.catalog,
                    base_seed=session.base_seed, options=session.options)
            #: Retained across delta refreshes: the context whose
            #: materialized Instantiate windows the next run extends.
            self._context: ExecutionContext | None = None
            self._states: dict | None = None
            self._relation_length = 0
            self._versions: dict[str, int] = {}
            self.result: QueryOutput | None = None
            self.refreshes = 0
            self.last_rows_computed = 0
            self.last_rows_reused = 0
            self._run(delta=False)
            self.last_mode = "initial"

    def refresh(self) -> QueryOutput:
        """Bring :attr:`result` up to date with the catalog."""
        session = self._session
        with session._execute_lock:
            verdict, appends = classify_moves(
                session.catalog, self._versions)
            if verdict == "clean":
                self.last_mode = "noop"
                self.last_rows_computed = 0
                self.last_rows_reused = 0
                return self.result
            delta = (verdict == "appends"
                     and appends_keep_prefix(self._compiled.plan, appends))
            self._run(delta=delta)
            self.refreshes += 1
            self.last_mode = "delta" if delta else "full"
            return self.result

    def stats(self) -> dict:
        """Refresh accounting: mode of the last refresh and how many
        relation rows its Instantiates gathered from the streams vs.
        served from retained windows."""
        return {
            "kind": self.kind,
            "refreshes": self.refreshes,
            "last_mode": self.last_mode,
            "last_rows_computed": self.last_rows_computed,
            "last_rows_reused": self.last_rows_reused,
        }

    # -- internals --------------------------------------------------------

    def _run(self, delta: bool) -> None:
        session = self._session
        if not delta:
            self._context = None
            self._states = None
            self._relation_length = 0
        self.result = (self._run_tail() if self._tail_mode
                       else self._run_mc())
        catalog = session.catalog
        self._versions = {name: catalog.table_version(name)
                          for name in self._compiled.plan.base_tables()}

    def _reset_det_cache(self, context: ExecutionContext) -> None:
        """Re-point a retained context at a current det-cache tier.

        The session tier validates its entries per lookup, so it can be
        kept; ``"context"``/``"off"`` tiers have no version validation
        and must not serve pre-append deterministic relations, so they
        are rebuilt fresh for every refresh.
        """
        fresh = self._session._det_cache_for_run()
        context.det_cache = fresh if fresh is not None else ContextDetCache()

    def _run_mc(self) -> QueryOutput:
        session = self._session
        context = self._context
        if context is None:
            context = ExecutionContext(
                session.catalog, positions=self._spec.montecarlo,
                aligned=True, base_seed=session.base_seed,
                det_cache=session._det_cache_for_run())
            context.delta_tracking = True
            self._context = context
        else:
            self._reset_det_cache(context)
        start_row = self._relation_length
        computed = context.instantiate_rows_computed
        reused = context.instantiate_rows_reused
        context.delta_mode = start_row > 0
        context.last_fresh_slots = {}
        try:
            relation = self._compiled.plan.execute(context)
        finally:
            context.delta_mode = False
        context.plan_runs += 1
        if relation.length < start_row:
            raise EngineError(
                "standing-query delta refresh shrank the relation "
                f"({relation.length} < {start_row}); the append "
                "classification admitted a rewrite")
        self.last_rows_computed = context.instantiate_rows_computed - computed
        self.last_rows_reused = context.instantiate_rows_reused - reused
        self._states = self._executor.fold_states(
            relation, self._states, start_row=start_row)
        self._relation_length = relation.length
        result = self._executor.result_from_states(
            self._states, self._spec.montecarlo)
        return QueryOutput(kind="montecarlo", distributions=result)

    def _run_tail(self) -> QueryOutput:
        session = self._session
        context = self._context
        if context is None:
            # positions/aligned are placeholders: the looper re-stamps the
            # injected context for its own window on entry.
            context = ExecutionContext(
                session.catalog, positions=1, aligned=False,
                base_seed=session.base_seed,
                det_cache=session._det_cache_for_run())
            self._context = context
        else:
            self._reset_det_cache(context)
        computed = context.instantiate_rows_computed
        reused = context.instantiate_rows_reused
        looper = tail_looper(
            self._compiled, session.catalog, self._spec,
            tail_budget=session.tail_budget,
            window=session.window,
            gibbs_steps=session.gibbs_steps,
            base_seed=session.base_seed,
            options=session.options,
            det_cache=session._det_cache_for_run(),
            backend=session._backend_for_run(),
            context=context)
        result = looper.run()
        self.last_rows_computed = context.instantiate_rows_computed - computed
        self.last_rows_reused = context.instantiate_rows_reused - reused
        return QueryOutput(kind="tail", tail=result)


class Session:
    """An MCDB-R session: catalog, VG registry and execution policy.

    Parameters
    ----------
    base_seed:
        Session PRNG seed; every stream derives deterministically from it.
    tail_budget:
        Total bootstrap sample budget ``N`` handed to the Appendix C
        parameter chooser for ``DOMAIN ... QUANTILE`` queries.
    window:
        Stream values materialized per TS-seed per plan run (Sec. 5/9).
    gibbs_steps:
        ``k``, Gibbs sweeps per bootstrapping iteration.
    options:
        :class:`~repro.engine.options.ExecutionOptions` threaded into both
        executors: ``engine`` picks the Gibbs kernel
        (``"vectorized"``/``"reference"``), ``n_jobs``/``backend`` shard
        Monte Carlo repetitions and tail-mode candidate windows across
        workers.  Results are identical for every setting; only speed
        changes.  Assignable after construction — see the
        :attr:`options` property for what follows the change.
    shared_backend:
        A server-owned :class:`~repro.engine.backends.SharedBackend`
        this session should run its sharded work on instead of spawning
        its own pool.  The session uses it but never closes it; pool
        knobs become immutable for the life of the attachment.

    With ``n_jobs > 1`` the session owns a persistent shard backend —
    under ``backend="process"`` a pool of worker processes spawned on the
    first sharded query and reused by every later one, with the catalog
    broadcast to each worker once per
    :attr:`~repro.engine.table.Catalog.version`.  Tail queries
    additionally pin per-query *worker-owned Gibbs seed state* on the
    pool: each worker keeps its TS-seed handle range's tuples/states
    across sweeps and is kept in sync by commit notifications; that
    state even survives delta replenishments — each owner receives a
    ``state_merge`` splice carrying only the never-materialized window
    values, so the snapshot ships once per *query*, not once per refuel
    — and (``speculate_depth > 0``) the owners of rejection-heavy seeds
    pre-compute the sweep's next candidate windows so follow-ups resolve
    from a speculation buffer instead of a blocking state call.  That
    state is scoped strictly to one query — the looper discards it (a
    drain barrier) before returning, so the persistent pool never
    carries stale seed state or in-flight replies across queries,
    catalog mutations (``Catalog.version`` bumps), or a
    :meth:`close`/respawn cycle.  Call :meth:`close` (or use the session
    as a context manager) to release the pool::

        with Session(options=ExecutionOptions(n_jobs=4)) as session:
            ...
    """

    #: Knobs that configure the lazily spawned worker pool.  Changing any
    #: of them through the :attr:`options` setter while a session-owned
    #: pool is live closes that pool so the next sharded query respawns
    #: it under the new configuration.
    _BACKEND_KNOBS = ("backend", "n_jobs", "join_timeout")

    def __init__(self, base_seed: int = 0, registry: VGRegistry | None = None,
                 tail_budget: int = 1000, window: int = 1000,
                 gibbs_steps: int = 1,
                 options: ExecutionOptions | None = None,
                 shared_backend=None):
        self.catalog = Catalog()
        self.registry = registry or default_registry
        self.base_seed = base_seed
        self.tail_budget = tail_budget
        self.window = window
        self.gibbs_steps = gibbs_steps
        self._options = options or ExecutionOptions()
        #: Cross-query deterministic sub-plan cache (``det_cache="session"``,
        #: the default): materialized deterministic relations keyed by
        #: structural plan fingerprint and validated against the per-name
        #: catalog versions of the tables their subtree scans — a
        #: mutation invalidates only dependent entries, and :meth:`append`
        #: refreshes them by splicing the new rows in.
        self.det_cache = SessionDetCache()
        #: Persistent shard backend (``n_jobs > 1``).  Session-owned by
        #: default (built lazily on the first sharded query, kept until
        #: :meth:`close`); a server injects a *shared* backend instead —
        #: one pool multiplexed across tenant sessions — which the
        #: session uses but never closes.
        self._backend = shared_backend
        self._owns_backend = shared_backend is None
        #: Single-flight guard: one statement executes at a time per
        #: session (see :meth:`execute`).  Re-entrant so close/lifecycle
        #: helpers can be called from within an executing thread.
        self._execute_lock = threading.RLock()
        #: Live standing queries (weak: dropping the handle unregisters
        #: it).  Only consulted as a compaction floor — their recorded
        #: dependency versions keep the catalog's append journal from
        #: discarding links a pending delta refresh still needs.
        self._standing: list[weakref.ref] = []

    # -- execution policy ------------------------------------------------------

    @property
    def options(self) -> ExecutionOptions:
        """The session's :class:`~repro.engine.options.ExecutionOptions`.

        Assignable: dependent state follows the change instead of
        silently staying frozen at first use: changing any pool knob
        (``backend``/``n_jobs``/``join_timeout``) closes a live
        session-owned pool so the next sharded query respawns it with the
        new configuration.  A session running on a *shared* backend (a
        server-owned pool) refuses pool-knob changes with
        :class:`~repro.engine.errors.EngineError` — it must not
        reconfigure a pool other tenants are using.
        """
        return self._options

    @options.setter
    def options(self, new: ExecutionOptions) -> None:
        if not isinstance(new, ExecutionOptions):
            raise EngineError(
                f"Session.options must be an ExecutionOptions, got "
                f"{type(new).__name__}")
        with self._execute_lock:
            old = self._options
            pool_moved = any(
                getattr(new, knob) != getattr(old, knob)
                for knob in self._BACKEND_KNOBS)
            if pool_moved and self._backend is not None:
                if not self._owns_backend:
                    raise EngineError(
                        "cannot change backend options "
                        f"({'/'.join(self._BACKEND_KNOBS)}) on a session "
                        "using a shared backend; reconfigure the owning "
                        "server instead")
                self._backend.close()
                self._backend = None
            self._options = new

    # -- worker-pool lifecycle -------------------------------------------------

    @property
    def backend(self):
        """The session's shard backend, or ``None`` if none is live."""
        return self._backend

    def _backend_for_run(self):
        """The persistent backend handed to executors (``None`` unsharded)."""
        if not self.options.sharded:
            return None
        if self._backend is None:
            self._backend = make_backend(self.options)
            self._owns_backend = True
        return self._backend

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the session stays usable —
        a later sharded query simply spawns a fresh pool).  Any
        worker-owned Gibbs state dies with the workers: state tokens from
        before the close can never resolve against the respawned pool.
        On the process backend this also unlinks every shared-memory
        segment of the zero-copy data plane — exiting the session's
        ``with`` block leaves ``/dev/shm`` clean even on an exception.

        A session handed a *shared* backend detaches from it without
        closing it: the owning server decides when the pool dies.

        The det-cache deliberately survives a close (the session stays
        usable, and its cached deterministic relations are still valid);
        call :meth:`reset_cache` to release those relations too — a
        server evicting a tenant does both.
        """
        with self._execute_lock:
            if self._backend is not None:
                if self._owns_backend:
                    self._backend.close()
                self._backend = None

    def reset_cache(self) -> None:
        """Drop every cached deterministic relation (idempotent).

        :meth:`close` releases the worker pool but keeps the det-cache —
        the relations are still valid and a respawned pool benefits from
        them.  Eviction is different: a server removing a tenant must
        free that tenant's materialized relations *now*, not when the
        session object happens to be garbage collected, so its eviction
        path calls ``close()`` + ``reset_cache()``.
        """
        with self._execute_lock:
            self.det_cache.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _det_cache_for_run(self):
        """The cache object handed to executors under the current options.

        ``None`` tells the execution context to build its own per-context
        cache (mode ``"context"``, the seed behavior).
        """
        mode = self.options.det_cache
        if mode == "session":
            return self.det_cache
        if mode == "off":
            return NullDetCache()
        return None

    # -- data definition -------------------------------------------------------

    def add_table(self, name: str, columns: Mapping[str, Sequence]) -> Table:
        """Register a deterministic base table from column data.

        Serialized against :meth:`execute` (same single-flight lock): a
        mutation never lands in the middle of a running statement's
        replenishment re-runs.
        """
        with self._execute_lock:
            return self.catalog.add_table(Table(name, columns))

    def append(self, name: str, rows) -> tuple[int, int]:
        """Append rows to a base table (column mapping or row dicts).

        The append is journaled in the catalog, so cached deterministic
        subtrees over the table are *refreshed* — the new rows spliced
        into the cached relations — rather than recomputed, and entries
        over other tables are untouched.  Returns ``(old_row_count,
        new_row_count)``.
        Rejections are typed and transactional
        (:class:`~repro.engine.errors.CatalogError`, nothing mutated);
        like :meth:`add_table`, the append serializes against running
        statements.

        After journaling, append-journal links every consumer has already
        refreshed past are compacted away, so a long-lived session
        appending forever keeps a bounded journal (satellite of the
        table-granular invalidation work; see
        :meth:`~repro.engine.table.Catalog.compact_append_journal`).
        """
        with self._execute_lock:
            result = self.catalog.append(name, rows)
            self._compact_append_journal(name)
            return result

    def _compact_append_journal(self, name: str) -> None:
        """Drop journal links below every consumer's recorded version.

        Consumers are det-cache entries depending on ``name`` and live
        standing queries; each records the per-name version it last
        refreshed at, and ``min`` of those is the oldest version any
        delta path may still splice forward from.  With no consumers the
        whole journal for the name is droppable — nothing will ever walk
        it, and a future consumer records the current version.
        """
        key = name.lower()
        floors = []
        cache_floor = self.det_cache.low_water(key)
        if cache_floor is not None:
            floors.append(cache_floor)
        for ref in list(self._standing):
            query = ref()
            if query is None:
                self._standing.remove(ref)
                continue
            recorded = query._versions.get(key)
            if recorded is not None:
                floors.append(recorded)
        keep_from = min(floors) if floors else self.catalog.table_version(key)
        self.catalog.compact_append_journal(key, keep_from)

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str) -> QueryOutput:
        """Parse and execute one statement.

        **Re-entrancy contract**: execution is single-flight per session
        — a process-wide re-entrant lock serializes concurrent
        :meth:`execute` calls from multiple threads (the risk server's
        tenant sessions lean on this), so interleaved callers observe
        the same results, in the same per-caller order, as any serial
        schedule of the same statements.  The engine's bit-identity
        contract makes the remaining schedule freedom invisible: a
        statement's output depends only on the catalog contents and
        ``base_seed``, never on which query warmed a cache or pool
        first.  Statements that *mutate* the catalog (``CREATE TABLE``,
        ``FTABLE`` registration) are atomic under the same lock.
        """
        with self._execute_lock:
            statement = parse(sql)
            if isinstance(statement, CreateRandomTable):
                return self._execute_create(statement)
            return self._execute_select(statement)

    def standing_query(self, sql: str) -> StandingQuery:
        """Register a standing risk query and run it once.

        Returns a :class:`StandingQuery` handle: ``handle.result`` holds
        the latest :class:`QueryOutput` and ``handle.refresh()`` after
        :meth:`append` recomputes only the delta (a full re-execution
        only when a dependency was rewritten), always bit-identical to a
        fresh session running the statement on the current catalog.  The
        statement must carry a ``WITH RESULTDISTRIBUTION MONTECARLO(n)``
        clause and no ``FREQUENCYTABLE``.
        """
        with self._execute_lock:
            query = StandingQuery(self, sql)
            self._standing.append(weakref.ref(query))
            return query

    def explain(self, sql: str, det_markers: bool = False) -> str:
        """Return the physical plan for a SELECT, leaf-last like Fig. 2.

        Tail queries additionally show the pulled-up predicate and the
        aggregate the GibbsLooper will drive.  ``det_markers`` flags the
        deterministic subtree roots the det-cache tiers serve without
        re-execution (with the base tables each depends on), and appends
        the session cache's counters (:meth:`cache_stats`).
        """
        statement = parse(sql)
        if not isinstance(statement, SelectStmt):
            raise PlanError("EXPLAIN applies to SELECT statements")
        spec = statement.result_spec
        tail_mode = spec is not None and spec.domain is not None
        compiled = compile_select(statement, self.catalog, tail_mode=tail_mode)
        text = describe_compiled(compiled, tail_mode=tail_mode,
                                 det_markers=det_markers)
        if det_markers:
            stats = self.cache_stats()
            text += ("\ndet-cache: entries={entries} "
                     "hits={hits} misses={misses} "
                     "invalidations={invalidations} "
                     "partial-invalidations={partial_invalidations} "
                     "append-refreshes={append_refreshes}").format(**stats)
        return text

    def cache_stats(self) -> dict:
        """Session det-cache counters: ``entries``, ``hits``,
        ``misses``, ``invalidations`` (whole-cache drops),
        ``partial_invalidations`` (single entries whose dependencies moved
        non-append-only) and ``append_refreshes`` (entries refreshed in
        place by splicing appended rows)."""
        return self.det_cache.stats()

    def _execute_create(self, statement: CreateRandomTable) -> QueryOutput:
        vg = self.registry.lookup(statement.vg_name)
        parameter_table = self.catalog.table(statement.parameter_table)
        passthrough: list[str] = []
        random_names: list[str] = []
        star = f"{statement.vg_alias}.*"
        header = list(statement.columns)
        consumed = 0
        for item in statement.select_items:
            if item == star or item.startswith(f"{statement.vg_alias}."):
                remaining = header[consumed:]
                if item == star:
                    random_names.extend(remaining)
                    consumed = len(header)
                else:
                    random_names.append(header[consumed])
                    consumed += 1
            else:
                if item not in parameter_table:
                    raise PlanError(
                        f"{item!r} is neither a parameter column of "
                        f"{statement.parameter_table!r} nor a VG output")
                if header[consumed] != item and header[consumed] not in item:
                    # Header name wins; SELECT order defines the mapping.
                    pass
                passthrough.append(header[consumed])
                consumed += 1
        if consumed != len(header):
            raise PlanError(
                f"CREATE TABLE header lists {len(header)} columns but the "
                f"SELECT produces {consumed}")
        spec = RandomTableSpec(
            name=statement.name,
            parameter_table=statement.parameter_table,
            vg=vg,
            vg_params=statement.vg_args,
            random_columns=tuple(
                RandomColumnSpec(name, component)
                for component, name in enumerate(random_names)),
            passthrough_columns=tuple(passthrough))
        self.catalog.add_random_table(spec)
        return QueryOutput(kind="create")

    def _execute_select(self, statement: SelectStmt) -> QueryOutput:
        spec = statement.result_spec
        tail_mode = spec is not None and spec.domain is not None
        compiled = compile_select(statement, self.catalog, tail_mode=tail_mode)

        if spec is None:
            if compiled.has_random_input:
                raise PlanError(
                    "querying an uncertain table requires a WITH "
                    "RESULTDISTRIBUTION MONTECARLO(n) clause")
            return self._run_deterministic(compiled)

        if spec.domain is None:
            result = monte_carlo_executor(
                compiled, self.catalog,
                base_seed=self.base_seed,
                options=self.options,
                det_cache=self._det_cache_for_run(),
                backend=self._backend_for_run()).run(spec.montecarlo)
            if spec.frequency_table:
                self._register_ftable(
                    spec.frequency_table,
                    result.distribution(spec.frequency_table).frequency_table())
            return QueryOutput(kind="montecarlo", distributions=result)

        return self._run_tail(compiled, statement, spec)

    def _run_tail(self, compiled, statement: SelectStmt, spec) -> QueryOutput:
        looper = tail_looper(
            compiled, self.catalog, spec,
            tail_budget=self.tail_budget,
            window=self.window,
            gibbs_steps=self.gibbs_steps,
            base_seed=self.base_seed,
            options=self.options,
            det_cache=self._det_cache_for_run(),
            backend=self._backend_for_run())
        result = looper.run()
        if spec.frequency_table:
            self._register_ftable(spec.frequency_table,
                                  result.frequency_table())
        return QueryOutput(kind="tail", tail=result)

    def _run_deterministic(self, compiled) -> QueryOutput:
        if compiled.aggregates:
            result = monte_carlo_executor(
                compiled, self.catalog, base_seed=self.base_seed,
                det_cache=self._det_cache_for_run()).run(1)
            # (no options: a single deterministic repetition never shards)
            # Group-key columns take their SELECT alias when one was given,
            # otherwise the bare (unqualified) column name.
            labels = {expr.name: name for name, expr in compiled.plain_outputs
                      if isinstance(expr, Col)}
            key_labels = [labels.get(name, name.split(".", 1)[-1])
                          for name in compiled.group_by]
            columns: dict[str, list] = {label: [] for label in key_labels}
            for aggregate in compiled.aggregates:
                columns[aggregate.name] = []
            for key in result.group_keys:
                for label, value in zip(key_labels, key):
                    columns[label].append(value)
                for aggregate in compiled.aggregates:
                    columns[aggregate.name].append(
                        result.scalar(aggregate.name, key))
            return QueryOutput(kind="rows", rows=Table("result", columns))

        context = ExecutionContext(self.catalog, positions=1, aligned=True,
                                   base_seed=self.base_seed,
                                   det_cache=self._det_cache_for_run())
        relation = compiled.plan.execute(context)
        columns = {
            name: relation.evaluate_scalar(expr)
            for name, expr in compiled.plain_outputs}
        return QueryOutput(kind="rows", rows=Table("result", columns))

    # -- FTABLE ---------------------------------------------------------------

    def _register_ftable(self, value_column: str,
                         table: list[tuple[float, float]]) -> None:
        """Materialize ``FTABLE(value, FRAC)`` (Sec. 2), replacing any old one."""
        self.catalog.drop(FTABLE_NAME)
        values = [value for value, _ in table]
        fractions = [fraction for _, fraction in table]
        short_name = value_column.split(".", 1)[-1]
        self.catalog.add_table(Table(FTABLE_NAME, {
            short_name: np.asarray(values),
            "FRAC": np.asarray(fractions)}))
