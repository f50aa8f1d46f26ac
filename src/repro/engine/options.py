"""Execution policy shared by both executors.

:class:`ExecutionOptions` is the single knob object the SQL layer threads
down into :class:`~repro.engine.mcdb.MonteCarloExecutor` and
:class:`~repro.core.gibbs_looper.GibbsLooper`.  It controls *how* a query
runs, never *what* it computes: every engine/n_jobs combination is required
to produce bit-identical results for the same session seed, a contract
enforced by ``tests/test_engine_equivalence.py``.

* ``engine`` selects the Gibbs perturbation kernel.  ``"vectorized"``
  (default) batches the database-version axis of Algorithm 3 into dense
  NumPy kernels — the Sec. 7 loop inversion pushed one level further, so
  one rejection round evaluates candidate deltas for *every* version of a
  TS-seed at once.  ``"reference"`` is the scalar per-version path kept for
  verification.

* ``n_jobs`` shards independent work across workers: Monte Carlo
  repetitions as contiguous slices of the repetition (stream-position)
  axis — every worker re-derives the same per-seed PRNG keys via
  :func:`repro.engine.seeds.derive_prng_seed` and materializes disjoint
  windows of the same streams, so merging shard results in order
  reproduces the serial run exactly — and, in tail mode, the TS-seed
  handle axis of the GibbsLooper's candidate-window evaluation.

* ``backend`` selects *where* shards run
  (:mod:`repro.engine.backends`): ``"process"`` (persistent worker pool,
  broadcast-once job transport) or ``"serial"`` (the sharded code paths
  without any concurrency, the reference the equivalence suite checks
  the pool against).  Sharded tail queries pin
  each TS-seed handle range's tuples/states on its owning worker across
  sweeps (:class:`~repro.core.gibbs_looper.GibbsSeedShard`).

The class defaults are plain literals: constructing
:class:`ExecutionOptions` never consults the environment.
:meth:`ExecutionOptions.from_env` is the one place ``MCDBR_*`` variables
are read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.engine.errors import EngineError

__all__ = ["ENGINES", "BACKENDS", "REPLENISHMENT_MODES", "DET_CACHE_MODES",
           "ExecutionOptions", "ServerOptions", "env_choice", "env_int",
           "env_float", "env_bool"]

#: Supported Gibbs perturbation kernels.
ENGINES = ("vectorized", "reference")

#: Shard transports (see :mod:`repro.engine.backends`).  ``"process"``
#: (default) is a persistent worker pool reused across a session's
#: queries; ``"serial"`` runs the sharded code paths in-process, in order.
BACKENDS = ("process", "serial")

#: Replenishment strategies (Sec. 9).  ``"delta"`` materializes only stream
#: positions that were never produced before and merges them into the
#: previous tuple bundles; ``"full"`` rebuilds every window from scratch
#: (the paper-literal behavior, kept for verification).
REPLENISHMENT_MODES = ("delta", "full")

#: Deterministic sub-plan cache tiers.  ``"session"`` shares materialized
#: deterministic relations across queries (keyed by structural plan
#: fingerprint, validated against the versions of the tables each entry
#: scans — see :mod:`repro.engine.det_cache`); ``"context"`` scopes the
#: cache to one plan execution context (the seed behavior); ``"off"``
#: disables caching entirely.
DET_CACHE_MODES = ("session", "context", "off")

#: Truthy/falsy spellings accepted by boolean env knobs.
_ENV_TRUE = ("1", "true", "yes", "on")
_ENV_FALSE = ("0", "false", "no", "off")

#: Every environment knob ``from_env`` recognizes — the whole MCDBR_*
#: namespace is reserved, so misspelled *names* fail fast too.
_ENV_KNOBS = frozenset((
    "MCDBR_ENGINE", "MCDBR_N_JOBS", "MCDBR_BACKEND", "MCDBR_SHARD_SIZE",
    "MCDBR_REPLENISHMENT", "MCDBR_DET_CACHE", "MCDBR_WINDOW_GROWTH",
    "MCDBR_SPECULATE_DEPTH",
    # Risk-service front-end knobs (repro.server), parsed by
    # ServerOptions.from_env — registered here so ExecutionOptions.from_env
    # running inside the server process doesn't reject them as typos.
    "MCDBR_SERVER_CONCURRENCY", "MCDBR_SERVER_QUEUE_DEPTH",
    "MCDBR_SERVER_QUERY_TIMEOUT", "MCDBR_SERVER_STANDING_AUTOREFRESH"))


def env_choice(name: str, default: str, allowed: tuple) -> str:
    """An enum-valued ``MCDBR_*`` knob, validated against ``allowed``.

    Misspelled values fail *here*, with the env var named, instead of
    surfacing later as a ``ValueError`` from whichever construction site
    happened to read the option first.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    if value not in allowed:
        raise EngineError(
            f"invalid {name}={value!r}; supported values: "
            f"{'|'.join(allowed)}")
    return value


def env_int(name: str, default: int, minimum: int = 1) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        parsed = int(value)
    except ValueError:
        raise EngineError(
            f"invalid {name}={value!r}; expected an integer") from None
    if parsed < minimum:
        raise EngineError(
            f"invalid {name}={parsed}; must be >= {minimum}")
    return parsed


def env_float(name: str, default: float, minimum: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        parsed = float(value)
    except ValueError:
        raise EngineError(
            f"invalid {name}={value!r}; expected a number") from None
    if not parsed >= minimum:
        raise EngineError(
            f"invalid {name}={parsed}; must be >= {minimum}")
    return parsed


def env_bool(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    lowered = value.lower()
    if lowered in _ENV_TRUE:
        return True
    if lowered in _ENV_FALSE:
        return False
    raise EngineError(
        f"invalid {name}={value!r}; expected one of "
        f"{'|'.join(_ENV_TRUE + _ENV_FALSE)}")


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a query: kernel selection + repetition sharding.

    Parameters
    ----------
    engine:
        ``"vectorized"`` (batched NumPy kernel, default) or ``"reference"``
        (the paper-literal scalar path).  Both produce identical results
        for identical seeds.
    n_jobs:
        Workers for shard execution — Monte Carlo repetition slices and
        tail-mode seed-axis candidate windows; ``1`` runs serially
        in-process.  Results are independent of ``n_jobs``.
    backend:
        Shard transport: ``"process"`` (persistent worker pool owned by
        the session, job broadcast once, ``(job_id, lo, hi)`` shard
        tasks) or ``"serial"``.  Inert while
        ``n_jobs == 1``.
    shard_size:
        Optional maximum repetitions (or seeds, on the tail path) per
        shard.  ``None`` splits the work evenly across ``n_jobs``
        workers.
    replenishment:
        ``"delta"`` (default) re-runs the plan in incremental mode when a
        Gibbs window runs dry: ``Instantiate`` gathers only stream
        positions never materialized before and merges them into its
        previous output.  ``"full"`` rebuilds every window from the
        streams each time.  Both are bit-identical (the streams are pure
        functions of position), only speed differs.
    det_cache:
        Cache tier for deterministic sub-plan results: ``"session"``
        (cross-query, the default under :class:`repro.sql.Session`),
        ``"context"`` (per plan execution) or ``"off"``.  Executors used
        directly fall back to ``"context"`` scoping unless a session cache
        object is handed to them.
    window_growth:
        Geometric growth factor applied to the GibbsLooper's window after
        each replenishment (``1.0`` — the default — disables growth).
        Rejection-heavy seeds refuel dozens of times at a fixed window;
        growing it makes the refuel count logarithmic in the consumption
        depth.  Window sizing never changes which candidate is accepted
        (the consumption pointer walks the same stream either way), so
        results stay bit-identical — only the replenishment schedule,
        and therefore ``plan_runs``, shrinks.
    speculate_depth:
        Maximum speculation-chain length per seed on sharded tail
        queries (default ``4``).  The worker owning a rejection-heavy
        seed pre-computes a K-deep chain of successor windows — the
        requests the sweep sends next under continued rejection — and
        piggybacks it on its reply, so a fully rejected streak consumes
        K buffered windows per blocking round-trip.  The *effective*
        depth per seed is adaptive: sized from the seed's
        acceptance-pressure counters, deepest for hot low-acceptance
        seeds, zero for seeds above the 1/8 acceptance threshold.  ``0``
        disables speculation.  Every chain entry is guarded by an exact
        ``(params, epoch)`` match, so results are bit-identical at any
        depth.
    """

    engine: str = "vectorized"
    n_jobs: int = 1
    backend: str = "process"
    shard_size: int | None = None
    replenishment: str = "delta"
    det_cache: str = "session"
    window_growth: float = 1.0
    speculate_depth: int = 4

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; supported: {ENGINES}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; supported: {BACKENDS}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not self.window_growth >= 1.0:
            raise ValueError(
                f"window_growth must be >= 1.0, got {self.window_growth}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(
                f"shard_size must be >= 1 or None, got {self.shard_size}")
        if self.replenishment not in REPLENISHMENT_MODES:
            raise ValueError(
                f"unknown replenishment mode {self.replenishment!r}; "
                f"supported: {REPLENISHMENT_MODES}")
        if self.det_cache not in DET_CACHE_MODES:
            raise ValueError(
                f"unknown det_cache mode {self.det_cache!r}; "
                f"supported: {DET_CACHE_MODES}")
        if not isinstance(self.speculate_depth, int) \
                or isinstance(self.speculate_depth, bool) \
                or self.speculate_depth < 0:
            raise ValueError(
                f"speculate_depth must be an integer >= 0, got "
                f"{self.speculate_depth!r}")

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionOptions":
        """Options from the ``MCDBR_*`` environment, validated eagerly.

        The only place execution knobs are read from the environment —
        entry points (quickstart, the risk server, CI smoke runs) call
        it explicitly; ``ExecutionOptions()`` itself never looks.  Every
        variable is parsed and validated *here*, so a typo'd value fails
        with a clear :class:`EngineError` naming the variable, instead
        of a ``ValueError`` from deep inside options construction.
        Explicit ``overrides`` win over the environment.

        =========================  ======================================
        variable                   values
        =========================  ======================================
        ``MCDBR_ENGINE``           ``vectorized|reference``
        ``MCDBR_N_JOBS``           integer >= 1
        ``MCDBR_BACKEND``          ``process|serial``
        ``MCDBR_SHARD_SIZE``       integer >= 1 (unset = even split)
        ``MCDBR_REPLENISHMENT``    ``delta|full``
        ``MCDBR_DET_CACHE``        ``session|context|off``
        ``MCDBR_WINDOW_GROWTH``    number >= 1.0
        ``MCDBR_SPECULATE_DEPTH``  integer >= 0 (max chain length)
        =========================  ======================================

        Unrecognized ``MCDBR_*`` variables are rejected too: a
        misspelled *name* — or one of a retired knob — would otherwise
        silently leave its setting at the default, the exact failure
        mode this parser exists to prevent.
        """
        unknown_vars = sorted(
            name for name in os.environ
            if name.startswith("MCDBR_") and name not in _ENV_KNOBS)
        if unknown_vars:
            raise EngineError(
                f"unrecognized environment knobs {unknown_vars}; "
                f"supported: {sorted(_ENV_KNOBS)}")
        values = dict(
            engine=env_choice("MCDBR_ENGINE", "vectorized", ENGINES),
            n_jobs=env_int("MCDBR_N_JOBS", 1),
            backend=env_choice("MCDBR_BACKEND", "process", BACKENDS),
            shard_size=(env_int("MCDBR_SHARD_SIZE", 1)
                        if "MCDBR_SHARD_SIZE" in os.environ else None),
            replenishment=env_choice("MCDBR_REPLENISHMENT", "delta",
                                     REPLENISHMENT_MODES),
            det_cache=env_choice("MCDBR_DET_CACHE", "session",
                                 DET_CACHE_MODES),
            window_growth=env_float("MCDBR_WINDOW_GROWTH", 1.0, 1.0),
            speculate_depth=env_int("MCDBR_SPECULATE_DEPTH", 4, minimum=0),
        )
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise EngineError(
                f"unknown ExecutionOptions overrides: {sorted(unknown)}")
        values.update(overrides)
        return cls(**values)

    @property
    def sharded(self) -> bool:
        return self.n_jobs > 1

    def shard_bounds(self, repetitions: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` repetition slices for the workers.

        The split is a pure function of ``repetitions`` and the options, so
        a sharded run is reproducible; and because shards are slices of the
        position axis of deterministic streams, the *merged* result is the
        same for every split (including the trivial one).
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        size = self.shard_size
        if size is None:
            size = -(-repetitions // self.n_jobs)  # ceil division
        bounds = []
        lo = 0
        while lo < repetitions:
            hi = min(lo + size, repetitions)
            bounds.append((lo, hi))
            lo = hi
        return bounds


@dataclass(frozen=True)
class ServerOptions:
    """Admission policy of the risk-service front end (:mod:`repro.server`).

    Where :class:`ExecutionOptions` governs how one query runs, this
    object governs how many may run — the server's bounded admission
    queue and its executor pool:

    concurrency:
        Executor threads draining the admission queue — the maximum
        number of tenant queries in flight at once (each tenant session
        is additionally single-flight, so concurrency beyond the tenant
        count buys nothing).  Env ``MCDBR_SERVER_CONCURRENCY``.
    queue_depth:
        Maximum *queued* (admitted but not yet running) queries.  A
        submit that would exceed it is refused with HTTP 429 — load
        sheds at the door instead of piling onto the pool.  Env
        ``MCDBR_SERVER_QUEUE_DEPTH``.
    query_timeout:
        Seconds one query may spend from admission to completion
        (queue wait included) before it is abandoned and reported as
        ``"timeout"``; ``None`` disables the limit.  Env
        ``MCDBR_SERVER_QUERY_TIMEOUT`` (a number; ``0`` or less is
        rejected — use unset for no limit).
    standing_autorefresh:
        Whether a successful ``POST .../tables/{name}/append`` marks the
        tenant's standing queries dirty and schedules their refresh
        immediately (the streaming posture).  ``False`` refreshes only
        on demand (``POST .../standing/{id}/refresh``).  Env
        ``MCDBR_SERVER_STANDING_AUTOREFRESH``.
    """

    concurrency: int = 4
    queue_depth: int = 32
    query_timeout: float | None = 30.0
    standing_autorefresh: bool = True

    def __post_init__(self):
        if not isinstance(self.concurrency, int) \
                or isinstance(self.concurrency, bool) \
                or self.concurrency < 1:
            raise ValueError(
                f"concurrency must be an integer >= 1, got "
                f"{self.concurrency!r}")
        if not isinstance(self.queue_depth, int) \
                or isinstance(self.queue_depth, bool) \
                or self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be an integer >= 1, got "
                f"{self.queue_depth!r}")
        if self.query_timeout is not None and not self.query_timeout > 0:
            raise ValueError(
                f"query_timeout must be > 0 or None, got "
                f"{self.query_timeout}")
        if not isinstance(self.standing_autorefresh, bool):
            raise ValueError(
                f"standing_autorefresh must be a bool, got "
                f"{self.standing_autorefresh!r}")

    @classmethod
    def from_env(cls, **overrides) -> "ServerOptions":
        """Server knobs from the ``MCDBR_SERVER_*`` environment.

        Same eager-validation contract as
        :meth:`ExecutionOptions.from_env`: a typo'd value raises
        :class:`EngineError` naming the variable.

        ==============================  ================================
        variable                        values
        ==============================  ================================
        ``MCDBR_SERVER_CONCURRENCY``    integer >= 1 (executor threads)
        ``MCDBR_SERVER_QUEUE_DEPTH``    integer >= 1 (429 past this)
        ``MCDBR_SERVER_QUERY_TIMEOUT``  number > 0 seconds (unset = 30s)
        ``MCDBR_SERVER_STANDING_AUTOREFRESH``  boolean (default on)
        ==============================  ================================
        """
        values = dict(
            concurrency=env_int("MCDBR_SERVER_CONCURRENCY", 4),
            queue_depth=env_int("MCDBR_SERVER_QUEUE_DEPTH", 32),
            query_timeout=(
                env_float("MCDBR_SERVER_QUERY_TIMEOUT", 30.0, 1e-3)
                if "MCDBR_SERVER_QUERY_TIMEOUT" in os.environ else 30.0),
            standing_autorefresh=env_bool(
                "MCDBR_SERVER_STANDING_AUTOREFRESH", True),
        )
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise EngineError(
                f"unknown ServerOptions overrides: {sorted(unknown)}")
        values.update(overrides)
        return cls(**values)
