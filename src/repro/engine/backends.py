"""Pluggable execution backends: where shard tasks actually run.

Sec. 1's observation that Monte Carlo repetitions are embarrassingly
parallel fixes *what* can run concurrently; this module fixes *where*.
Both executors (:class:`~repro.engine.mcdb.MonteCarloExecutor` and the
seed-axis-sharded :class:`~repro.core.gibbs_looper.GibbsLooper`) describe
their parallel work as a **shard job** — an object with a
``run_shard(lo, hi)`` method — plus a list of contiguous ``[lo, hi)``
bounds, and hand the pair to a backend:

* :class:`SerialBackend` — runs every shard in-process, in order.  Useful
  to exercise the exact sharded code paths (splitting, merging) without
  any concurrency, and as the reference the equivalence suite compares
  the process backend against.
* :class:`ProcessBackend` — a persistent pool of worker *processes*
  owned by the session and reused across queries (cf. the service-level
  scaling of Monte Carlo production in the LCG MCDB, PAPERS.md).  The job
  payload is pickled **once** per query and broadcast to each worker
  once; the per-shard task message is a ``(job_id, lo, hi)`` triple a few
  dozen bytes long.  Objects that outlive a query — the catalog above
  all — go through a *keyed shared channel*: a job exposes them via
  ``shared_payload()`` and they are pickled once per ``(object,
  version)`` key and re-sent to a worker only when the key changes, so a
  session running many queries against the same catalog ships it to each
  worker exactly once.

Shard-job transport contract (only :class:`ProcessBackend` exercises it):

* ``job.run_shard(lo, hi)`` returns the shard result (any picklable).
* ``job.shared_payload()`` (optional) returns ``{key: object}`` for the
  keyed shared channel; the job's ``__getstate__`` must then *exclude*
  those objects and ``job.attach_shared(mapping)`` must re-bind them on
  the worker after unpickling.

Every backend is results-transparent: ``run_job(job, bounds)`` returns
``[job.run_shard(lo, hi) for lo, hi in bounds]`` exactly — same values,
same order — whatever the transport.  The equivalence suite holds both
to that contract.

**Worker-owned state** (the stateful Gibbs protocol).  ``run_job`` is
stateless: the job is re-shipped every call, which is exactly wrong for
the Gibbs sweep, whose tuple/state snapshot mutates a little every sweep
but is re-shipped whole.  The second transport facility therefore pushes
the state down to the workers (MCDB's "move the simulation to the data",
Sec. 7) and keeps it there:

* ``init_state(payloads)`` — ship ``payloads[shard]`` to the worker
  owning that shard (``shard % n_workers``) and pin it there; returns an
  integer state token.  Payloads are arbitrary objects exposing plain
  methods.
* ``state_call(token, shard, method, *args)`` — synchronous round-trip:
  run ``payload.method(*args)`` on the owning worker, return the result.
* ``state_cast(token, shard, method, *args)`` — fire-and-forget
  notification (commit fan-out); FIFO-ordered with every other message
  to that worker, which is what makes notify-then-serve race-free.
* ``state_merge(token, shard, method, *args)`` — a cast in every
  transport respect, but semantically a *state splice*: the payload
  re-derives part of its owned state from a delta (the Gibbs delta
  re-init ships only never-materialized window values after a
  replenishment) instead of being re-initialized from a snapshot.  Kept
  as its own verb so the transport accounting can split re-init traffic
  (``state_merges``/``state_merge_bytes``) from per-sweep notifications,
  which is what the replenishment-transport benchmark gates on.
* ``state_scatter(token, method, per_shard_args)`` /
  ``state_collect(token, shard)`` — start one async call per shard, then
  collect each shard's reply lazily (the Gibbs sweep collects a shard
  the moment its first handle comes up).
* ``discard_state(token)`` — drop the state everywhere.  On the process
  transport this is a *barrier*: it drains every in-flight reply of that
  state, so nothing stale can be mistaken for a later query's data.

Per-backend state semantics (both produce identical results):

* :class:`SerialBackend` keeps a **pickled mirror** of each payload and
  applies every cast to it — the in-process reference implementation of
  the replay protocol, which is what lets the property-based replay
  suite exercise mirror maintenance without process overhead.
* :class:`ProcessBackend` pickles payloads once at ``init_state`` and
  thereafter ships only the call/cast messages; any worker death or
  in-worker error tears the pool down and surfaces as
  :class:`~repro.engine.errors.EngineError`, and a later ``init_state``
  respawns a clean pool (no state survives ``close()``).
"""

from __future__ import annotations

import pickle
import threading
import traceback
from multiprocessing import get_context
from multiprocessing.connection import wait

from repro.engine.errors import EngineError

__all__ = [
    "ExecutionBackend", "SerialBackend", "ProcessBackend",
    "SharedBackend", "make_backend", "catalog_share_key",
]

#: Keep at most this many distinct shared-channel entries pinned in the
#: parent (a strong reference per entry keeps ``id()``-based keys honest).
_SHARED_CACHE_LIMIT = 8

#: Seconds :meth:`ProcessBackend.close` waits at each escalation step
#: (stop message -> SIGTERM -> SIGKILL), read at close time.
#: Module-level so the zombie escalation test can shrink it instead of
#: wedging a worker for 10s.
_JOIN_TIMEOUT = 5


def _unknown_state_error(token, shard=None) -> EngineError:
    """The one wording for a dead/never-lived state token."""
    where = f"token={token}" if shard is None else \
        f"token={token}, shard={shard}"
    return EngineError(
        f"unknown worker state ({where}); it was discarded or the "
        "backend was closed")


def _pending_reply_error(token: int, shard: int) -> EngineError:
    """Double scatter: overwriting an uncollected reply would orphan it."""
    return EngineError(
        f"state {token} shard {shard} already has a scattered reply "
        "pending; collect or discard it first")


def _no_reply_error(token: int, shard: int) -> EngineError:
    return EngineError(
        f"no scattered reply pending for state {token} shard {shard}")


class _WorkerOperationError(EngineError):
    """A state operation failed *inside* a worker (carries its traceback).

    Distinguished from plain transport death so ``discard_state`` can
    tell a genuine protocol failure drained out of the pipes (must
    surface — a cast with no later synchronous operation would otherwise
    vanish) from a pool that was already reset (nothing left to report).
    """


def catalog_share_key(catalog) -> tuple:
    """Shared-channel key for a catalog: identity + mutation version.

    Two queries in one session share the key while the catalog is
    unmutated, so the broadcast is skipped; any ``CREATE TABLE`` /
    ``add_table`` / ``FTABLE`` registration bumps ``Catalog.version`` and
    forces a re-broadcast.  Identity is ``Catalog.uid`` — a monotone
    process-unique counter — not ``id()``: an address can be recycled
    after garbage collection, so a session that swaps catalogs could
    otherwise alias a dead catalog's channel entry at the same version.
    """
    return ("catalog", catalog.uid, catalog.version)


class ExecutionBackend:
    """Protocol: run a shard job over ``[lo, hi)`` bounds, results in order.

    ``run_job`` must behave exactly like the serial loop
    ``[job.run_shard(lo, hi) for lo, hi in bounds]``; ``close`` releases
    any persistent workers *and every piece of worker-owned state* and is
    idempotent (a closed backend may be reused — workers respawn lazily,
    but state tokens from before the close are dead forever).

    The stateful verbs (``init_state`` .. ``discard_state``) implement
    the worker-owned-state transport described in the module docstring.
    ``state_call``/``state_cast``/``state_scatter`` for one worker are
    processed strictly in send order.
    """

    name = "abstract"

    def run_job(self, job, bounds) -> list:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- worker-owned state -----------------------------------------------

    def state_shard_limit(self) -> int | None:
        """Max shards a state may be split into (``None`` = unbounded).

        The process transport bounds this at one shard per worker: with
        several shards per worker, an uncollected (possibly huge) scatter
        reply of one shard can block the worker's outbound pipe while
        the parent streams casts for a co-located shard into its inbound
        pipe — once both directions fill, parent and worker deadlock.
        One shard per worker makes that cycle unconstructible: the
        parent only ever sends to a worker whose scatter reply it has
        already collected (or drains replies first — ``discard_state``
        and the pre-send drain).
        """
        return None

    def init_state(self, payloads: list) -> int:
        """Pin ``payloads[shard]`` on the worker owning each shard."""
        raise NotImplementedError

    def state_call(self, token: int, shard: int, method: str, *args):
        """Synchronous ``payload.method(*args)`` on the owning worker."""
        raise NotImplementedError

    def state_cast(self, token: int, shard: int, method: str, *args) -> None:
        """Fire-and-forget notification to one shard's payload."""
        raise NotImplementedError

    def state_cast_all(self, token: int, method: str, *args) -> None:
        """Fire-and-forget notification to every shard of a state."""
        raise NotImplementedError

    def state_merge(self, token: int, shard: int, method: str,
                    *args) -> None:
        """Splice a delta into one shard's payload (see module docstring).

        Same ordering/error semantics as :meth:`state_cast`; the serial
        backend applies it to the pickled mirror (the replayable
        reference), and the process backend ships it while accounting
        the bytes as re-init rather than notification traffic.
        """
        raise NotImplementedError

    def state_scatter(self, token: int, method: str,
                      per_shard_args: list) -> None:
        """Start one async ``payload.method(*args)`` per shard."""
        raise NotImplementedError

    def state_collect(self, token: int, shard: int):
        """Wait for and return one shard's scattered reply."""
        raise NotImplementedError

    def discard_state(self, token: int) -> None:
        """Drop a state everywhere and drain its in-flight replies."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the reference transport.

    Worker-owned state is held as a **pickled mirror**: ``init_state``
    round-trips every payload through pickle and every cast is applied to
    the copy, never to the caller's live objects.  That makes the serial
    backend the reference implementation of the replay semantics the
    process transport relies on — if a notification stream under-specifies
    the mutation, the mirror diverges and the equivalence suite catches
    it in-process, with no worker pool in the loop.
    """

    name = "serial"

    def __init__(self):
        self._states: dict[int, list] = {}
        self._scattered: dict[tuple[int, int], object] = {}
        self._next_token = 0

    def run_job(self, job, bounds) -> list:
        return [job.run_shard(lo, hi) for lo, hi in bounds]

    def close(self) -> None:
        # State tokens die with the backend, exactly like the process
        # transport (where close() kills the workers holding the state).
        self._states = {}
        self._scattered = {}

    # -- worker-owned state (pickled mirror) --------------------------------

    def _shard(self, token: int, shard: int):
        try:
            return self._states[token][shard]
        except (KeyError, IndexError):
            raise _unknown_state_error(token, shard) from None

    def init_state(self, payloads: list) -> int:
        token = self._next_token
        self._next_token += 1
        self._states[token] = [
            pickle.loads(pickle.dumps(payload,
                                      protocol=pickle.HIGHEST_PROTOCOL))
            for payload in payloads]
        return token

    def state_call(self, token: int, shard: int, method: str, *args):
        return getattr(self._shard(token, shard), method)(*args)

    def state_cast(self, token: int, shard: int, method: str, *args) -> None:
        getattr(self._shard(token, shard), method)(*args)

    def state_cast_all(self, token: int, method: str, *args) -> None:
        if token not in self._states:
            raise _unknown_state_error(token)
        for payload in self._states[token]:
            getattr(payload, method)(*args)

    def state_merge(self, token: int, shard: int, method: str,
                    *args) -> None:
        # The mirror re-derives its state from the delta exactly like a
        # remote worker would — which is what makes the serial backend
        # the replayable reference for the delta re-init protocol.
        getattr(self._shard(token, shard), method)(*args)

    def state_scatter(self, token: int, method: str,
                      per_shard_args: list) -> None:
        # Computed eagerly from the mirror — the mirror is the pre-sweep
        # snapshot either way, so laziness would change nothing.
        for shard in range(len(per_shard_args)):
            if (token, shard) in self._scattered:
                raise _pending_reply_error(token, shard)
        for shard, args in enumerate(per_shard_args):
            self._scattered[(token, shard)] = \
                getattr(self._shard(token, shard), method)(*args)

    def state_collect(self, token: int, shard: int):
        try:
            return self._scattered.pop((token, shard))
        except KeyError:
            raise _no_reply_error(token, shard) from None

    def discard_state(self, token: int) -> None:
        for key in [key for key in self._scattered if key[0] == token]:
            del self._scattered[key]
        self._states.pop(token, None)


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "conn", "shared_keys")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.shared_keys: set = set()


def _worker_main(conn) -> None:
    """Worker loop: install broadcast payloads, run ``(job_id, lo, hi)``.

    ``jobs`` holds the per-query broadcast payloads, ``shared`` the keyed
    cross-query channel (catalogs), ``states`` the worker-owned shard
    payloads of the stateful Gibbs protocol, keyed ``(token, shard)``.
    Shard/state results — or a formatted traceback on failure — go back on
    the same pipe tagged with the task index / call ticket so the parent
    can merge out-of-order completions.  A cast has no reply slot, so its
    failure goes back tagged ``None``; the parent treats any error reply
    as fatal wherever it surfaces and resets the pool.
    """
    jobs: dict[int, object] = {}
    shared: dict[tuple, object] = {}
    states: dict[tuple[int, int], object] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "share":
                shared[message[1]] = pickle.loads(message[2])
            elif kind == "unshare":
                shared.pop(message[1], None)
            elif kind == "job":
                job = pickle.loads(message[2])
                attach = getattr(job, "attach_shared", None)
                if attach is not None:
                    attach(shared)
                jobs[message[1]] = job
            elif kind == "forget":
                jobs.pop(message[1], None)
            elif kind == "run":
                _, job_id, index, lo, hi = message
                conn.send(("ok", index, jobs[job_id].run_shard(lo, hi)))
            elif kind == "sinit":
                # The payload rides as a nested blob (like "job") so an
                # unpickling failure lands in THIS handler and goes back
                # as a real traceback, instead of escaping conn.recv()
                # and killing the worker loop silently.
                _, token, shard, blob = message
                states[(token, shard)] = pickle.loads(blob)
            elif kind == "scall":
                _, token, shard, ticket, method, args = message
                payload = states.get((token, shard))
                if payload is None:
                    raise EngineError(
                        f"worker holds no state (token={token}, "
                        f"shard={shard}); it was discarded or the pool "
                        "was respawned since init_state")
                conn.send(("ok", ticket, getattr(payload, method)(*args)))
            elif kind in ("scast", "smerge"):
                # A merge is a cast on the wire; its own kind only keeps
                # the parent's re-init accounting apart.
                _, token, shard, method, args = message
                payload = states.get((token, shard))
                if payload is None:
                    raise EngineError(
                        f"worker holds no state (token={token}, "
                        f"shard={shard}) for notification {method!r}")
                getattr(payload, method)(*args)
            elif kind == "sdrop":
                _, token, ticket = message
                for key in [key for key in states if key[0] == token]:
                    del states[key]
                conn.send(("ok", ticket, None))
        except BaseException:
            if kind == "run":
                reply_slot = message[2]
            elif kind == "scall":
                reply_slot = message[3]
            elif kind == "sdrop":
                reply_slot = message[2]
            else:
                reply_slot = None
            try:
                conn.send(("error", reply_slot, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes with broadcast-once job transport.

    Workers spawn lazily on the first multi-shard job and stay alive
    until :meth:`close` — a session amortizes pool startup, job
    broadcasts and catalog shipping across every query it runs.  Any
    worker failure tears the pool down (so no stale replies survive) and
    surfaces as :class:`~repro.engine.errors.EngineError` carrying the
    worker traceback.
    """

    name = "process"

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._workers: list[_WorkerHandle] = []
        self._next_job_id = 0
        self._next_state_token = 0
        self._next_ticket = 0
        # key -> (obj, blob): the object is pinned so id()-based keys
        # stay honest, the blob is pickled once and sent to each worker.
        self._shared_cache: dict[tuple, tuple] = {}
        self._state_shards: dict[int, int] = {}      # token -> shard count
        self._scatter_tickets: dict[tuple[int, int], int] = {}
        self._replies: dict[int, object] = {}        # stashed out-of-order
        #: Transport accounting, exposed for the scaling benchmark and the
        #: payload regression tests: ``jobs``/``tasks`` count dispatches,
        #: ``job_bytes`` is the last broadcast blob size, ``task_bytes``
        #: the last task message size, ``shared_pickles``/``shared_sends``
        #: count keyed-channel work (pickles happen once per key).
        #: ``sent_bytes`` accumulates every parent->worker payload byte
        #: (job broadcasts x recipients, shared-channel sends, run tasks,
        #: and all stateful-protocol messages); ``state_init_bytes`` /
        #: ``state_msg_bytes`` split out the worker-owned-state share so
        #: the Gibbs transport benchmark can separate the one-off snapshot
        #: ship from the per-sweep notification traffic.
        #: ``state_merges``/``state_merge_bytes`` track the delta re-init
        #: splices separately from both the snapshot ships and the
        #: notification stream: the replenishment-transport benchmark
        #: compares them against the full re-init's ``state_init_bytes``.
        self.stats = {"jobs": 0, "tasks": 0, "job_bytes": 0, "task_bytes": 0,
                      "shared_pickles": 0, "shared_sends": 0, "spawns": 0,
                      "sent_bytes": 0, "state_inits": 0, "state_init_bytes": 0,
                      "state_calls": 0, "state_casts": 0, "state_msg_bytes": 0,
                      "state_merges": 0, "state_merge_bytes": 0}

    # -- lifecycle -----------------------------------------------------------

    @property
    def workers_alive(self) -> int:
        return sum(1 for worker in self._workers
                   if worker.process.is_alive())

    def worker_pids(self) -> list[int]:
        return [worker.process.pid for worker in self._workers]

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        context = get_context()
        for _ in range(self.n_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn))
            self.stats["spawns"] += 1

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=_JOIN_TIMEOUT)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT)
            if worker.process.is_alive():
                # terminate() is SIGTERM, which a worker wedged in
                # uninterruptible I/O (or with the signal masked) can
                # outlive; without this escalation close() would silently
                # leave a zombie worker (and its memory) behind.
                worker.process.kill()
                worker.process.join(timeout=_JOIN_TIMEOUT)
            worker.conn.close()
        self._workers = []
        self._shared_cache = {}
        # Worker-owned state dies with the workers: every live token is
        # dead from here on (state calls raise EngineError, they never
        # lazily respawn a pool that no longer holds the state), and no
        # in-flight reply can leak into a respawned pool's traffic.
        self._state_shards = {}
        self._scatter_tickets = {}
        self._replies = {}

    # -- transport -----------------------------------------------------------

    @staticmethod
    def task_message(job_id: int, index: int, lo: int, hi: int) -> tuple:
        """The per-shard wire message — a constant-size integer tuple.

        Exposed so the payload regression test can pin its pickled size:
        shard tasks must never regrow a catalog/plan payload.
        """
        return ("run", job_id, index, lo, hi)

    def _send_shared(self, worker: _WorkerHandle, key: tuple,
                     obj: object) -> None:
        if key not in self._shared_cache:
            # A versioned catalog key supersedes every older version of
            # the same catalog uid: nothing will ever request those again
            # (jobs always carry the current version), so an
            # append-churning standing session must not ratchet the
            # parent cache / worker mirrors up to _SHARED_CACHE_LIMIT
            # dead catalog snapshots before LRU pressure clears them.
            if key[0] == "catalog":
                superseded = [
                    cached for cached in self._shared_cache
                    if cached[0] == "catalog" and cached[1] == key[1]
                    and cached != key]
                for stale in superseded:
                    del self._shared_cache[stale]
                    for other in self._workers:
                        if stale in other.shared_keys:
                            other.shared_keys.discard(stale)
                            other.conn.send(("unshare", stale))
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            self._shared_cache[key] = (obj, blob)
            self.stats["shared_pickles"] += 1
            while len(self._shared_cache) > _SHARED_CACHE_LIMIT:
                evicted = next(iter(self._shared_cache))
                del self._shared_cache[evicted]
                for other in self._workers:
                    if evicted in other.shared_keys:
                        other.shared_keys.discard(evicted)
                        other.conn.send(("unshare", evicted))
        if key in worker.shared_keys:
            return
        blob = self._shared_cache[key][1]
        worker.conn.send(("share", key, blob))
        worker.shared_keys.add(key)
        self.stats["shared_sends"] += 1
        self.stats["sent_bytes"] += len(blob)

    def run_job(self, job, bounds) -> list:
        bounds = list(bounds)
        if len(bounds) <= 1:
            return [job.run_shard(lo, hi) for lo, hi in bounds]
        self._ensure_workers()
        job_id = self._next_job_id
        self._next_job_id += 1
        shared = getattr(job, "shared_payload", dict)()
        blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        self.stats["jobs"] += 1
        self.stats["job_bytes"] = len(blob)
        active = self._workers[:min(len(bounds), len(self._workers))]
        try:
            for worker in active:
                for key, obj in shared.items():
                    self._send_shared(worker, key, obj)
                worker.conn.send(("job", job_id, blob))
                self.stats["sent_bytes"] += len(blob)
            results = self._dispatch(active, job_id, bounds)
            for worker in active:
                worker.conn.send(("forget", job_id))
        except (BrokenPipeError, OSError) as exc:
            # A worker died between jobs (OOM kill, crash): sending to its
            # pipe raises here.  Reset the pool and surface it as the
            # EngineError the backend contract promises.
            self.close()
            raise EngineError(
                f"shard worker process died ({exc}); the worker pool has "
                "been reset") from exc
        except BaseException:
            # A worker errored mid-job or the dispatch was interrupted
            # (KeyboardInterrupt included): reset the pool so no stale
            # in-flight replies can be mistaken for the *next* job's
            # results.
            self.close()
            raise
        return results

    def _dispatch(self, active: list[_WorkerHandle], job_id: int,
                  bounds: list) -> list:
        """Feed ``(job_id, lo, hi)`` triples to idle workers, merge in order."""
        results: list = [None] * len(bounds)
        by_conn = {worker.conn: worker for worker in active}
        pending = iter(enumerate(bounds))
        busy: dict = {}
        outstanding = 0
        # Task messages are constant-shape integer tuples; size one of
        # them per job for the transport accounting instead of paying an
        # extra pickle per task on the dispatch hot path.
        self.stats["task_bytes"] = len(pickle.dumps(
            self.task_message(job_id, 0, *bounds[0]),
            protocol=pickle.HIGHEST_PROTOCOL))

        def feed(conn) -> None:
            nonlocal outstanding
            task = next(pending, None)
            if task is None:
                busy.pop(conn, None)
                return
            index, (lo, hi) = task
            self.stats["tasks"] += 1
            self.stats["sent_bytes"] += self.stats["task_bytes"]
            conn.send(self.task_message(job_id, index, lo, hi))
            busy[conn] = index
            outstanding += 1

        for conn in by_conn:
            feed(conn)
        while outstanding:
            for conn in wait(list(busy)):
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise EngineError(
                        "shard worker process died; the worker pool has "
                        "been reset") from None
                status, index, payload = reply
                if status == "error":
                    raise EngineError(
                        f"shard task failed in worker:\n{payload}")
                results[index] = payload
                outstanding -= 1
                feed(conn)
        return results

    # -- worker-owned state --------------------------------------------------

    def state_shard_limit(self) -> int | None:
        return self.n_workers

    def _worker_for(self, shard: int) -> _WorkerHandle:
        if not self._workers:
            raise EngineError(
                "no live worker pool holds this state (the backend was "
                "closed or reset); re-run init_state on the fresh pool")
        return self._workers[shard % len(self._workers)]

    def _send_state_message(self, worker: _WorkerHandle, message) -> int:
        """Pickle + ship one stateful-protocol message, counting bytes.

        ``Connection.send`` is pickle-then-``send_bytes`` internally, so
        pickling here ourselves costs nothing extra and gives the
        transport accounting exact byte counts.  Any reply already
        sitting in the worker's outbound pipe is drained into the stash
        first: a worker blocked mid-write can then finish and get back to
        reading its inbox, so this send can never wedge against it
        (deadlock-freedom, belt to ``state_shard_limit``'s suspenders).
        """
        blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            while worker.conn.poll(0):
                status, got, payload = worker.conn.recv()
                if status == "error":
                    self.close()
                    raise _WorkerOperationError(
                        "stateful Gibbs operation failed in worker:\n"
                        f"{payload}")
                self._replies[got] = payload
            worker.conn.send_bytes(blob)
        except (BrokenPipeError, OSError, EOFError) as exc:
            self.close()
            raise EngineError(
                f"stateful worker process died ({exc}); the worker pool "
                "has been reset") from exc
        self.stats["sent_bytes"] += len(blob)
        return len(blob)

    def _await_reply(self, worker: _WorkerHandle, ticket: int):
        """Wait for one ticketed reply, stashing out-of-order arrivals.

        Several shards can live on one worker, so an uncollected scatter
        reply may sit in the pipe ahead of the reply we want; it is kept
        for its own ``state_collect``.  Any error reply — whatever ticket
        it carries, including the ``None`` of a failed cast — resets the
        pool and raises: after an error the mirror state is unreliable
        and no stale reply may survive into later traffic.
        """
        if ticket in self._replies:
            return self._replies.pop(ticket)
        while True:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                self.close()
                raise EngineError(
                    "stateful worker process died; the worker pool has "
                    "been reset") from None
            status, got, payload = reply
            if status == "error":
                self.close()
                raise _WorkerOperationError(
                    f"stateful Gibbs operation failed in worker:\n{payload}")
            if got == ticket:
                return payload
            self._replies[got] = payload

    def init_state(self, payloads: list) -> int:
        self._ensure_workers()
        token = self._next_state_token
        self._next_state_token += 1
        self._state_shards[token] = len(payloads)
        self.stats["state_inits"] += 1
        for shard, payload in enumerate(payloads):
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self.stats["state_init_bytes"] += self._send_state_message(
                self._worker_for(shard), ("sinit", token, shard, blob))
        return token

    def _check_token(self, token: int) -> None:
        if token not in self._state_shards:
            raise _unknown_state_error(token)

    def state_call(self, token: int, shard: int, method: str, *args):
        self._check_token(token)
        worker = self._worker_for(shard)
        ticket = self._next_ticket
        self._next_ticket += 1
        self.stats["state_calls"] += 1
        self.stats["state_msg_bytes"] += self._send_state_message(
            worker, ("scall", token, shard, ticket, method, args))
        return self._await_reply(worker, ticket)

    def state_cast(self, token: int, shard: int, method: str, *args) -> None:
        self._check_token(token)
        self.stats["state_casts"] += 1
        self.stats["state_msg_bytes"] += self._send_state_message(
            self._worker_for(shard), ("scast", token, shard, method, args))

    def state_cast_all(self, token: int, method: str, *args) -> None:
        self._check_token(token)
        for shard in range(self._state_shards[token]):
            self.state_cast(token, shard, method, *args)

    def state_merge(self, token: int, shard: int, method: str,
                    *args) -> None:
        # Semantically a cast (the worker dispatches on the payload
        # method, no reply slot), but with its own wire kind so the
        # accounting splits merge bytes from per-sweep notifications.
        self._check_token(token)
        self.stats["state_merges"] += 1
        self.stats["state_merge_bytes"] += self._send_state_message(
            self._worker_for(shard), ("smerge", token, shard, method, args))

    def state_scatter(self, token: int, method: str,
                      per_shard_args: list) -> None:
        self._check_token(token)
        for shard in range(len(per_shard_args)):
            if (token, shard) in self._scatter_tickets:
                raise _pending_reply_error(token, shard)
        for shard, args in enumerate(per_shard_args):
            worker = self._worker_for(shard)
            ticket = self._next_ticket
            self._next_ticket += 1
            self._scatter_tickets[(token, shard)] = ticket
            self.stats["state_calls"] += 1
            self.stats["state_msg_bytes"] += self._send_state_message(
                worker, ("scall", token, shard, ticket, method, args))

    def state_collect(self, token: int, shard: int):
        try:
            ticket = self._scatter_tickets.pop((token, shard))
        except KeyError:
            raise _no_reply_error(token, shard) from None
        return self._await_reply(self._worker_for(shard), ticket)

    def discard_state(self, token: int) -> None:
        """Drop a state and drain its in-flight replies (a barrier).

        ``sdrop`` is acknowledged, and pipes are FIFO, so once every
        owning worker has acked, no reply belonging to this state — an
        uncollected scatter result, a late cast error — can still be in
        flight.  Tolerant of a dead/closed pool (discarding is cleanup;
        the caller may already be unwinding an EngineError), but a
        genuine in-worker failure first *discovered* by this drain — a
        notification that failed with no later synchronous operation to
        surface it — is re-raised after the bookkeeping is cleared: a
        diverged mirror must never be silent.
        """
        shards = self._state_shards.pop(token, None)
        stale = [self._scatter_tickets.pop(key)
                 for key in [key for key in self._scatter_tickets
                             if key[0] == token]]
        failure = None
        if shards is not None and self._workers:
            involved = {shard % len(self._workers)
                        for shard in range(shards)}
            for index in involved:
                worker = self._workers[index]
                ticket = self._next_ticket
                self._next_ticket += 1
                try:
                    self._send_state_message(worker,
                                             ("sdrop", token, ticket))
                    self._await_reply(worker, ticket)
                except _WorkerOperationError as exc:
                    failure = exc  # pool reset by the raise; stop draining
                    break
                except EngineError:
                    # Pool already reset (worker death): nothing left to
                    # drain, and nothing new to report.
                    break
        for ticket in stale:
            self._replies.pop(ticket, None)
        if failure is not None:
            raise failure


class SharedBackend(ExecutionBackend):
    """One backend shared by several sessions across threads.

    The risk-service front end (:mod:`repro.server`) runs many tenant
    sessions against ONE persistent worker pool — the whole point of a
    long-lived service — but the concrete backends assume a single
    calling thread.  This wrapper makes the sharing safe:

    * every protocol operation delegates under one re-entrant lock, so
      two sessions' messages never interleave *within* an operation and
      all parent-side bookkeeping (tickets, reply stash, shared-channel
      cache) stays consistent;
    * a worker-owned state holds that lock for its whole life: from
      ``init_state`` until the same thread's ``discard_state`` of the
      token, no other thread runs any operation on the pool.  Without
      this, tenants interleave *between* operations, and a process pool
      can deadlock: tenant A blocks writing a cast to a worker while
      holding the lock, that worker blocks writing tenant B's
      uncollected scatter reply, and B waits for the lock to collect it.
      The price is that a tail query's Gibbs run owns the pool until it
      finishes: every other tenant's operation, ``run_job`` included,
      waits for it;
    * :meth:`close` is reserved for the *owner* (the server): sessions
      holding a shared backend must not tear down a pool other tenants
      are using, which is what ``Session(shared_backend=...)`` enforces
      by never closing a backend it doesn't own.

    One failure domain, by design: a worker death or in-worker error
    still resets the whole inner pool, so every in-flight query of every
    tenant surfaces an :class:`~repro.engine.errors.EngineError` for
    that run — the pool respawns lazily for the next query.
    """

    name = "shared"

    def __init__(self, inner: ExecutionBackend):
        if isinstance(inner, SharedBackend):
            raise ValueError("SharedBackend cannot wrap a SharedBackend")
        self.inner = inner
        self._lock = threading.RLock()
        #: Live tokens, each holding one level of ``_lock``.  Only the
        #: thread owning the lock can have any, so this needs no guard.
        self._held: set[int] = set()

    @property
    def stats(self):
        # ProcessBackend transport accounting; other backends keep none.
        return getattr(self.inner, "stats", {})

    def run_job(self, job, bounds) -> list:
        with self._lock:
            return self.inner.run_job(job, bounds)

    def close(self) -> None:
        with self._lock:
            self.inner.close()

    def state_shard_limit(self) -> int | None:
        return self.inner.state_shard_limit()

    def init_state(self, payloads: list) -> int:
        self._lock.acquire()
        try:
            token = self.inner.init_state(payloads)
        except BaseException:
            self._lock.release()
            raise
        self._held.add(token)
        return token

    def state_call(self, token: int, shard: int, method: str, *args):
        with self._lock:
            return self.inner.state_call(token, shard, method, *args)

    def state_cast(self, token: int, shard: int, method: str, *args) -> None:
        with self._lock:
            self.inner.state_cast(token, shard, method, *args)

    def state_cast_all(self, token: int, method: str, *args) -> None:
        with self._lock:
            self.inner.state_cast_all(token, method, *args)

    def state_merge(self, token: int, shard: int, method: str,
                    *args) -> None:
        with self._lock:
            self.inner.state_merge(token, shard, method, *args)

    def state_scatter(self, token: int, method: str,
                      per_shard_args: list) -> None:
        with self._lock:
            self.inner.state_scatter(token, method, per_shard_args)

    def state_collect(self, token: int, shard: int):
        with self._lock:
            return self.inner.state_collect(token, shard)

    def discard_state(self, token: int) -> None:
        with self._lock:
            try:
                self.inner.discard_state(token)
            finally:
                if token in self._held:
                    self._held.discard(token)
                    self._lock.release()


def make_backend(options) -> ExecutionBackend:
    """Backend instance for an :class:`ExecutionOptions`.

    Callers that own no long-lived scope (an executor used directly,
    outside a :class:`~repro.sql.session.Session`) build one of these per
    run and close it afterwards; a session builds one and keeps it.
    """
    if options.backend == "serial":
        return SerialBackend()
    if options.backend == "process":
        return ProcessBackend(options.n_jobs)
    raise ValueError(f"unknown backend {options.backend!r}")
