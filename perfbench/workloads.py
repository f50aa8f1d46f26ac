"""The benchmark workloads, driven through the public API only.

Each workload turns ``--seed`` into its inputs (tables, filter bounds,
append batches) before anything is timed, and offers:

* ``system()`` — a context manager that sets the system up (tables,
  ``CREATE``, standing query, server and pool) and tears it down;
* ``drive(system, deadline=..., counts=...)`` — the timed operations,
  until a deadline or for fixed per-client operation counts;
* ``check(ops)`` — the answer checks, run after the timed phase, which
  mark wrong operations and return what was wrong;
* ``counters(system)`` — engine counters the traced run takes deltas of.
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from repro import ExecutionOptions
from repro.engine.options import ServerOptions
from repro.server import RiskServer, output_to_wire
from repro.sql import Session
from repro.workloads.analytic import NormalResultDistribution

CREATE_LOSSES = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
CREATE_SEG_LOSSES = """
    CREATE TABLE Losses (CID, seg, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, seg, v.* FROM v
"""
SERIAL = ExecutionOptions(n_jobs=1)


@dataclass
class Op:
    """One timed operation as the client saw it."""

    kind: str
    seconds: float
    status: str = "ok"         # ok | failed | refused | wrong
    client: int = 0
    detail: dict = field(default_factory=dict)


def _timed(ops: list, kind: str, call, client: int = 0, **detail) -> Op:
    start = time.perf_counter()
    try:
        detail.update(call() or {})
        status = "ok"
    except Exception as exc:  # recorded as a failed operation
        detail["error"] = repr(exc)
        status = "failed"
    op = Op(kind, time.perf_counter() - start, status, client, detail)
    ops.append(op)
    return op


def _stop(ops_done: int, deadline, count) -> bool:
    if count is not None:
        return ops_done >= count
    return time.perf_counter() >= deadline


def _seg_tables(rng, rows: int, segments: int = 16) -> dict:
    return {
        "means": {"CID": np.arange(rows), "m": rng.uniform(0.5, 3.0, rows),
                  "seg": rng.integers(0, segments, rows)},
        "segs": {"sid": np.arange(segments),
                 "rate": rng.uniform(0.0, 1.0, segments)},
    }


def _rate_threshold(rng, rates, passing: int) -> float:
    """A ``rate < x`` bound that lets exactly ``passing`` segments through,
    drawn inside the gap so that the SQL text is new each time."""
    ordered = np.sort(rates)
    low = ordered[passing - 1]
    high = ordered[passing] if passing < len(ordered) else 1.0
    return float(low + rng.uniform(0.05, 0.95) * (high - low))


# -- tail_var ----------------------------------------------------------------

class TailVar:
    """Serial quickstart-shaped tail queries (``DOMAIN ... QUANTILE``).

    Not listed in ``BENCHMARK.json``: one query's cost swings from 2 s to
    over 15 s with how many window refuels its streams need, so a run
    sees too few queries for a median that repeats across seeds.  Run it
    by hand with ``--workload tail_var``.
    """

    name = "tail_var"
    headline = "tail"
    clients = 1
    rows = 2000
    sql = ("SELECT SUM(val) AS loss FROM Losses WHERE CID < {b} "
           "WITH RESULTDISTRIBUTION MONTECARLO(100) "
           "DOMAIN loss >= QUANTILE(0.99)")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.base_seed = seed
        self.means = {"CID": np.arange(self.rows),
                      "m": rng.uniform(0.5, 3.0, self.rows)}
        self.bounds = [int(b) for b in rng.integers(480, 521, 256)]

    @contextlib.contextmanager
    def system(self):
        with Session(base_seed=self.base_seed, options=SERIAL) as session:
            session.add_table("means", self.means)
            session.execute(CREATE_LOSSES)
            yield session

    def counters(self, session) -> dict:
        return {"det_cache": session.cache_stats()}

    def drive(self, session, deadline=None, counts=None) -> list[Op]:
        ops: list[Op] = []
        count = None if counts is None else counts[0]
        for bound in self.bounds:
            if _stop(len(ops), deadline, count):
                break

            def call(bound=bound):
                tail = session.execute(self.sql.format(b=bound)).tail
                return {"estimate": float(tail.quantile_estimate),
                        "samples": np.asarray(tail.samples)}
            _timed(ops, "tail", call, bound=bound)
        return ops

    #: Standard error of one VaR estimate at the session's default
    #: budget, in standard deviations of the result distribution (0.13
    #: measured at a budget of 400; larger budgets do better).
    estimate_se = 0.13

    def check(self, ops) -> list[str]:
        """Each VaR within five standard errors of the analytic quantile
        of the filtered sum, and their mean error within five standard
        errors of the mean, which catches a biased estimator."""
        wrong = []
        m = self.means["m"]
        errors = []
        for op in ops:
            if op.status != "ok":
                continue
            bound = op.detail["bound"]
            truth = NormalResultDistribution(
                mean=float(m[:bound].sum()), variance=float(bound))
            expected = truth.quantile(0.99)
            estimate = op.detail["estimate"]
            samples = op.detail["samples"]
            errors.append((estimate - expected) / truth.std)
            problem = None
            if abs(errors[-1]) > 5 * self.estimate_se:
                problem = f"VaR {estimate:.2f} vs analytic {expected:.2f}"
            elif len(samples) != 100 or samples.min() < estimate:
                problem = "tail samples missing or below the VaR estimate"
            if problem:
                op.status = "wrong"
                wrong.append(f"tail_var CID < {bound}: {problem}")
        if errors and abs(np.mean(errors)) > \
                5 * self.estimate_se / math.sqrt(len(errors)):
            wrong.append(f"tail_var: VaR estimates biased by "
                         f"{np.mean(errors):+.3f} sigma on average")
        return wrong


# -- mc_grouped ---------------------------------------------------------------

class McGrouped:
    """Serial GROUP BY Monte Carlo over a 20,000-customer join.

    Not listed in ``BENCHMARK.json``: on a shared 2-CPU host its query
    time follows the host's load far more than the other workloads' do
    (0.69-1.50 s across runs minutes apart), so its median did not
    repeat within the gate's bound.  Run it by hand with
    ``--workload mc_grouped``.
    """

    name = "mc_grouped"
    headline = "mc"
    clients = 1
    rows = 20_000
    sql = ("SELECT seg, SUM(val) AS loss FROM Losses, segs "
           "WHERE seg = sid AND rate < {x!r} GROUP BY seg "
           "WITH RESULTDISTRIBUTION MONTECARLO(200)")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.base_seed = seed
        self.tables = _seg_tables(rng, self.rows)
        rates = self.tables["segs"]["rate"]
        # Even statements repeat one fixed statement, whose deterministic
        # subtrees the first one built; odd ones draw a fresh segs
        # predicate.
        reused = _rate_threshold(rng, rates, int(rng.integers(8, 17)))
        self.bounds = [
            reused if index % 2 == 0
            else _rate_threshold(rng, rates, int(rng.integers(8, 17)))
            for index in range(512)]

    @contextlib.contextmanager
    def system(self):
        with Session(base_seed=self.base_seed, options=SERIAL) as session:
            for name, columns in self.tables.items():
                session.add_table(name, columns)
            session.execute(CREATE_SEG_LOSSES)
            yield session

    def counters(self, session) -> dict:
        return {"det_cache": session.cache_stats()}

    def drive(self, session, deadline=None, counts=None) -> list[Op]:
        ops: list[Op] = []
        count = None if counts is None else counts[0]
        for bound in self.bounds:
            if _stop(len(ops), deadline, count):
                break
            sql = self.sql.format(x=bound)

            def call(sql=sql):
                before = session.cache_stats()["misses"]
                result = session.execute(sql).distributions
                return {"hit": session.cache_stats()["misses"] == before,
                        "samples": _group_samples(result)}
            _timed(ops, "mc", call, sql=sql, bound=bound)
        return ops

    def check(self, ops) -> list[str]:
        wrong = []
        means = self.tables["means"]
        rates = self.tables["segs"]["rate"]
        for op in ops:
            if op.status != "ok":
                continue
            bound = op.detail["bound"]
            expected = {seg for seg in range(len(rates))
                        if rates[seg] < bound
                        and np.any(means["seg"] == seg)}
            groups = op.detail["samples"]
            problem = None
            if set(groups) != expected:
                problem = f"groups {sorted(groups)} != {sorted(expected)}"
            for seg, samples in groups.items():
                members = means["seg"] == seg
                mean = float(means["m"][members].sum())
                sigma = math.sqrt(float(members.sum()))
                if abs(samples.mean() - mean) > 5 * sigma / math.sqrt(
                        len(samples)):
                    problem = (f"segment {seg}: mean {samples.mean():.2f} "
                               f"vs analytic {mean:.2f}")
            if problem:
                op.status = "wrong"
                wrong.append(f"mc_grouped: {problem}")
        # A det-cache hit must return exactly what a cold session computes.
        hits = [op for op in ops if op.status == "ok" and op.detail["hit"]]
        if not hits:
            wrong.append("mc_grouped: no statement was a det-cache hit")
            return wrong
        probe = hits[-1]
        with self.system() as cold:
            reference = _group_samples(
                cold.execute(probe.detail["sql"]).distributions)
        for op in ops:
            if op.status == "ok" and op.detail["sql"] == probe.detail["sql"] \
                    and not _same_groups(op.detail["samples"], reference):
                op.status = "wrong"
                wrong.append("mc_grouped: det-cache hit differs from a cold "
                             "session's samples")
        return wrong


def _group_samples(result) -> dict:
    return {int(key[0]): np.array(result.distribution("loss", key).samples)
            for key in result.group_keys}


def _same_groups(left: dict, right: dict) -> bool:
    return left.keys() == right.keys() and all(
        np.array_equal(left[key], right[key]) for key in left)


# -- standing_append ----------------------------------------------------------

class StandingAppend:
    """A standing MC query refreshed after each 50-row append."""

    name = "standing_append"
    headline = "refresh"
    clients = 1
    rows = 20_000
    batch = 50
    batches = 2000
    sql = ("SELECT SUM(val) AS loss FROM Losses WHERE CID >= {lo} "
           "WITH RESULTDISTRIBUTION MONTECARLO(200)")

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.base_seed = seed
        self.means = {"CID": np.arange(self.rows),
                      "m": rng.uniform(0.5, 3.0, self.rows)}
        self.sql = self.sql.format(lo=int(rng.integers(0, 1000)))
        total = self.batch * self.batches
        self.appended_m = rng.uniform(0.5, 3.0, total)

    def _batch(self, index: int) -> dict:
        lo = self.batch * index
        return {"CID": np.arange(self.rows + lo, self.rows + lo + self.batch),
                "m": self.appended_m[lo:lo + self.batch]}

    @contextlib.contextmanager
    def system(self):
        with Session(base_seed=self.base_seed, options=SERIAL) as session:
            session.add_table("means", self.means)
            session.execute(CREATE_LOSSES)
            handle = session.standing_query(self.sql)
            yield session, handle

    def counters(self, system) -> dict:
        return {"det_cache": system[0].cache_stats()}

    def drive(self, system, deadline=None, counts=None) -> list[Op]:
        session, handle = system
        ops: list[Op] = []
        count = None if counts is None else counts[0]
        for index in range(self.batches):
            if _stop(len(ops), deadline, count):
                break

            def append(index=index):
                old, new = session.append("means", self._batch(index))
                return {"grew": new - old, "batch": index}

            def refresh():
                result = handle.refresh()
                stats = handle.stats()
                return {"computed": stats["last_rows_computed"],
                        "reused": stats["last_rows_reused"],
                        "samples": result.distributions.distribution(
                            "loss").samples}
            _timed(ops, "append", append)
            _timed(ops, "refresh", refresh)
        return ops

    def check(self, ops) -> list[str]:
        wrong = []
        for op in ops:
            if op.kind == "append" and op.status == "ok" \
                    and op.detail["grew"] != self.batch:
                op.status = "wrong"
                wrong.append(f"standing_append: append grew the table by "
                             f"{op.detail['grew']} rows")
        appended = [op.detail["batch"] for op in ops
                    if op.kind == "append" and op.status == "ok"]
        refreshes = [op for op in ops
                     if op.kind == "refresh" and op.status == "ok"]
        if not refreshes:
            return wrong + ["standing_append: no refresh completed"]
        last = refreshes[-1]
        # The final refreshed samples must equal a fresh session's run on
        # the grown table.
        grown = {"CID": np.concatenate(
                     [self.means["CID"]]
                     + [self._batch(i)["CID"] for i in appended]),
                 "m": np.concatenate(
                     [self.means["m"]]
                     + [self._batch(i)["m"] for i in appended])}
        with Session(base_seed=self.base_seed, options=SERIAL) as fresh:
            fresh.add_table("means", grown)
            fresh.execute(CREATE_LOSSES)
            reference = fresh.execute(self.sql).distributions.distribution(
                "loss").samples
        if not np.array_equal(last.detail["samples"], reference):
            last.status = "wrong"
            wrong.append("standing_append: refreshed samples differ from a "
                         "fresh session on the grown table")
        return wrong


# -- server_mixed -------------------------------------------------------------

class ServerMixed:
    """Two tenants, two closed-loop HTTP clients, one shared worker pool.

    The pool is the process backend with worker-owned Gibbs state.  The
    server runs one query at a time: with two runner threads two tenants'
    tail queries deadlock that pool now and then (see
    :class:`ServerConcurrent`), and a run that hangs measures nothing.
    """

    name = "server_mixed"
    #: One client's round of its four statements.  With one runner, a
    #: statement's latency includes waiting for the other tenant's; the
    #: median round repeats across runs better than the median tail
    #: statement does.
    headline = "cycle"
    tenants = ("t0", "t1")
    clients = len(tenants)
    rows = 500
    append_rows = 20
    cycles = 400
    mc_sql = ("SELECT seg, SUM(val) AS loss FROM Losses, segs "
              "WHERE seg = sid AND rate < {x!r} GROUP BY seg "
              "WITH RESULTDISTRIBUTION MONTECARLO(100)")
    join_sql = ("SELECT sid, SUM(m) AS exposure FROM means, segs "
                "WHERE seg = sid AND rate < {x!r} GROUP BY sid")
    #: A 50-customer window at a fresh offset each cycle: the cost of a
    #: tail query swings with how many window refuels its streams need,
    #: so repeating one window would make a whole run one draw of that.
    tail_sql = ("SELECT SUM(val) AS loss FROM Losses "
                "WHERE CID >= {lo} AND CID < {hi} "
                "WITH RESULTDISTRIBUTION MONTECARLO(20) "
                "DOMAIN loss >= QUANTILE(0.9)")
    options = ExecutionOptions(n_jobs=2, backend="process")
    server_options = ServerOptions(concurrency=1, queue_depth=8,
                                   query_timeout=None)

    def __init__(self, seed: int):
        self.ports: list[int] = []  # every port a server listened on
        self.inputs = {}
        for index, tenant in enumerate(self.tenants):
            rng = np.random.default_rng([seed, 4, index])
            tables = _seg_tables(rng, self.rows)
            rates = tables["segs"]["rate"]
            script = []
            next_cid = self.rows
            for _ in range(self.cycles):
                script.append(("mc", self.mc_sql.format(
                    x=_rate_threshold(rng, rates, int(rng.integers(8, 17))))))
                script.append(("join", self.join_sql.format(
                    x=_rate_threshold(rng, rates, int(rng.integers(8, 17))))))
                script.append(("append", {
                    "CID": list(range(next_cid, next_cid + self.append_rows)),
                    "m": rng.uniform(0.5, 3.0, self.append_rows).tolist(),
                    "seg": rng.integers(0, 16, self.append_rows).tolist()}))
                next_cid += self.append_rows
                lo = int(rng.integers(0, self.rows - 50))
                script.append(("tail", self.tail_sql.format(lo=lo,
                                                            hi=lo + 50)))
            self.inputs[tenant] = {"base_seed": seed * 10 + index,
                                   "tables": tables, "script": script}

    # -- HTTP client -------------------------------------------------------

    @staticmethod
    def _call(url, method="GET", body=None, timeout=60.0):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode())

    def _query(self, base, tenant, sql, stop=None) -> dict:
        submitted = self._call(f"{base}/tenants/{tenant}/queries", "POST",
                               {"sql": sql})
        while stop is None or not stop.is_set():
            record = self._call(
                f"{base}/queries/{submitted['query_id']}?wait=5")
            if record["status"] not in ("queued", "running"):
                return record
        raise RuntimeError("run aborted while the query was in flight")

    @contextlib.contextmanager
    def system(self):
        with RiskServer(options=self.options,
                        server_options=self.server_options) as server:
            self.ports.append(server.port)
            base = server.url
            for tenant, inputs in self.inputs.items():
                self._call(f"{base}/tenants/{tenant}", "POST",
                           {"base_seed": inputs["base_seed"]})
                for name, columns in inputs["tables"].items():
                    self._call(f"{base}/tenants/{tenant}/tables", "POST", {
                        "name": name,
                        "columns": {key: value.tolist()
                                    for key, value in columns.items()}})
                for sql in (CREATE_SEG_LOSSES,
                            # spawns the shared pool before timing starts
                            "SELECT SUM(val) AS s FROM Losses WHERE CID < 4 "
                            "WITH RESULTDISTRIBUTION MONTECARLO(4)"):
                    record = self._query(base, tenant, sql)
                    if record["status"] != "done":
                        raise RuntimeError(f"setup failed: {record}")
            yield server

    def counters(self, server) -> dict:
        stats = self._call(f"{server.url}/stats")
        det: dict = {}
        for tenant in stats["tenants"]:
            for key, value in tenant["det_cache"].items():
                if isinstance(value, int):
                    det[key] = det.get(key, 0) + value
        return {"det_cache": det, "pool": stats.get("pool", {}),
                "rejected": stats["counters"]["rejected"]}

    def drive(self, server, deadline=None, counts=None) -> list[Op]:
        base = server.url
        per_client: list[list[Op]] = [[] for _ in self.tenants]
        stop = threading.Event()

        def client(index: int) -> None:
            tenant = self.tenants[index]
            ops = per_client[index]
            count = None if counts is None else counts[index]
            for step, (kind, payload) in enumerate(
                    self.inputs[tenant]["script"]):
                if stop.is_set() or _stop(len(ops), deadline, count):
                    return
                if kind == "append":
                    def call(payload=payload):
                        self._call(f"{base}/tenants/{tenant}/tables/means"
                                   "/rows", "POST", {"columns": payload})
                        return {}
                else:
                    def call(payload=payload):
                        record = self._query(base, tenant, payload, stop)
                        if record["status"] != "done":
                            raise RuntimeError(
                                f"query {record['status']}: "
                                f"{record.get('error')}")
                        return {"record": record}
                op = _timed(ops, kind, call, client=index, step=step)
                if op.status == "failed" and "HTTP Error 429" in \
                        op.detail.get("error", ""):
                    op.status = "refused"

        threads = [threading.Thread(target=client, args=(index,),
                                    name=f"perfbench-client-{index}")
                   for index in range(len(self.tenants))]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                while thread.is_alive():
                    thread.join(timeout=0.5)
        finally:
            stop.set()
            for thread in threads:
                # A client stuck on a wedged server must not hang the run.
                thread.join(timeout=10.0)
        return [op for ops in per_client for op in ops]

    def cycle_seconds(self, ops) -> list[float]:
        """Summed latency of each complete round (mc, join, append, tail)
        a client ran, one value per round."""
        rounds: dict = {}
        for op in ops:
            step = op.detail["step"]
            rounds.setdefault((op.client, step // 4), []).append(op.seconds)
        return [sum(times) for times in rounds.values() if len(times) == 4]

    def check(self, ops) -> list[str]:
        """Replay each tenant's sequence on one serial session and demand
        byte-equal payloads."""
        wrong = []
        for index, tenant in enumerate(self.tenants):
            inputs = self.inputs[tenant]
            mine = sorted((op for op in ops if op.client == index),
                          key=lambda op: op.detail["step"])
            with Session(base_seed=inputs["base_seed"],
                         options=SERIAL) as session:
                for name, columns in inputs["tables"].items():
                    session.add_table(name, columns)
                session.execute(CREATE_SEG_LOSSES)
                for op in mine:
                    kind, payload = inputs["script"][op.detail["step"]]
                    if op.status != "ok":
                        # Unknown whether a failed append landed; nothing
                        # after it can be compared.
                        if kind == "append":
                            break
                        continue
                    if kind == "append":
                        session.append("means", payload)
                        continue
                    expected = json.loads(json.dumps(
                        output_to_wire(session.execute(payload))))
                    if _comparable(op.detail["record"]["result"]) \
                            != _comparable(expected):
                        op.status = "wrong"
                        wrong.append(f"server_mixed {tenant} step "
                                     f"{op.detail['step']} ({kind}): "
                                     "payload differs from serial replay")
        return wrong


class ServerConcurrent(ServerMixed):
    """``server_mixed`` with two runner threads on the shared pool.

    Not listed in ``BENCHMARK.json``: in about one run in eight the pool
    deadlocks.  One runner thread blocks in ``state_cast`` sending to a
    worker while holding the ``SharedBackend`` lock; the worker is
    blocked writing a reply for the other tenant's query, whose runner
    waits for that lock in ``state_collect``.  Run it by hand with
    ``--workload server_concurrent``; the watchdog reports the hang.
    """

    name = "server_concurrent"
    server_options = ServerOptions(concurrency=2, queue_depth=8,
                                   query_timeout=None)


#: Tail payload fields that count which windows the pool served; they
#: describe the transport, so a serial replay legitimately reads 0.
TRANSPORT_FIELDS = ("sharded_windows", "followup_windows")


def _comparable(payload: dict) -> dict:
    if "tail" not in payload:
        return payload
    tail = {key: value for key, value in payload["tail"].items()
            if key not in TRANSPORT_FIELDS}
    return dict(payload, tail=tail)


WORKLOADS = {cls.name: cls for cls in
             (TailVar, McGrouped, StandingAppend, ServerMixed,
              ServerConcurrent)}
