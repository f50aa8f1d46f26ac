"""``MCDBR_*`` environment-knob parsing (``ExecutionOptions.from_env``).

Every execution knob is overridable from the environment for CI smoke
runs, the risk server and the quickstart; parsing must be eager and
strict — a misspelled value fails with a clear :class:`EngineError`
naming the variable, never a late ``ValueError`` from some construction
site deep in a query.  ``from_env`` is also the *only* reader: the
class defaults never consult the environment.
"""

import os
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.engine.errors import EngineError
from repro.engine.options import (
    _ENV_KNOBS, ExecutionOptions, ServerOptions, env_bool, env_choice,
    env_float, env_int)

ALL_KNOBS = (
    "MCDBR_ENGINE", "MCDBR_N_JOBS", "MCDBR_BACKEND", "MCDBR_SHARD_SIZE",
    "MCDBR_REPLENISHMENT", "MCDBR_DET_CACHE", "MCDBR_WINDOW_GROWTH",
    "MCDBR_SPECULATE_DEPTH", "MCDBR_JOIN_TIMEOUT")

#: Knobs of execution modes that no longer exist.  A deployment still
#: setting one must fail loudly instead of silently running the default.
RETIRED_KNOBS = ("GIBBS_STATE", "STATE_REINIT", "SPECULATE", "SWEEP_ORDER",
                 "SHM", "DET_CACHE_KEYING")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("MCDBR_"):
            monkeypatch.delenv(name)


class TestFromEnvDefaults:
    def test_empty_environment_gives_defaults(self):
        options = ExecutionOptions.from_env()
        assert options == ExecutionOptions(
            engine="vectorized", n_jobs=1, backend="process",
            shard_size=None, replenishment="delta", det_cache="session",
            window_growth=1.0, speculate_depth=4, join_timeout=None)

    def test_one_env_knob_per_field(self):
        assert len(fields(ExecutionOptions)) == len(ALL_KNOBS)
        assert {name for name in _ENV_KNOBS
                if not name.startswith("MCDBR_SERVER_")} == set(ALL_KNOBS)

    def test_overrides_win_over_environment(self, monkeypatch):
        monkeypatch.setenv("MCDBR_N_JOBS", "4")
        monkeypatch.setenv("MCDBR_BACKEND", "thread")
        options = ExecutionOptions.from_env(backend="serial")
        assert options.backend == "serial"
        assert options.n_jobs == 4  # env still applies where not overridden

    def test_unknown_override_is_rejected(self):
        with pytest.raises(EngineError, match="unknown ExecutionOptions"):
            ExecutionOptions.from_env(warp_drive=True)

    @pytest.mark.parametrize("name", [
        "MCDBR_SPECULTE",
        *(f"MCDBR_{retired}" for retired in RETIRED_KNOBS),
    ])
    def test_misspelled_variable_name_is_rejected(self, monkeypatch, name):
        """A typo'd *name* — or a retired knob's — must fail fast too:
        silently falling back to the default is the exact failure mode
        from_env exists to stop."""
        monkeypatch.setenv(name, "0")
        with pytest.raises(EngineError,
                           match=f"unrecognized environment knobs.*{name}"):
            ExecutionOptions.from_env()

    def test_defaults_ignore_the_environment(self):
        """Only from_env reads MCDBR_*: a variable set before ``repro``
        is even imported leaves the class defaults alone."""
        script = (
            "from repro import ExecutionOptions\n"
            "print(ExecutionOptions().speculate_depth,"
            " ExecutionOptions.from_env().speculate_depth)\n")
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("MCDBR_")}
        env["MCDBR_SPECULATE_DEPTH"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             env.get("PYTHONPATH", "")])
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60, check=True)
        assert completed.stdout.split() == ["4", "0"]


class TestFromEnvValues:
    @pytest.mark.parametrize("name, value, field, expected", [
        ("MCDBR_ENGINE", "reference", "engine", "reference"),
        ("MCDBR_ENGINE", "vectorized", "engine", "vectorized"),
        ("MCDBR_N_JOBS", "3", "n_jobs", 3),
        ("MCDBR_BACKEND", "serial", "backend", "serial"),
        ("MCDBR_BACKEND", "thread", "backend", "thread"),
        ("MCDBR_BACKEND", "process", "backend", "process"),
        ("MCDBR_SHARD_SIZE", "7", "shard_size", 7),
        ("MCDBR_REPLENISHMENT", "full", "replenishment", "full"),
        ("MCDBR_REPLENISHMENT", "delta", "replenishment", "delta"),
        ("MCDBR_DET_CACHE", "off", "det_cache", "off"),
        ("MCDBR_DET_CACHE", "context", "det_cache", "context"),
        ("MCDBR_DET_CACHE", "session", "det_cache", "session"),
        ("MCDBR_WINDOW_GROWTH", "2.5", "window_growth", 2.5),
        ("MCDBR_SPECULATE_DEPTH", "8", "speculate_depth", 8),
        ("MCDBR_SPECULATE_DEPTH", "0", "speculate_depth", 0),
        ("MCDBR_JOIN_TIMEOUT", "2.5", "join_timeout", 2.5),
    ])
    def test_each_knob_flows_through(self, monkeypatch, name, value,
                                     field, expected):
        monkeypatch.setenv(name, value)
        assert getattr(ExecutionOptions.from_env(), field) == expected

    @pytest.mark.parametrize("spelling, expected", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("false", False), ("No", False), ("OFF", False),
    ])
    def test_boolean_spellings(self, monkeypatch, spelling, expected):
        monkeypatch.setenv("MCDBR_SERVER_STANDING_AUTOREFRESH", spelling)
        assert ServerOptions.from_env().standing_autorefresh is expected


class TestFromEnvRejections:
    @pytest.mark.parametrize("name, value", [
        ("MCDBR_ENGINE", "warp-drive"),
        ("MCDBR_BACKEND", "fork"),
        ("MCDBR_REPLENISHMENT", "partial"),
        ("MCDBR_DET_CACHE", "disk"),
    ])
    def test_invalid_choice_names_the_variable(self, monkeypatch, name,
                                               value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EngineError, match=name):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["two", "", "1.5"])
    def test_non_integer_n_jobs(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_N_JOBS", value)
        with pytest.raises(EngineError, match="MCDBR_N_JOBS"):
            ExecutionOptions.from_env()

    def test_n_jobs_below_minimum(self, monkeypatch):
        monkeypatch.setenv("MCDBR_N_JOBS", "0")
        with pytest.raises(EngineError, match="must be >= 1"):
            ExecutionOptions.from_env()

    def test_shard_size_below_minimum(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SHARD_SIZE", "0")
        with pytest.raises(EngineError, match="MCDBR_SHARD_SIZE"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["fast", "0.5"])
    def test_invalid_window_growth(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_WINDOW_GROWTH", value)
        with pytest.raises(EngineError, match="MCDBR_WINDOW_GROWTH"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["maybe", "2", ""])
    def test_invalid_boolean(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_SERVER_STANDING_AUTOREFRESH", value)
        with pytest.raises(EngineError,
                           match="MCDBR_SERVER_STANDING_AUTOREFRESH"):
            ServerOptions.from_env()

    @pytest.mark.parametrize("value", ["-1", "four", "2.5", ""])
    def test_invalid_speculate_depth(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_SPECULATE_DEPTH", value)
        with pytest.raises(EngineError, match="MCDBR_SPECULATE_DEPTH"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["0", "-2", "soon", ""])
    def test_invalid_join_timeout(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_JOIN_TIMEOUT", value)
        with pytest.raises(EngineError, match="MCDBR_JOIN_TIMEOUT"):
            ExecutionOptions.from_env()


class TestEnvHelpers:
    """The parsing primitives both ``from_env`` parsers go through."""

    def test_env_choice_default_and_value(self, monkeypatch):
        assert env_choice("MCDBR_REPLENISHMENT", "delta",
                          ("delta", "full")) == "delta"
        monkeypatch.setenv("MCDBR_REPLENISHMENT", "full")
        assert env_choice("MCDBR_REPLENISHMENT", "delta",
                          ("delta", "full")) == "full"

    def test_env_choice_lists_supported_values(self, monkeypatch):
        monkeypatch.setenv("MCDBR_REPLENISHMENT", "nowhere")
        with pytest.raises(EngineError, match="delta|full"):
            env_choice("MCDBR_REPLENISHMENT", "delta", ("delta", "full"))

    def test_env_int_and_float_and_bool(self, monkeypatch):
        monkeypatch.setenv("K_INT", "5")
        monkeypatch.setenv("K_FLOAT", "1.25")
        monkeypatch.setenv("K_BOOL", "off")
        assert env_int("K_INT", 1) == 5
        assert env_float("K_FLOAT", 1.0, 1.0) == 1.25
        assert env_bool("K_BOOL", True) is False
        assert env_int("K_MISSING", 9) == 9
        assert env_float("K_MISSING", 2.0, 1.0) == 2.0
        assert env_bool("K_MISSING", True) is True

    def test_direct_construction_still_raises_value_error(self):
        # The constructor keeps its ValueError contract for programmatic
        # misuse; EngineError is specifically the env-parsing surface.
        with pytest.raises(ValueError, match="replenishment"):
            ExecutionOptions(replenishment="bogus")
        with pytest.raises(ValueError, match="det_cache"):
            ExecutionOptions(det_cache="disk")
        with pytest.raises(ValueError, match="speculate_depth"):
            ExecutionOptions(speculate_depth=-1)
        with pytest.raises(ValueError, match="join_timeout"):
            ExecutionOptions(join_timeout=0.0)


SERVER_KNOBS = ("MCDBR_SERVER_CONCURRENCY", "MCDBR_SERVER_QUEUE_DEPTH",
                "MCDBR_SERVER_QUERY_TIMEOUT")


class TestServerOptionsFromEnv:
    """Risk-service admission knobs (``ServerOptions.from_env``)."""

    @pytest.fixture(autouse=True)
    def _clean_server_env(self, monkeypatch):
        for name in SERVER_KNOBS:
            monkeypatch.delenv(name, raising=False)

    def test_defaults(self):
        options = ServerOptions.from_env()
        assert options.concurrency == 4
        assert options.queue_depth == 32
        assert options.query_timeout == 30.0

    def test_each_knob_flows_through(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SERVER_CONCURRENCY", "2")
        monkeypatch.setenv("MCDBR_SERVER_QUEUE_DEPTH", "5")
        monkeypatch.setenv("MCDBR_SERVER_QUERY_TIMEOUT", "1.5")
        options = ServerOptions.from_env()
        assert options.concurrency == 2
        assert options.queue_depth == 5
        assert options.query_timeout == 1.5

    def test_overrides_win_over_environment(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SERVER_CONCURRENCY", "2")
        options = ServerOptions.from_env(concurrency=8, query_timeout=None)
        assert options.concurrency == 8
        assert options.query_timeout is None

    def test_unknown_override_rejected(self):
        with pytest.raises(EngineError, match="max_tenants"):
            ServerOptions.from_env(max_tenants=3)

    @pytest.mark.parametrize("name,value", [
        ("MCDBR_SERVER_CONCURRENCY", "zero"),
        ("MCDBR_SERVER_QUEUE_DEPTH", "1.5"),
        ("MCDBR_SERVER_QUERY_TIMEOUT", "soon"),
    ])
    def test_invalid_value_names_the_variable(self, monkeypatch, name,
                                              value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EngineError, match=name):
            ServerOptions.from_env()

    def test_server_knobs_do_not_trip_execution_from_env(self, monkeypatch):
        # Both parsers run in one server process from one environment:
        # MCDBR_SERVER_* must not be flagged as a misspelled execution
        # knob by ExecutionOptions.from_env's unknown-name sweep.
        for name, value in zip(SERVER_KNOBS, ("2", "5", "1.5")):
            monkeypatch.setenv(name, value)
        assert ExecutionOptions.from_env().n_jobs >= 1

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="concurrency"):
            ServerOptions(concurrency=0)
        with pytest.raises(ValueError, match="queue_depth"):
            ServerOptions(queue_depth=0)
        with pytest.raises(ValueError, match="query_timeout"):
            ServerOptions(query_timeout=0.0)
        assert ServerOptions(query_timeout=None).query_timeout is None
