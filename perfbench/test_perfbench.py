"""Tests of the benchmark's own machinery (tracer, self time, restore).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import hygiene  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span, Tracer, coverage, self_times  # noqa: E402
from workloads import McGrouped, _timed  # noqa: E402


def test_self_time_subtracts_only_direct_children_on_the_same_thread():
    spans = [
        Span(1, None, "root", 1, 0.0, 10.0),
        Span(2, 1, "left", 1, 1.0, 4.0),
        Span(3, 2, "leaf", 1, 2.0, 3.0),
        Span(4, 1, "right", 1, 5.0, 7.5),
        # Recorded by another thread: never subtracted from span 1.
        Span(5, 1, "elsewhere", 2, 0.5, 9.5),
        # A child reaching past its parent counts only inside the parent.
        Span(6, 4, "spill", 1, 7.0, 8.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.5)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.5 - 0.5)
    assert own[5] == pytest.approx(9.0)
    assert own[6] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    spans = [Span(1, None, "root", 1, 0.0, 10.0),
             Span(2, 1, "a", 1, 1.0, 5.0),
             Span(3, 1, "b", 1, 4.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0)


def test_coverage_is_the_union_of_top_level_spans_across_threads():
    spans = [Span(1, None, "a", 1, 1.0, 4.0),
             Span(2, None, "b", 2, 3.0, 5.0),
             Span(3, 1, "child", 1, 1.0, 9.0),
             Span(4, None, "late", 1, 9.0, 12.0)]
    assert coverage(spans, 0.0, 10.0) == pytest.approx((4.0 + 1.0) / 10.0)


def test_spans_are_tagged_with_their_thread_and_parent():
    class Box:
        def outer(self):
            return self.inner()

        def inner(self):
            return threading.get_ident()

    original = Box.outer
    module = type(sys)("repro_perfbench_probe")
    module.Box = Box
    sys.modules[module.__name__] = module
    try:
        with Tracer({"outer": f"{module.__name__}:Box.outer",
                     "inner": f"{module.__name__}:Box.inner"}) as traced:
            idents = []
            worker = threading.Thread(
                target=lambda: idents.append(Box().outer()))
            worker.start()
            worker.join()
            idents.append(Box().outer())
    finally:
        del sys.modules[module.__name__]
    assert vars(Box)["outer"] is original
    by_name = {}
    for span in traced.spans:
        by_name.setdefault(span.name, []).append(span)
    assert {span.thread for span in by_name["inner"]} == set(idents)
    outer_ids = {span.span_id: span.thread for span in by_name["outer"]}
    for span in by_name["inner"]:
        assert outer_ids[span.parent] == span.thread


def _attributes():
    """Every attribute the tracer replaces, with what it holds now."""
    found = {}
    for path in layers.TARGETS.values():
        owner, attr = tracing._resolve(path)
        original = getattr(owner, attr)
        found[(id(owner), attr)] = (owner, attr, attr in vars(owner),
                                    original)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for alias, value in vars(module).items():
                    if value is original:
                        found[(id(module), alias)] = (module, alias, True,
                                                      original)
    return found


def test_traced_run_puts_every_original_back():
    before = _attributes()
    result = run.run_traced(McGrouped(3), seconds=2.0, seed=3)
    assert result["ops"] and result["spans"] > 0
    metrics = result["layer_metrics"]
    assert set(metrics) == set(layers.UNITS)
    assert metrics["engine.mcdb.run_s"] > 0
    assert metrics["engine.operators.join_s"] > 0
    for owner, attr, had_own, original in before.values():
        assert (attr in vars(owner)) == had_own, (owner, attr)
        assert getattr(owner, attr) is original, (owner, attr)
    # The aliases callers hold are the originals again, too.
    from repro.server import app
    from repro.sql import parser, session
    assert session.parse is parser.parse
    assert app.parse_sql is parser.parse


def test_failed_install_restores_what_it_already_replaced():
    from repro.sql import parser, session
    original = parser.parse
    broken = Tracer({"parse": "repro.sql.parser:parse",
                     "missing": "repro.sql.parser:no_such_function"})
    with pytest.raises(AttributeError):
        broken.install()
    assert parser.parse is original and session.parse is original


def test_an_operation_records_errors_but_not_the_watchdog():
    ops = []

    def broken():
        raise ValueError("boom")
    assert _timed(ops, "op", broken).status == "failed"

    def overrun():
        raise hygiene.RunTimeout("limit")
    with pytest.raises(hygiene.RunTimeout):
        _timed(ops, "op", overrun)
    assert len(ops) == 1
