"""Self-test of the benchmark's bookkeeping on synthetic spans and operations.

    python3 -m pytest -q perfbench/tests
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import (  # noqa: E402
    FAILED, KNOWN, OK, NoResult, Span, Tracer, judge, percentile,
    samples_beyond, self_times, tail_percentile, tally,
)


def span(name, start, end, parent=None, error=None, **info):
    return Span(name, start, end, parent, "op", error, info)


# ------------------------------------------------------------ self time

def test_self_time_subtracts_children_only_once():
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),     # overlaps a: [1, 5] covered once
        span("c", 8.0, 12.0, parent=0),    # clipped to the parent's end
        span("grandchild", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_nests_and_records_only_inside_an_operation():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.open("ignored") is None
    tracer.add("bytes", 5)
    tracer.op = "op-1"
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer, error="NumericalError")
    tracer.add("bytes", 7)
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, "op-1"), ("inner", 0, "op-1")]
    assert tracer.spans[0].error == "NumericalError"
    assert tracer.counters == {"bytes": 7}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_rejects_spans_closed_out_of_order():
    tracer = Tracer()
    tracer.op = "op"
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_layer_self_time_and_solver_failures():
    layers = pytest.importorskip("layers")  # needs numpy, not the package
    spans = [
        span("macroscopics.fundamental_diagram", 0.0, 1.0),
        span("matrices.build_chi_tensor", 0.1, 0.3, parent=0, nnz=3, n2=9, accel_bytes=72),
        span("dynamics.find_steady_state", 0.3, 0.9, parent=0, error="NumericalError"),
        span("dynamics.find_steady_state", 1.0, 1.5, error="SteadyStateTimeout"),
        span("cli.simulate", 2.0, 5.0),
        span("dynamics.integrate", 2.5, 4.0, parent=4, steps=1000),
    ]
    m = layers.pass_metrics(spans, {"cli.bytes_written": 42.0})
    assert m["macroscopics.fundamental_diagram.self_s"] == pytest.approx(0.2)
    assert m["macroscopics.fundamental_diagram.calls"] == 1
    assert m["dynamics.find_steady_state.calls"] == 2
    assert m["dynamics.find_steady_state.failed"] == 2
    assert m["dynamics.find_steady_state.timeouts"] == 1
    assert m["dynamics.integrate.step_us"] == pytest.approx(1500.0)
    assert m["matrices.accel_nnz_share"] == pytest.approx(1 / 3)
    assert m["cli.simulate.wall_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["cli.bytes_written"] == 42.0
    assert set(m) == set(layers.METRICS) - {"trace.overhead_share"}


# ------------------------------------------------------- tail percentile

def test_percentile_interpolates_like_numpy():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0], 0) == 1.0
    assert percentile([1.0, 2.0], 100) == 2.0
    assert percentile(list(range(101)), 90) == 90.0


@pytest.mark.parametrize("n", [11, 20, 57, 100, 101, 500, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    p = tail_percentile(n)
    beyond = sum(v > percentile(values, p) for v in values)
    assert beyond == samples_beyond(n, p) >= 10
    if p < 99:
        assert sum(v > percentile(values, p + 1) for v in values) < 10


def test_tail_percentile_of_one_fd_sweep_pass_is_p90():
    assert tail_percentile(100) == 90
    assert samples_beyond(100, 90) == 10
    with pytest.raises(ValueError):
        tail_percentile(10)


# ----------------------------------------------------- outcome counting

class Boom(Exception):
    pass


def op(check=lambda out: None, hard_case=None):
    return SimpleNamespace(check=check, hard_case=hard_case)


def no_result(out):
    raise NoResult("not converged")


@pytest.mark.parametrize("case, out, error, expected", [
    (op(), 1.0, None, OK),
    (op(check=lambda out: "wrong value"), 1.0, None, FAILED),
    (op(check=lambda out: 1 / 0), 1.0, None, FAILED),
    (op(), None, Boom("solver"), FAILED),
    (op(hard_case="ledger"), None, Boom("solver"), KNOWN),
    (op(hard_case="ledger"), None, ValueError("bad input"), FAILED),
    (op(hard_case="ledger", check=no_result), 1.0, None, KNOWN),
    (op(check=no_result), 1.0, None, FAILED),
    (op(hard_case="ledger", check=lambda out: "wrong value"), 1.0, None, FAILED),
])
def test_judge(case, out, error, expected):
    outcome, note = judge(case, out, error, (Boom, NoResult))
    assert outcome == expected
    assert (note == "") == (expected == OK)


def test_failed_share_counts_hard_cases_and_failures():
    t = tally([OK] * 97 + [KNOWN] * 2 + [FAILED])
    assert (t.attempted, t.ok, t.known, t.failed) == (100, 97, 2, 1)
    assert t.failed_share == pytest.approx(0.03)
    assert t.solved_share == pytest.approx(0.97)
    with pytest.raises(ValueError):
        tally(["skipped"])
