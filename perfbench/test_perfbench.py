"""Unit tests of the benchmark's own rules.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import CpuMeter, closed_loop, steal_pct  # noqa: E402
from programs import check_arrays, churn_program  # noqa: E402
from stats import (  # noqa: E402
    Span,
    Tally,
    self_times,
    tail_quantile,
    typed_quantiles,
    union_length,
)


# -- the quantile rule --------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_quantile(list(range(99)), 0.9) is None
    samples = list(range(100))
    assert tail_quantile(samples, 0.9) == 89  # ranks 91..100 lie beyond


def test_p90_is_nearest_rank_and_order_free():
    samples = [float(x) for x in range(150, 0, -1)]
    # ceil(0.9 * 150) = 135th smallest; 15 samples lie beyond it.
    assert tail_quantile(samples, 0.9) == 135.0


def test_p99_needs_a_thousand_samples():
    assert tail_quantile([1.0] * 999, 0.99) is None
    assert tail_quantile([1.0] * 1000, 0.99) == 1.0


def test_quantile_rejects_bad_q_and_empty_input():
    with pytest.raises(ValueError):
        tail_quantile([1.0] * 200, 1.0)
    assert tail_quantile([], 0.5) is None


def test_typed_p50_weighs_each_type_alike():
    # Two types, one more than twice as frequent: the p50 is the geometric
    # mean of the two medians, not the pooled median in the larger mode.
    samples = [("fast", 10.0)] * 70 + [("slow", 40.0)] * 30
    p50, p90 = typed_quantiles(samples)
    assert p50 == pytest.approx(20.0)
    assert p90 == pytest.approx(20.0)  # no spread within either type


def test_typed_p90_scales_the_pooled_spread_over_type_medians():
    fast = [("fast", 10.0 + i % 10) for i in range(100)]  # median 14.5
    slow = [("slow", 2 * (10.0 + i % 10)) for i in range(100)]
    p50, p90 = typed_quantiles(fast + slow)
    assert p50 == pytest.approx((14.5 * 29.0) ** 0.5)
    # The 180th of 200 ratios is 18 / 14.5.
    assert p90 == pytest.approx(p50 * 18.0 / 14.5)
    assert typed_quantiles(fast[:50])[1] is None  # too few beyond p90


def read(meter):
    return meter.own() + meter.others()


SPIN = ("import time\nt = time.process_time()\n"
        "while time.process_time() - t < 0.3: pass\ntime.sleep({})")


def test_cpu_meter_counts_children_while_alive_and_once_reaped():
    import subprocess

    meter = CpuMeter(os.getsid(0))
    c0 = read(meter)
    child = subprocess.Popen([sys.executable, "-c", SPIN.format(30)])
    try:
        time.sleep(1.0)
        assert read(meter) - c0 >= 0.3  # alive: its own CPU clock
    finally:
        child.kill()
        child.wait()
    c0 = read(meter)
    subprocess.run([sys.executable, "-c", SPIN.format(0)], check=True)
    assert read(meter) - c0 >= 0.3  # reaped: this process's children


def test_cpu_meter_leaves_out_sleep():
    import subprocess

    meter = CpuMeter()
    c0 = read(meter)
    subprocess.run([sys.executable, "-c", "import time; time.sleep(0.5)"],
                   check=True)
    assert read(meter) - c0 < 0.3


# -- self time ----------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(5, 6), (0, 10)]) == 10.0


def test_self_time_subtracts_children_once():
    spans = [
        Span("engine.run", 0.0, 10.0),
        Span("safety.verify", 1.0, 3.0, parent=0),
        Span("engine.dispatch", 2.0, 6.0, parent=0),  # overlaps verify
        Span("engine.dispatch", 7.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own["engine.run"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["safety.verify"] == pytest.approx(2.0)
    assert own["engine.dispatch"] == pytest.approx(5.0)  # summed by name


def test_self_time_nests_and_clips_children():
    spans = [
        Span("op", 0.0, 4.0),
        Span("engine.run", 1.0, 5.0, parent=0),  # runs past its parent
        Span("pool.start", 1.0, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own["op"] == pytest.approx(1.0)
    assert own["engine.run"] == pytest.approx(3.0)
    assert own["pool.start"] == pytest.approx(1.0)


# -- failure accounting -------------------------------------------------------


def test_tally_counts_failures_against_attempts():
    t = Tally()
    t.ok()
    t.fail("wrong output")
    t.fail("wrong output")
    t.fail("HTTP 500")
    assert (t.attempted, t.failed) == (4, 3)
    assert t.reasons["wrong output"] == 2


def test_closed_loop_counts_errors_and_wrong_outputs():
    outcomes = iter([
        "good", OSError("connection reset"), "bad", "good", TimeoutError(),
    ])

    def call(op):
        out = next(outcomes)
        if isinstance(out, BaseException):
            raise out
        return out

    def check(op, out):
        return None if out == "good" else "wrong output"

    tally = Tally()
    samples = closed_loop(time.monotonic() + 60, range(5), call, check,
                          tally, CpuMeter())
    assert [op for op, _, _ in samples] == [0, 3]
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons["wrong output"] == 1


def test_closed_loop_stops_at_the_deadline():
    tally = Tally()
    samples = closed_loop(time.monotonic() - 1, range(5), lambda op: op,
                          lambda op, out: None, tally, CpuMeter())
    assert samples == [] and tally.attempted == 0


# -- oracles and inputs ---------------------------------------------------------


def test_check_arrays_names_the_problem():
    want = {"A": np.zeros((3, 3))}
    assert check_arrays({"A": np.zeros((3, 3))}, want) is None
    assert "missing" in check_arrays({}, want)
    assert "shape" in check_arrays({"A": np.zeros((2, 3))}, want)
    assert "differs" in check_arrays({"A": np.full((3, 3), 1e-6)}, want)


def test_churn_programs_are_seeded_and_never_repeat():
    a = [churn_program(7, i) for i in range(50)]
    assert [p.source for p in a] == [churn_program(7, i).source
                                     for i in range(50)]
    assert len({p.source for p in a}) == 50
    assert churn_program(8, 0).source != a[0].source


def test_churn_program_matches_its_oracle():
    from repro.frontend.dsl import parse
    from repro.runtime.interp import Interpreter

    prog = churn_program(3, 5)
    arrays, scalars = prog.inputs(11)
    want = prog.expected(arrays, scalars)
    got = {n: a.copy() for n, a in arrays.items()}
    Interpreter().run(parse(prog.source), got, scalars)
    assert prog.check(got, want) is None


def test_steal_share_of_cpu_ticks():
    before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
    after = [200, 0, 100, 1500, 0, 0, 0, 200, 5, 5]  # guest ticks ignored
    assert steal_pct(before, after) == pytest.approx(100.0 * 150 / 1000)
    assert steal_pct(before, before) == 0.0
