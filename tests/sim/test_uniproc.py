"""Unit tests for the single-logical-processor simulator."""

import pytest

from repro.model import JobState, Task, TaskSet
from repro.sim import make_policy, simulate_uniproc
from repro.sim.trace import SimEventKind
from repro.sim.uniproc import merge_windows, subtract_blackouts


def run(ts, alg="EDF", windows=None, horizon=24.0, **kw):
    windows = windows if windows is not None else [(0.0, horizon)]
    return simulate_uniproc(
        ts, make_policy(ts, alg), windows, horizon, **kw
    )


class TestWindowHelpers:
    def test_merge_orders_and_merges(self):
        assert merge_windows([(5, 8), (0, 2), (2, 4)], 10.0) == [(0.0, 4.0), (5.0, 8.0)]

    def test_merge_clips_horizon(self):
        assert merge_windows([(0, 20)], 10.0) == [(0.0, 10.0)]

    def test_merge_drops_empty(self):
        assert merge_windows([(3, 3)], 10.0) == []

    def test_subtract_blackouts_middle(self):
        out = subtract_blackouts([(0, 10)], [(4, 6)])
        assert out == [(0, 4), (6, 10)]

    def test_subtract_blackouts_edges(self):
        out = subtract_blackouts([(0, 10)], [(0, 3), (8, 10)])
        assert out == [(3, 8)]

    def test_subtract_no_overlap(self):
        assert subtract_blackouts([(0, 2)], [(5, 6)]) == [(0, 2)]

    def test_merge_windows_touching_within_eps(self):
        # Gap smaller than EPS counts as touching and merges.
        from repro.util import EPS

        out = merge_windows([(0.0, 2.0), (2.0 + EPS / 2, 4.0)], 10.0)
        assert out == [(0.0, 4.0)]

    def test_merge_windows_gap_just_beyond_eps_stays_split(self):
        from repro.util import EPS

        out = merge_windows([(0.0, 2.0), (2.0 + 10 * EPS, 4.0)], 10.0)
        assert len(out) == 2

    def test_merge_contained_window_absorbed(self):
        assert merge_windows([(0, 10), (2, 4)], 20.0) == [(0.0, 10.0)]

    def test_merge_drops_window_entirely_past_horizon(self):
        assert merge_windows([(12, 15), (0, 2)], 10.0) == [(0.0, 2.0)]

    def test_merge_negative_start_clipped_to_zero(self):
        assert merge_windows([(-5, 3)], 10.0) == [(0.0, 3.0)]

    def test_subtract_blackout_exactly_covers_window(self):
        assert subtract_blackouts([(2, 5)], [(2, 5)]) == []

    def test_subtract_blackout_straddles_window(self):
        assert subtract_blackouts([(2, 5)], [(1, 6)]) == []

    def test_subtract_blackout_straddles_left_boundary(self):
        assert subtract_blackouts([(2, 8)], [(0, 4)]) == [(4, 8)]

    def test_subtract_blackout_straddles_right_boundary(self):
        assert subtract_blackouts([(2, 8)], [(6, 10)]) == [(2, 6)]

    def test_subtract_zero_width_blackout_loses_no_time(self):
        # A zero-width blackout may split the window but removes nothing.
        out = subtract_blackouts([(0, 10)], [(4, 4)])
        assert out == [(0, 4), (4, 10)]
        assert sum(b - a for a, b in out) == 10

    def test_subtract_eps_sliver_dropped(self):
        # Remainder pieces narrower than EPS do not survive.
        from repro.util import EPS

        assert subtract_blackouts([(0.0, 4.0)], [(EPS / 2, 4.0)]) == []
        assert subtract_blackouts([(0.0, 4.0)], [(0.0, 4.0 - EPS / 2)]) == []

    def test_subtract_multiple_blackouts_slice_one_window(self):
        out = subtract_blackouts([(0, 12)], [(2, 4), (6, 8), (10, 14)])
        assert out == [(0, 2), (4, 6), (8, 10)]

    def test_subtract_blackout_spanning_two_windows(self):
        out = subtract_blackouts([(0, 4), (6, 10)], [(3, 7)])
        assert out == [(0, 3), (7, 10)]


class TestDedicatedExecution:
    def test_single_task_completes_every_period(self):
        ts = TaskSet([Task("a", 1, 4)])
        res = run(ts, horizon=12.0)
        assert len(res.completed) == 3
        assert not res.misses

    def test_response_times_match_rta(self):
        # classic set: WCRTs 1, 2, 4.
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 5), Task("c", 2, 10)])
        res = run(ts, "RM", horizon=40.0)
        assert res.worst_response_time("a") == pytest.approx(1.0)
        assert res.worst_response_time("b") == pytest.approx(2.0)
        assert res.worst_response_time("c") == pytest.approx(4.0)

    def test_preemption_splits_slices(self):
        ts = TaskSet([Task("hi", 1, 4), Task("lo", 4, 12)])
        res = run(ts, "RM", horizon=12.0)
        # lo runs [1,4), is preempted by hi#1 at t=4, resumes at 5.
        lo_slices = [s for s in res.trace.slices if s.task == "lo"]
        assert len(lo_slices) == 2
        assert lo_slices[0].end == pytest.approx(4.0)
        assert lo_slices[1].start == pytest.approx(5.0)

    def test_edf_full_utilization_meets_deadlines(self):
        ts = TaskSet([Task("x", 2, 4), Task("y", 4, 8)])
        res = run(ts, "EDF", horizon=40.0)
        assert not res.misses
        assert res.trace.busy_time() == pytest.approx(40.0)

    def test_rm_infeasible_set_misses(self):
        ts = TaskSet([Task("a", 1, 2), Task("b", 2.5, 5)])
        res = run(ts, "RM", horizon=20.0)
        assert res.misses
        assert all(e.who.startswith("b") for e in res.misses)

    def test_overload_detected_at_horizon(self):
        ts = TaskSet([Task("a", 3, 4), Task("b", 3, 8)])
        res = run(ts, "EDF", horizon=24.0)
        assert res.misses


class TestWindowedExecution:
    def test_no_execution_outside_windows(self):
        ts = TaskSet([Task("a", 1, 4)])
        res = run(ts, windows=[(2.0, 4.0), (6.0, 8.0)], horizon=8.0)
        for s in res.trace.slices:
            assert s.start >= 2.0 - 1e-9
            assert s.end <= 8.0 + 1e-9
            assert not (4.0 + 1e-9 < s.start < 6.0 - 1e-9)

    def test_budget_starvation_causes_miss(self):
        # C=2 per period 4, but only 1 unit of window per period.
        ts = TaskSet([Task("a", 2, 4)])
        res = run(ts, windows=[(0, 1), (4, 5), (8, 9)], horizon=12.0)
        assert res.misses

    def test_sufficient_slots_meet_deadlines(self):
        # C=1 per period 4; slot [0,2) per cycle of 4 suffices.
        ts = TaskSet([Task("a", 1, 4)])
        windows = [(k * 4.0, k * 4.0 + 2.0) for k in range(5)]
        res = run(ts, windows=windows, horizon=20.0)
        assert not res.misses
        assert len(res.completed) == 5

    def test_release_offsets(self):
        ts = TaskSet([Task("a", 1, 4)])
        res = run(ts, horizon=12.0, release_offsets={"a": 2.0})
        assert [j.release for j in res.jobs] == [2.0, 6.0, 10.0]

    def test_negative_offset_rejected(self):
        # NaN passes an ``off < 0`` test and never reaches the horizon: the
        # release loop would not end. Non-finite offsets are rejected too.
        ts = TaskSet([Task("a", 1, 4)])
        for off in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                run(ts, horizon=12.0, release_offsets={"a": off})


class TestAbortEvents:
    def test_abort_kills_running_job(self):
        ts = TaskSet([Task("a", 2, 10)])
        res = run(ts, horizon=10.0, abort_events=[1.0])
        assert len(res.aborted) == 1
        assert res.aborted[0].name == "a#0"
        aborts = res.trace.events_of(SimEventKind.ABORT)
        assert len(aborts) == 1 and aborts[0].time == pytest.approx(1.0)

    def test_abort_on_idle_instant_is_harmless(self):
        ts = TaskSet([Task("a", 1, 10)])
        res = run(ts, horizon=10.0, abort_events=[5.0])  # a done at t=1
        assert not res.aborted
        assert len(res.completed) == 1

    def test_abort_between_windows_is_harmless(self):
        ts = TaskSet([Task("a", 1, 10)])
        res = run(ts, windows=[(0, 2), (6, 8)], horizon=10.0, abort_events=[4.0])
        assert not res.aborted

    def test_aborted_job_not_counted_as_miss(self):
        # Killed fail-silent jobs are casualties, not deadline misses.
        ts = TaskSet([Task("a", 2, 10)])
        res = run(ts, horizon=10.0, abort_events=[1.0])
        assert not res.misses

    def test_execution_resumes_after_abort(self):
        ts = TaskSet([Task("a", 2, 4)])
        res = run(ts, horizon=8.0, abort_events=[1.0])
        # job 0 aborted; job 1 (released at 4) completes normally.
        assert len(res.completed) == 1
        assert res.completed[0].index == 1


class TestResultQueries:
    def test_job_running_at(self):
        ts = TaskSet([Task("a", 2, 10)])
        res = run(ts, horizon=10.0)
        assert res.job_running_at(1.0) == "a#0"
        assert res.job_running_at(5.0) is None

    def test_response_times_grouped(self):
        ts = TaskSet([Task("a", 1, 4), Task("b", 1, 8)])
        res = run(ts, horizon=8.0)
        rts = res.response_times()
        assert len(rts["a"]) == 2
        assert len(rts["b"]) == 1

    def test_jobs_whose_deadline_exceeds_horizon_not_judged(self):
        ts = TaskSet([Task("a", 2, 10)])
        res = run(ts, windows=[(0, 1)], horizon=5.0)
        # deadline at 10 > horizon 5: incomplete but not a recorded miss
        assert not res.misses

    def test_horizon_validation(self):
        ts = TaskSet([Task("a", 1, 4)])
        with pytest.raises(ValueError):
            run(ts, horizon=0.0)
