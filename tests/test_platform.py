"""Tests for Processor and Platform."""

import numpy as np
import pytest

from repro.core.markov import MarkovAvailabilityModel
from repro.sim.platform import Platform, PlatformCalendar, Processor
from repro.types import ProcState


def model():
    return MarkovAvailabilityModel.from_self_loops(0.9, 0.9, 0.9)


def trace_proc(index, codes="uuu", speed=1):
    from repro.types import states_from_codes

    return Processor.from_trace(index, speed, states_from_codes(codes))


class TestProcessor:
    def test_from_markov_sets_belief(self):
        m = model()
        proc = Processor.from_markov(0, 2, m, np.random.default_rng(0))
        assert proc.belief is m
        assert proc.state_at(0) in list(ProcState)

    def test_from_trace_replays(self):
        proc = trace_proc(0, "urd")
        assert proc.state_at(0) == ProcState.UP
        assert proc.state_at(1) == ProcState.RECLAIMED
        assert proc.state_at(2) == ProcState.DOWN

    def test_from_trace_optional_belief(self):
        m = model()
        proc = Processor.from_trace(0, 1, [0, 1], belief=m)
        assert proc.belief is m

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            trace_proc(0, speed=0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            trace_proc(-1)


class TestPlatform:
    def test_basic_container_protocol(self):
        platform = Platform([trace_proc(0), trace_proc(1)], ncom=1)
        assert len(platform) == 2
        assert platform[1].index == 1
        assert [p.index for p in platform] == [0, 1]

    def test_states_at(self):
        platform = Platform([trace_proc(0, "ur"), trace_proc(1, "du")], ncom=1)
        assert list(platform.states_at(0)) == [0, 2]
        assert list(platform.states_at(1)) == [1, 0]

    def test_homogeneity(self):
        assert Platform([trace_proc(0), trace_proc(1)], ncom=1).is_homogeneous
        assert not Platform(
            [trace_proc(0, speed=1), trace_proc(1, speed=2)], ncom=1
        ).is_homogeneous

    def test_unbounded_ncom(self):
        platform = Platform([trace_proc(0)])
        assert platform.ncom is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Platform([], ncom=1)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError, match="duplicate"):
            Platform([trace_proc(0), trace_proc(0)], ncom=1)

    def test_rejects_gapped_indices(self):
        with pytest.raises(ValueError, match="without gaps"):
            Platform([trace_proc(0), trace_proc(2)], ncom=1)

    def test_rejects_bad_ncom(self):
        with pytest.raises(ValueError):
            Platform([trace_proc(0)], ncom=0)


class TestPlatformCalendar:
    def _sources(self, p=12, seed=90):
        return [
            Processor.from_markov(q, 1, model(), np.random.default_rng(seed + q))
            .availability
            for q in range(p)
        ]

    def test_next_change_tracks_sources(self):
        sources = self._sources()
        mirror = self._sources()  # same streams, queried independently
        cal = PlatformCalendar(sources)
        last = 400
        cal.start(0, last)
        slot = 0
        rng = np.random.default_rng(3)
        while slot < last:
            slot = min(last, slot + int(rng.integers(1, 9)))
            cal.advance(slot)
            for q, source in enumerate(mirror):
                change = source.next_change_after(slot, limit=last)
                expected = change if change is not None else last + 1
                assert cal.next_change[q] == expected
                assert cal.states[q] == source.state_at(slot)
            assert cal.peek() == min(cal.next_change)
            cal.audit(slot)

    def test_audit_flags_a_stale_entry(self):
        cal = PlatformCalendar(self._sources())
        cal.start(0, 400)
        cal.advance(10)
        cal.next_change[3] += 1
        with pytest.raises(AssertionError, match="calendar next transition"):
            cal.audit(10)
