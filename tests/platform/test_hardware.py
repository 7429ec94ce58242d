"""Unit tests for cores and lock-step channels."""

import pytest

from repro.platform import Core, FaultEffect, LockstepChannel


class TestCore:
    def test_valid_indices(self):
        for i in (0, 1, 2, 3, 4, 7, 63):
            Core(i)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            Core(-1)


class TestLockstepChannel:
    def test_single_core_channel(self):
        ch = LockstepChannel((2,))
        assert ch.width == 1
        assert ch.fault_effect() is FaultEffect.CORRUPTED

    def test_dual_lockstep_detects(self):
        ch = LockstepChannel((0, 1))
        assert ch.fault_effect() is FaultEffect.SILENCED

    def test_redundant_lockstep_masks(self):
        ch = LockstepChannel((0, 1, 2, 3), voting=True)
        assert ch.fault_effect() is FaultEffect.MASKED

    def test_voting_needs_three_cores(self):
        with pytest.raises(ValueError, match="voting"):
            LockstepChannel((0, 1), voting=True)

    def test_three_wide_voting_masks(self):
        # The Section 2.4 remark: 3 lock-stepped cores suffice to vote.
        ch = LockstepChannel((0, 1, 2), voting=True)
        assert ch.fault_effect() is FaultEffect.MASKED

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            LockstepChannel(())

    def test_duplicate_cores(self):
        with pytest.raises(ValueError):
            LockstepChannel((0, 0))

    def test_large_core_indices_allowed(self):
        ch = LockstepChannel((5, 6))
        assert ch.fault_effect() is FaultEffect.SILENCED

    def test_negative_core_index(self):
        with pytest.raises(ValueError):
            LockstepChannel((-1,))

    def test_contains(self):
        ch = LockstepChannel((2, 3))
        assert ch.contains(3)
        assert not ch.contains(0)
