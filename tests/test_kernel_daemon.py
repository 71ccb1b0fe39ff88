"""Tests for daemons (schedulers of the atomic-state model)."""

from __future__ import annotations

import pytest

from repro.kernel.configuration import Configuration
from repro.kernel.daemon import (
    AdversarialDaemon,
    CentralDaemon,
    DistributedRandomDaemon,
    LocallyCentralDaemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    default_daemon,
)

CFG = Configuration({pid: {"x": 0} for pid in range(1, 6)})
ENABLED = (1, 2, 3, 4, 5)


class TestSynchronousDaemon:
    def test_selects_everyone(self):
        assert SynchronousDaemon().select(ENABLED, CFG, 0) == frozenset(ENABLED)

    def test_subset_of_enabled(self):
        chosen = SynchronousDaemon().select((2, 4), CFG, 0)
        assert chosen == frozenset({2, 4})


class TestCentralDaemon:
    def test_selects_exactly_one(self):
        daemon = CentralDaemon()
        for step in range(10):
            chosen = daemon.select(ENABLED, CFG, step)
            assert len(chosen) == 1
            assert chosen <= set(ENABLED)

    def test_round_robin_cycles_through_all(self):
        daemon = CentralDaemon(policy="round_robin")
        seen = set()
        for step in range(10):
            seen |= daemon.select(ENABLED, CFG, step)
        assert seen == set(ENABLED)

    def test_random_policy_selects_enabled(self):
        daemon = CentralDaemon(policy="random", seed=3)
        for step in range(20):
            chosen = daemon.select((2, 5), CFG, step)
            assert len(chosen) == 1 and chosen <= {2, 5}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CentralDaemon(policy="bogus")

    def test_reset(self):
        daemon = CentralDaemon()
        daemon.select(ENABLED, CFG, 0)
        daemon.reset()
        assert daemon.select((1,), CFG, 0) == frozenset({1})


class TestLocallyCentralDaemon:
    NEIGHBORS = {1: (2,), 2: (1, 3), 3: (2,), 4: (5,), 5: (4,)}

    def test_no_two_neighbours_selected(self):
        daemon = LocallyCentralDaemon(self.NEIGHBORS, seed=1)
        for step in range(30):
            chosen = daemon.select(ENABLED, CFG, step)
            assert chosen
            for a in chosen:
                for b in chosen:
                    if a != b:
                        assert b not in self.NEIGHBORS.get(a, ())

    def test_selection_is_nonempty(self):
        daemon = LocallyCentralDaemon(self.NEIGHBORS, seed=2)
        assert daemon.select((2,), CFG, 0) == frozenset({2})


class TestDistributedRandomDaemon:
    def test_always_selects_at_least_one(self):
        daemon = DistributedRandomDaemon(probability=0.05, seed=0)
        for step in range(50):
            assert daemon.select(ENABLED, CFG, step)

    def test_probability_one_selects_all(self):
        daemon = DistributedRandomDaemon(probability=1.0, seed=0)
        assert daemon.select(ENABLED, CFG, 0) == frozenset(ENABLED)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            DistributedRandomDaemon(probability=0.0)
        with pytest.raises(ValueError):
            DistributedRandomDaemon(probability=1.5)


class TestAdversarialDaemon:
    def test_follows_strategy(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [3])
        assert daemon.select(ENABLED, CFG, 0) == frozenset({3})

    def test_falls_back_when_strategy_invalid(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [99])
        chosen = daemon.select(ENABLED, CFG, 0)
        assert len(chosen) == 1 and chosen <= set(ENABLED)

    def test_intersects_with_enabled(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [1, 99])
        assert daemon.select(ENABLED, CFG, 0) == frozenset({1})


class TestWeaklyFairDaemon:
    class _NeverPickFive:
        """A base daemon that never selects process 5."""

        def reset(self):
            pass

        def select(self, enabled, cfg, step):
            others = [p for p in enabled if p != 5]
            return frozenset(others[:1] or list(enabled)[:1])

    def test_starving_process_is_eventually_forced(self):
        daemon = WeaklyFairDaemon(self._NeverPickFive(), patience=4)
        selected_five = False
        for step in range(12):
            chosen = daemon.select(ENABLED, CFG, step)
            if 5 in chosen:
                selected_five = True
                break
        assert selected_five

    def test_patience_validation(self):
        with pytest.raises(ValueError):
            WeaklyFairDaemon(SynchronousDaemon(), patience=0)

    def test_counters_reset_when_process_disabled(self):
        daemon = WeaklyFairDaemon(self._NeverPickFive(), patience=3)
        daemon.select(ENABLED, CFG, 0)
        daemon.select(ENABLED, CFG, 1)
        # Process 5 becomes disabled: its starvation counter must be dropped.
        daemon.select((1, 2), CFG, 2)
        chosen = daemon.select(ENABLED, CFG, 3)
        # 5 was not owed a forced move right away after re-enabling.
        assert 5 not in chosen

    def test_default_daemon_is_weakly_fair(self):
        daemon = default_daemon(seed=1)
        assert isinstance(daemon, WeaklyFairDaemon)


class TestWeaklyFairBookkeeping:
    """``select`` + ``notify_enabled`` book each step once, and leave the
    counters the old always-redo path left: the pre-``select`` counters
    booked with the executed selection."""

    @staticmethod
    def _always_redo(before, enabled, executed):
        return {pid: 0 if pid in executed else before.get(pid, 0) + 1 for pid in enabled}

    class _PicksDisabled:
        """A broken base daemon whose choice is never enabled."""

        def reset(self):
            pass

        def select(self, enabled, cfg, step):
            return frozenset({999})

        def notify_enabled(self, enabled, selected):
            pass

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        original = WeaklyFairDaemon._bookkeep

        def bookkeep(self, enabled, chosen):
            calls.append(chosen)
            original(self, enabled, chosen)

        monkeypatch.setattr(WeaklyFairDaemon, "_bookkeep", bookkeep)
        return calls

    def test_own_selection_is_booked_once(self, monkeypatch):
        calls = self._counted(monkeypatch)
        daemon = default_daemon(seed=3, patience=3)
        enabled_sets = [ENABLED, (1, 2, 3), ENABLED, (2, 5), ENABLED] * 6
        for step, enabled in enumerate(enabled_sets):
            before = dict(daemon._starvation)
            chosen = daemon.select(enabled, CFG, step)
            daemon.notify_enabled(enabled, frozenset(chosen))
            assert daemon._starvation == self._always_redo(before, enabled, chosen)
        assert len(calls) == len(enabled_sets)

    def test_fallback_selection_is_rebooked(self, monkeypatch):
        calls = self._counted(monkeypatch)
        for patience in (100, 2):  # nothing forced / some processes forced
            daemon = WeaklyFairDaemon(self._PicksDisabled(), patience=patience)
            for step in range(8):
                before = dict(daemon._starvation)
                chosen = daemon.select(ENABLED, CFG, step)
                # What a scheduler executes: the choice cut to the enabled
                # set, or the lowest enabled id when nothing is left.
                executed = frozenset(p for p in chosen if p in ENABLED) or frozenset({1})
                assert executed != chosen
                daemon.notify_enabled(ENABLED, executed)
                assert daemon._starvation == self._always_redo(before, ENABLED, executed)
        assert len(calls) == 2 * 2 * 8

    def test_notify_without_select_books_the_selection(self):
        daemon = WeaklyFairDaemon(SynchronousDaemon(), patience=3)
        daemon.notify_enabled((1, 2), frozenset({1}))
        assert daemon._starvation == {1: 0, 2: 1}
