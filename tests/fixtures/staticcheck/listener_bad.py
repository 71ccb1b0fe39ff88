"""Listener-protocol corpus (RL4xx)."""


class RaisingListener:
    """Raises an unsanctioned exception inside the scheduler loop."""

    def observe_step(self, configuration, record):
        if record is None:
            raise ValueError("record required")  # expect: RL401
        return configuration


class DesyncingListener:
    """Consumes the incremental delta but never handles epochs."""

    def __init__(self):
        self._writes = []

    def observe_step(self, configuration, record):  # expect: RL402
        delta = record.delta
        self._writes.append(delta.writes)


class SuppressedGuardListener:
    """A deliberate crash-loudly guard, suppressed with a justification."""

    def observe_step(self, configuration, record):
        if configuration is None:
            raise RuntimeError("misconfigured harness")  # repro-lint: disable=RL401 -- corpus: wiring bug must crash  # expect-suppressed: RL401


def run_by_hand(scheduler, max_steps):
    """A hand-written run loop outside the scheduler module."""
    while scheduler.step_index < max_steps:
        if scheduler.step() is None:  # expect: RL403
            break


def walk_by_hand(algorithm, ctx):
    """A hand-written guard walk outside the kernel."""
    for action in reversed(algorithm.actions()):
        if action.guard(ctx):  # expect: RL404
            return action
    return None
