"""Listener-protocol corpus: conformant listeners (no findings)."""


class StopRun(Exception):
    """Stand-in for repro.kernel.StopRun."""


class SpecViolationError(StopRun):
    """A sanctioned early-stop signal (derives from StopRun)."""


class EpochAwareListener:
    """Tracks configuration epochs, raises only StopRun subclasses."""

    def __init__(self):
        self._epoch = 0
        self._writes = []

    def observe_step(self, configuration, record):
        delta = record.delta
        if delta.epoch != self._epoch:
            self._epoch = delta.epoch
            self._writes.clear()
        self._writes.append(delta.writes)
        if len(self._writes) > 10_000:
            raise SpecViolationError("bounded run exceeded")


class DelegatingListener:
    """Hands the delta to an epoch-aware stream instead of tracking epochs."""

    def __init__(self, stream):
        self._stream = stream

    def observe_step(self, configuration, record):
        delta = record.delta if record is not None else None
        self._stream.observe(configuration, delta)


def run_through_the_loop(scheduler, injector, max_steps):
    """Steps only through Scheduler.run, which owns the fault schedule."""
    return scheduler.run(max_steps=max_steps, injector=injector, fault_every=10)


def walk_through_the_kernel(algorithm, pid, configuration, environment):
    """Asks the one guard entry point, which walks the action table."""
    return algorithm.enabled_action(pid, configuration, environment)
