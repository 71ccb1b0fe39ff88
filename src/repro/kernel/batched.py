"""Batched lockstep execution: many seeds of one scenario over shared arrays.

The third engine.  Where ``dense`` and ``incremental`` execute one computation
at a time, the batched engine executes ``runs`` independent computations
("lanes") of the *same* scenario in lockstep: per-process variables live in
numpy arrays of shape ``(runs, n)``, guard evaluation is one vectorized sweep
across all lanes (see :mod:`repro.core.batched_program`), and only the
per-lane parts that are inherently sequential — daemon RNG streams, statement
execution of the selected processes, listeners — run as ordinary Python.

The lane contract
-----------------

Lane ``i`` reproduces, step for step, the exact run a solo
:class:`~repro.kernel.scheduler.Scheduler` would produce with lane ``i``'s
seed-derived inputs (initial configuration, daemon, fault injector):

* identical :class:`~repro.kernel.trace.StepRecord` streams — ``selected``,
  ``executed``, ``enabled_before``, ``neutralized``, ``round_index`` and the
  :class:`~repro.kernel.trace.StepDelta` writer sets stamped with the lane's
  own configuration epoch;
* identical final configurations, step/round counts and stop reasons;
* identical listener observations (the streaming metrics / spec monitors
  attached per lane see the same ``(configuration, record)`` stream).

This holds because statements are never re-implemented: the *real*
:class:`~repro.kernel.algorithm.Action` objects execute against the real
:class:`~repro.kernel.algorithm.ActionContext`, reading the pre-step arrays
through a lane view that decodes them back to canonical Python values.  Only
guard evaluation is transcribed to array form, and the differential harness
byte-compares the resulting enabled sets and action choices against the
``dense`` oracle.

Lockstep + lane independence
----------------------------

All active lanes share the global step index (a lane's ``step_index`` always
equals the number of steps it committed), so per-step campaign schedules
(fault bursts every ``k`` steps) fire at the same step in batched and solo
runs.  Lanes never read each other's rows; a lane that terminates or is
stopped by a listener simply drops out of the lockstep while the rest
continue.  Permuting lanes or splitting a batch therefore never changes any
lane's results — the lane-independence property the property-based tests
assert.

The cached sweep
----------------

The guard sweep computed after step ``k``'s writes is cached and reused as
step ``k+1``'s pre-step sweep — valid because between the two only the
environment advances, and the environment-dependent guard factors
(``RequestIn``/``RequestOut``) are folded in fresh each time.  The one thing
that mutates the arrays *outside* the step loop, mid-run fault injection
re-encoding a corrupted lane, drops the cached sweep, which forces a full
re-sweep before the next step, mirroring
:meth:`~repro.kernel.scheduler.Scheduler.set_configuration` dropping the
incremental engine's cache.  Net effect: one full vectorized sweep per step
instead of the dense engine's two.

numpy is an optional extra (``pip install 'repro-cc[batched]'``): this module
never imports it at load time, and :func:`require_numpy` imports it on first
use or raises :class:`BatchedUnsupported` with the extra's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.kernel.configuration import Configuration, ProcessId
from repro.kernel.daemon import Daemon
from repro.kernel.scheduler import StopRun
from repro.kernel.trace import StepDelta, StepRecord, Trace

#: Engine name (accepted by the campaign matrix / CLI, not by the solo
#: :class:`~repro.kernel.scheduler.Scheduler`, whose unit of work is one run).
BATCHED_ENGINE = "batched"

#: Hint shown whenever the batched engine is requested without numpy.
NUMPY_HINT = (
    "the batched engine requires numpy, which is an optional extra: "
    "pip install 'repro-cc[batched]'"
)


class BatchedUnsupported(RuntimeError):
    """The batched engine cannot run this scenario (caller should fall back).

    Raised at compile time for scenarios outside the vectorized guard
    tables' coverage (unknown algorithm subclasses, order-sensitive
    environments, malformed domains) and when numpy is missing.  The
    campaign layer catches it and falls back to per-lane solo runs, which
    produce identical rows by the lane contract.
    """


def require_numpy() -> Any:
    """Import and return numpy, or raise :class:`BatchedUnsupported` with the hint.

    numpy is imported here, on first use, never at module load: a campaign
    with no batched job does not pay for it.
    """
    try:
        import numpy
    except ImportError:
        raise BatchedUnsupported(NUMPY_HINT) from None
    return numpy


def numpy_available() -> bool:
    """``True`` iff numpy imports (the ``repro-cc[batched]`` extra)."""
    try:
        require_numpy()
    except BatchedUnsupported:
        return False
    return True


class BatchedConfiguration:
    """Array-of-lanes state: the variable arrays plus the environment.

    ``arrays`` maps each compiled variable slot (e.g. ``"S"``, ``"P"``,
    ``"C"``) to an array of shape ``(runs, n)``; ``env`` is the scenario's
    vectorized environment state (owned by the compiled program).  Instances
    are produced by ``BatchedProgram.encode`` — the kernel only reads them.
    """

    __slots__ = ("runs", "arrays", "env")

    def __init__(self, runs: int, arrays: Dict[str, Any], env: Any) -> None:
        self.runs = runs
        self.arrays = arrays
        self.env = env


@dataclass
class LaneResult:
    """Outcome of one lane: the per-lane mirror of ``SchedulerResult``."""

    lane: int
    steps: int
    rounds: int
    terminated: bool
    stop_reason: str
    #: Per-lane sparse trace (``None`` in raw mode).
    trace: Optional[Trace] = None
    #: Final configuration (``None`` in raw mode; decode on demand).
    configuration: Optional[Configuration] = None
    #: The lane's configuration epoch at the end of the run (faults bump it).
    epoch: int = 0


class _LaneSchedulerProxy:
    """Duck-typed stand-in for a Scheduler handed to ``FaultInjector.corrupt_scheduler``.

    Exposes exactly the two members the injector touches: ``configuration``
    and ``set_configuration``.  The setter routes the corrupted configuration
    back into the batch (re-encode the lane row, bump the lane epoch, drop
    the cached sweep), mirroring what
    :meth:`~repro.kernel.scheduler.Scheduler.set_configuration` does to the
    solo engines.
    """

    __slots__ = ("_scheduler", "_lane")

    def __init__(self, scheduler: "BatchedScheduler", lane: int) -> None:
        self._scheduler = scheduler
        self._lane = lane

    @property
    def configuration(self) -> Configuration:
        return self._scheduler._lane_configuration(self._lane)

    def set_configuration(self, configuration: Configuration) -> None:
        self._scheduler._install_configuration(self._lane, configuration)


class BatchedScheduler:
    """Runs many lanes of one compiled scenario in lockstep.

    Parameters
    ----------
    program:
        A compiled scenario (see
        :func:`repro.core.batched_program.compile_program`): static topology
        tables, encoders/decoders, and the vectorized guard sweep.
    initial_configurations:
        One starting :class:`~repro.kernel.configuration.Configuration` per
        lane (the solo runs' ``initial_configuration``).
    daemons:
        One :class:`~repro.kernel.daemon.Daemon` per lane (each lane owns its
        seed-derived RNG stream, exactly as the solo run would).
    injectors:
        Optional per-lane fault injectors; with ``fault_every > 0`` each
        lane's injector corrupts it before every ``fault_every``-th step,
        matching the campaign/harness corruption schedule.
    step_listeners:
        Optional per-lane listener sequences (streaming metrics/spec
        monitors).  Requires ``record=True``.
    record:
        ``True`` (default): maintain a per-lane
        :class:`~repro.kernel.configuration.Configuration`, sparse
        :class:`~repro.kernel.trace.Trace` and
        :class:`~repro.kernel.trace.StepRecord` stream — everything the
        campaign rows and the differential harness compare.  ``False`` ("raw
        mode", used by the throughput benchmark): arrays and daemons only.
    """

    def __init__(
        self,
        program: Any,
        initial_configurations: Sequence[Configuration],
        daemons: Sequence[Daemon],
        injectors: Optional[Sequence[Optional[Any]]] = None,
        fault_every: int = 0,
        step_listeners: Optional[Sequence[Optional[Sequence[Any]]]] = None,
        record: bool = True,
    ) -> None:
        require_numpy()
        runs = len(initial_configurations)
        if runs == 0:
            raise ValueError("need at least one lane")
        if len(daemons) != runs:
            raise ValueError("one daemon per lane required")
        if injectors is not None and len(injectors) != runs:
            raise ValueError("one injector entry per lane required")
        if step_listeners is not None:
            if not record:
                raise ValueError("step listeners require record=True")
            if len(step_listeners) != runs:
                raise ValueError("one listener sequence per lane required")
        self.program = program
        self.runs = runs
        self.record = record
        self._daemons = list(daemons)
        self._injectors = list(injectors) if injectors is not None else [None] * runs
        self._fault_every = int(fault_every)
        self._listeners: List[List[Any]] = [
            list(step_listeners[lane] or ()) if step_listeners is not None else []
            for lane in range(runs)
        ]
        for daemon in self._daemons:
            daemon.reset()
        self.state = program.encode(initial_configurations)
        self._epochs = [0] * runs
        self._round_index = [0] * runs
        self._round_pending: List[Optional[Set[ProcessId]]] = [None] * runs
        self._steps = [0] * runs
        self._stop_reason: List[Optional[str]] = [None] * runs
        self._terminated = [False] * runs
        self._active = list(range(runs))
        self._configurations: List[Optional[Configuration]] = (
            list(initial_configurations) if record else [None] * runs
        )
        self._traces: List[Optional[Trace]] = [
            Trace(initial_configurations[lane]) if record else None
            for lane in range(runs)
        ]
        self._bundle: Optional[Any] = None
        # Construction-time environment/listener protocol, replicated from
        # Scheduler.__init__: the environment observes the initial
        # configuration (done counters see initial DONE statuses, bursty
        # phase clocks start), then every listener is fed (initial, None).
        program.env_observe(self.state, -1)
        for lane in range(runs):
            for listener in self._listeners[lane]:
                listener(self._configurations[lane], None)

    # ------------------------------------------------------------------ #
    # lane plumbing
    # ------------------------------------------------------------------ #
    def _lane_configuration(self, lane: int) -> Configuration:
        conf = self._configurations[lane]
        if conf is None:
            conf = self.program.decode_lane(self.state, lane)
        return conf

    def _install_configuration(self, lane: int, configuration: Configuration) -> None:
        """External configuration swap for one lane (the fault path).

        Mirrors ``Scheduler.set_configuration``: the lane row is re-encoded,
        the lane's epoch is bumped (so the next step's delta tells observers
        the world was swapped), and the cached guard sweep is dropped.
        """
        self.program.encode_lane(self.state, lane, configuration)
        self._epochs[lane] += 1
        self._bundle = None
        if self.record:
            self._configurations[lane] = configuration

    def _finish_lane(self, lane: int, stop_reason: str, terminated: bool) -> None:
        self._stop_reason[lane] = stop_reason
        self._terminated[lane] = terminated

    def _lane_rounds(self, lane: int) -> int:
        return self._round_index[lane] + (
            0 if self._round_pending[lane] is None else 1
        )

    # ------------------------------------------------------------------ #
    # the lockstep run loop
    # ------------------------------------------------------------------ #
    def run(self, max_steps: int) -> List[LaneResult]:
        """Run every lane to termination, a listener stop, or ``max_steps``."""
        np = require_numpy()
        program = self.program
        state = self.state
        pids = program.pids
        step_index = 0
        while self._active and step_index < max_steps:
            # -- per-lane fault injection (campaign schedule) ------------- #
            if (
                self._fault_every
                and step_index
                and step_index % self._fault_every == 0
            ):
                for lane in self._active:
                    injector = self._injectors[lane]
                    if injector is not None:
                        injector.corrupt_scheduler(_LaneSchedulerProxy(self, lane))
            # -- pre-step enabled sweep (cached unless dropped) ----------- #
            if self._bundle is None:
                self._bundle = program.sweep(state)
            priority = program.fold(self._bundle, state)
            # -- phase 1: per-lane selection + execution ------------------ #
            still_active: List[int] = []
            stepped: List[Tuple[int, Tuple[ProcessId, ...], Any, Dict[ProcessId, Dict[str, Any]], Dict[ProcessId, str]]] = []
            for lane in self._active:
                cols = np.nonzero(priority[lane] >= 0)[0]
                if cols.size == 0:
                    self._finish_lane(lane, "terminal", True)
                    continue
                enabled_ids = tuple(pids[c] for c in cols)
                if self._round_pending[lane] is None:
                    self._round_pending[lane] = set(enabled_ids)
                daemon = self._daemons[lane]
                selected = daemon.select(
                    enabled_ids,
                    self._configurations[lane] if self.record else None,
                    step_index,
                )
                enabled_set = set(enabled_ids)
                selected = frozenset(p for p in selected if p in enabled_set)
                if not selected:
                    selected = frozenset({enabled_ids[0]})
                daemon.notify_enabled(enabled_ids, selected)
                # Composite atomicity: every selected process reads the
                # pre-step arrays; writes are buffered and encoded only
                # after the whole lane finished executing.
                view = program.lane_view(state, lane)
                lane_env = program.lane_environment(state, lane)
                writes: Dict[ProcessId, Dict[str, Any]] = {}
                executed: Dict[ProcessId, str] = {}
                for pid in sorted(selected):
                    col = program.column_of(pid)
                    action = program.actions[priority[lane, col]]
                    ctx = _lane_context(pid, view, lane_env)
                    action.execute(ctx)
                    writes[pid] = ctx.writes
                    executed[pid] = action.label
                program.encode_writes(state, lane, writes)
                stepped.append((lane, enabled_ids, selected, writes, executed))
                still_active.append(lane)
            self._active = still_active
            if not stepped:
                break
            # -- phase 2: post-step sweep (becomes next step's cache) ----- #
            # The environment has not observed the new configuration yet, so
            # this fold sees the same request predicates the pre-step sweep
            # did — exactly the solo scheduler's neutralization semantics.
            self._bundle = program.sweep(state)
            after = program.fold(self._bundle, state)
            # -- phase 3: per-lane commit (records, rounds, traces) ------- #
            committed: List[Tuple[int, StepRecord, Optional[Configuration]]] = []
            for lane, enabled_ids, selected, writes, executed in stepped:
                enabled_after = {
                    pids[c] for c in np.nonzero(after[lane] >= 0)[0]
                }
                neutralized = frozenset(
                    pid
                    for pid in enabled_ids
                    if pid not in selected and pid not in enabled_after
                )
                record = StepRecord(
                    index=step_index,
                    selected=frozenset(selected),
                    executed=executed,
                    enabled_before=frozenset(enabled_ids),
                    neutralized=neutralized,
                    round_index=self._round_index[lane],
                    delta=StepDelta(
                        writes={
                            pid: tuple(sorted(written))
                            for pid, written in writes.items()
                            if written
                        },
                        epoch=self._epochs[lane],
                    ),
                )
                pending = self._round_pending[lane]
                assert pending is not None
                pending -= set(selected)
                pending -= set(neutralized)
                pending &= enabled_after | set(selected)
                if not pending:
                    self._round_index[lane] += 1
                    self._round_pending[lane] = None
                new_configuration: Optional[Configuration] = None
                if self.record:
                    old = self._configurations[lane]
                    assert old is not None
                    new_configuration = old.updated(writes)
                    self._configurations[lane] = new_configuration
                    trace = self._traces[lane]
                    assert trace is not None
                    trace.append_sparse(new_configuration, record)
                self._steps[lane] += 1
                committed.append((lane, record, new_configuration))
            # -- phase 4: environment observes the new configurations ----- #
            program.env_observe(state, step_index)
            # -- phase 5: per-lane listeners (StopRun capture) ------------ #
            for lane, record, new_configuration in committed:
                stop: Optional[StopRun] = None
                for listener in self._listeners[lane]:
                    try:
                        listener(new_configuration, record)
                    except StopRun as exc:
                        if stop is None:
                            stop = exc
                if stop is not None:
                    self._finish_lane(lane, stop.reason, False)
                    self._active = [l for l in self._active if l != lane]
            step_index += 1
        results: List[LaneResult] = []
        for lane in range(self.runs):
            reason = self._stop_reason[lane] or "max_steps"
            results.append(
                LaneResult(
                    lane=lane,
                    steps=self._steps[lane],
                    rounds=self._lane_rounds(lane),
                    terminated=self._terminated[lane],
                    stop_reason=reason,
                    trace=self._traces[lane],
                    configuration=self._configurations[lane],
                    epoch=self._epochs[lane],
                )
            )
        return results


def _lane_context(pid: ProcessId, view: Any, environment: Any) -> Any:
    """A real :class:`~repro.kernel.algorithm.ActionContext` over a lane view.

    The context's ``configuration`` slot holds the lane view (the same
    ``states_view()`` protocol as a
    :class:`~repro.kernel.configuration.Configuration`), so the unmodified
    guard/statement closures read decoded canonical values from the pre-step
    arrays.
    """
    from repro.kernel.algorithm import ActionContext

    return ActionContext(pid, view, environment)
