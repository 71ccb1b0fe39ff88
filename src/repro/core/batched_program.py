"""Vectorized guard/move tables for the batched lockstep engine.

:func:`compile_program` turns one concrete scenario — a committee
coordination algorithm instance (``CC1``/``CC2``/``CC3`` composed with a
Dijkstra-family token module) plus a request environment — into a
:class:`BatchedProgram`: the static topology tables and the vectorized guard
sweep that :class:`~repro.kernel.batched.BatchedScheduler` evaluates across
all lanes at once.

Division of labour (the exactness argument)
-------------------------------------------

Only **guards** are transcribed to array form.  Statements always execute as
the real :class:`~repro.kernel.algorithm.Action` closures against a real
:class:`~repro.kernel.algorithm.ActionContext` whose configuration slot is a
:class:`_LaneView` decoding the pre-step arrays back to canonical Python
values (status strings, :class:`~repro.hypergraph.hypergraph.Hyperedge`
pointers, ...).  Write-sets are therefore exact by construction; a bug in the
vectorized guards shows up as a different enabled set / chosen action and is
caught by the differential harness's byte-comparison against the ``dense``
oracle.

The sweep produces, per action index, a boolean matrix of shape
``(runs, n)``; folding them in ascending action order (later-in-list =
higher priority, the library-wide convention) yields one ``int8`` priority
matrix whose entry is the enabled action index of that process in that lane,
or ``-1``.  Environment-dependent guards (``Step1`` reads ``RequestIn``,
``Step4`` reads ``RequestOut``; nothing else consults the environment) are
stored as environment-*independent* base matrices and intersected with the
request matrices at fold time, so the post-step sweep can be cached and
reused as the next step's pre-step sweep (see the cached sweep in
:mod:`repro.kernel.batched`).

Coverage
--------

Supported: exactly the library's ``CC1Algorithm`` / ``CC2Algorithm`` /
``CC3Algorithm`` classes, token modules of the Dijkstra K-state family
(:class:`~repro.tokenring.dijkstra_ring.DijkstraRingToken`,
:class:`~repro.tokenring.tree_circulation.TreeTokenCirculation`,
:class:`~repro.tokenring.oracle.OracleTokenModule` — they share counter
mechanics and differ only in ring order), and the ``always`` / ``bursty``
request environments (whose predicates are pure functions of per-process
done-counters and the step clock).  Everything else — notably the
``probabilistic`` environment, whose RNG draws happen in ``observe`` in a
process order a vectorized update cannot replicate — raises
:class:`~repro.kernel.batched.BatchedUnsupported`, and callers fall back to
the solo engines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.cc1 import CC1Algorithm
from repro.core.cc2 import CC2Algorithm
from repro.core.cc3 import CC3Algorithm, CURSOR
from repro.core.states import (
    DONE,
    IDLE,
    LOCK_FLAG,
    LOOKING,
    POINTER,
    STATUS,
    TOKEN_FLAG,
    WAITING,
)
from repro.kernel.batched import BatchedConfiguration, BatchedUnsupported, require_numpy
from repro.kernel.configuration import Configuration, ProcessId
from repro.tokenring.dijkstra_ring import COUNTER, DijkstraRingToken
from repro.tokenring.oracle import OracleTokenModule
from repro.tokenring.tree_circulation import TreeTokenCirculation
from repro.workloads.request_models import (
    AlwaysRequestingEnvironment,
    BurstyRequestEnvironment,
)

#: Fixed status encoding shared by all three algorithms (CC2/CC3 simply
#: never produce code 0).
STATUS_CODES: Dict[str, int] = {IDLE: 0, LOOKING: 1, WAITING: 2, DONE: 3}
STATUS_NAMES: Tuple[str, ...] = (IDLE, LOOKING, WAITING, DONE)

_CC1_LABELS = (
    "Step1", "Step21", "Step22", "Token1", "Token2",
    "Step31", "Step32", "Step4", "Stab1", "Stab2",
)
_CC2_LABELS = (
    "Lock", "Step11", "Step12", "Step13", "Step14",
    "Token", "Step2", "Step3", "Step4", "Stab",
)

_SUPPORTED_TOKEN_TYPES = (DijkstraRingToken, TreeTokenCirculation, OracleTokenModule)


def _unsupported(reason: str) -> BatchedUnsupported:
    return BatchedUnsupported(f"batched engine cannot run this scenario: {reason}")


# --------------------------------------------------------------------------- #
# vectorized request environments
# --------------------------------------------------------------------------- #
class _VectorEnvironment:
    """Array-backed ``always`` / ``bursty`` request environment for all lanes.

    Replicates ``_DoneCounterMixin`` exactly: one done-counter per
    (lane, process), incremented on every observed step the process spends in
    ``done`` status and reset otherwise, including the construction-time
    observation of the initial configuration.  The bursty phase clock is a
    pure function of the step index and the process id, so a single row
    broadcast serves every lane.
    """

    __slots__ = ("kind", "limit", "active", "quiet", "done", "_step", "_phase_ids", "_true", "essential")

    def __init__(
        self,
        kind: str,
        runs: int,
        pids: Sequence[ProcessId],
        limit: int,
        active: int = 0,
        quiet: int = 0,
    ) -> None:
        np = require_numpy()
        self.kind = kind
        self.limit = limit
        self.active = active
        self.quiet = quiet
        n = len(pids)
        self.done = np.zeros((runs, n), dtype=np.int64)
        self._step = 0
        self._phase_ids = np.asarray([pid * 3 for pid in pids], dtype=np.int64)
        self._true = np.ones((runs, n), dtype=bool)
        #: Per-(lane, pid) essential-discussion counters (cosmetic parity
        #: with ``on_essential_discussion``; nothing downstream reads them,
        #: but the hook must exist and must not crash).
        self.essential: Dict[Tuple[int, ProcessId], int] = {}

    def observe(self, status_codes: Any, step_index: int) -> None:
        np = require_numpy()
        self.done = np.where(status_codes == STATUS_CODES[DONE], self.done + 1, 0)
        self._step = step_index + 1

    # -- whole-batch request matrices (guard folding) -------------------- #
    def request_in_matrix(self) -> Any:
        if self.kind == "always":
            return self._true
        np = require_numpy()
        period = self.active + self.quiet
        row = ((self._step + self._phase_ids) % period) < self.active
        return np.broadcast_to(row, self.done.shape)

    def request_out_matrix(self) -> Any:
        return self.done >= self.limit

    # -- scalar reads (per-lane ActionContext adapter) ------------------- #
    def request_in(self, lane: int, col: int, pid: ProcessId) -> bool:
        if self.kind == "always":
            return True
        period = self.active + self.quiet
        return bool((self._step + pid * 3) % period < self.active)

    def request_out(self, lane: int, col: int, pid: ProcessId) -> bool:
        return bool(self.done[lane, col] >= self.limit)


class _LaneEnvironment:
    """Per-lane :class:`~repro.kernel.algorithm.Environment` facade.

    Handed to the real ``ActionContext`` during statement execution; request
    predicates read the vectorized environment state, the essential-discussion
    hook keeps a per-lane counter.
    """

    __slots__ = ("_env", "_lane", "_col")

    def __init__(self, env: _VectorEnvironment, lane: int, col: Dict[ProcessId, int]) -> None:
        self._env = env
        self._lane = lane
        self._col = col

    def request_in(self, pid: ProcessId, configuration: Any) -> bool:
        return self._env.request_in(self._lane, self._col[pid], pid)

    def request_out(self, pid: ProcessId, configuration: Any) -> bool:
        return self._env.request_out(self._lane, self._col[pid], pid)

    def on_essential_discussion(self, pid: ProcessId) -> None:
        key = (self._lane, pid)
        self._env.essential[key] = self._env.essential.get(key, 0) + 1

    def observe(self, configuration: Any, step_index: int) -> None:  # pragma: no cover
        raise AssertionError("lane environments are observed via the vector path")

    def reset(self) -> None:  # pragma: no cover - never rebuilt mid-run
        pass


class _LaneRows(dict):
    """``pid -> {variable: value}`` of one lane, each row decoded on first access.

    Rows hold the canonical Python values the guard and statement closures
    expect (status strings, ``Hyperedge``/``None`` pointers, ``bool``
    flags, ``int`` counters), decoded from the arrays; this is the only
    decoder of array cells.
    """

    __slots__ = ("_variables", "_edges", "_col", "_arrays", "_lane")

    def __init__(
        self,
        variables: Tuple[str, ...],
        edges: Tuple[Any, ...],
        col: Dict[ProcessId, int],
        arrays: Dict[str, Any],
        lane: int,
    ) -> None:
        super().__init__()
        self._variables = variables
        self._edges = edges
        self._col = col
        self._arrays = arrays
        self._lane = lane

    def __missing__(self, pid: ProcessId) -> Dict[str, Any]:
        arrays = self._arrays
        lane = self._lane
        col = self._col[pid]
        # ``item`` hands out Python scalars: ``bool`` for the flag arrays,
        # ``int`` for the integer ones.
        row = {variable: arrays[variable].item(lane, col) for variable in self._variables}
        row[STATUS] = STATUS_NAMES[row[STATUS]]
        pointer = row[POINTER]
        row[POINTER] = None if pointer < 0 else self._edges[pointer]
        self[pid] = row
        return row


class _LaneView:
    """Read-only view of one lane, with the ``Configuration.states_view()`` protocol.

    Every statement of one lane step reads the same pre-step rows --
    composite atomicity is preserved because the scheduler encodes a lane's
    writes only after every selected process of that lane executed.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: _LaneRows) -> None:
        self._rows = rows

    def states_view(self) -> _LaneRows:
        return self._rows


# --------------------------------------------------------------------------- #
# the compiled program
# --------------------------------------------------------------------------- #
class BatchedProgram:
    """One compiled scenario: static tables + vectorized guard sweep.

    Stateless and reusable: all mutable run state lives in the
    :class:`~repro.kernel.batched.BatchedConfiguration` instances it encodes,
    so one program can serve many batches (the campaign layer compiles once
    per job group).
    """

    def __init__(self, algorithm: Any, environment: Any) -> None:
        np = require_numpy()
        kind = self._validate_algorithm(algorithm)
        self.algorithm = algorithm
        self.kind = kind  # "cc1" | "cc2" | "cc3"
        hypergraph = algorithm.hypergraph
        binding = algorithm.token
        module = binding.module
        if type(module) not in _SUPPORTED_TOKEN_TYPES:
            raise _unsupported(f"unknown token module {type(module).__name__}")
        pids = algorithm.process_ids()
        if not pids:
            raise _unsupported("no processes")
        if list(pids) != sorted(pids):
            raise _unsupported("process ids are not sorted")
        if not all(isinstance(pid, int) and not isinstance(pid, bool) for pid in pids):
            raise _unsupported("non-integer process ids")
        if tuple(sorted(module.process_ids())) != tuple(pids):
            raise _unsupported("token ring does not cover the process set")
        self.pids: Tuple[ProcessId, ...] = tuple(pids)
        self.n = len(pids)
        self._col: Dict[ProcessId, int] = {pid: i for i, pid in enumerate(pids)}
        edges = hypergraph.hyperedges
        self.edges = tuple(edges)
        self.n_edges = len(edges)
        self._edge_index = {edge: i for i, edge in enumerate(edges)}
        self._member_cols = [
            np.asarray([self._col[q] for q in edge.members], dtype=np.intp)
            for edge in edges
        ]
        member_u8 = np.zeros((self.n_edges, self.n), dtype=np.uint8)
        for e, cols in enumerate(self._member_cols):
            member_u8[e, cols] = 1
        self._member_u8 = member_u8
        self._inc_idx: List[Any] = []
        self._incident_rows: List[Any] = []
        self._incident_sets: List[frozenset] = []
        for pid in pids:
            incident = hypergraph.incident_edges(pid)
            if not incident:
                raise _unsupported(f"process {pid} has no incident committee")
            idx = np.asarray([self._edge_index[e] for e in incident], dtype=np.intp)
            self._inc_idx.append(idx)
            row = np.zeros(self.n_edges, dtype=bool)
            row[idx] = True
            self._incident_rows.append(row)
            self._incident_sets.append(frozenset(int(i) for i in idx))
        self._target_rows: List[Any] = []
        if kind == "cc2":
            for pid in pids:
                row = np.zeros(self.n_edges, dtype=bool)
                for edge in hypergraph.min_incident_edges(pid):
                    row[self._edge_index[edge]] = True
                self._target_rows.append(row)
        # -- token ring tables ------------------------------------------- #
        self._pred_cols = np.asarray(
            [self._col[module.predecessor(pid)] for pid in pids], dtype=np.intp
        )
        self._is_root = np.asarray([pid == module.root for pid in pids], dtype=bool)
        self._counter_var = binding.prefix + COUNTER
        # -- variable layout / codecs ------------------------------------ #
        variables: List[str] = [STATUS, POINTER, TOKEN_FLAG]
        if kind in ("cc2", "cc3"):
            variables.append(LOCK_FLAG)
        if kind == "cc3":
            variables.append(CURSOR)
        variables.append(self._counter_var)
        self.variables: Tuple[str, ...] = tuple(variables)
        self._known_variables = frozenset(self.variables)
        self._dtypes: Dict[str, Any] = {
            STATUS: np.int8,
            POINTER: np.int32,
            TOKEN_FLAG: bool,
            LOCK_FLAG: bool,
            CURSOR: np.int64,
            self._counter_var: np.int64,
        }
        self._allowed_status_codes = frozenset(
            STATUS_CODES[s] for s in algorithm.statuses
        )
        # -- the action list (labels double as a transcription checksum) -- #
        expected = _CC1_LABELS if kind == "cc1" else _CC2_LABELS
        self.actions: Tuple[Any, ...] = tuple(algorithm.actions())
        if tuple(a.label for a in self.actions) != expected:
            raise _unsupported(
                "action list does not match the transcribed guard table "
                f"({[a.label for a in self.actions]})"
            )
        # -- environment -------------------------------------------------- #
        self._env_spec = self._validate_environment(environment)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_algorithm(algorithm: Any) -> str:
        cls = type(algorithm)
        if cls is CC3Algorithm:
            return "cc3"
        if cls is CC2Algorithm:
            return "cc2"
        if cls is CC1Algorithm:
            return "cc1"
        raise _unsupported(f"unknown algorithm class {cls.__name__}")

    @staticmethod
    def _validate_environment(environment: Any) -> Tuple:
        cls = type(environment)
        if cls is AlwaysRequestingEnvironment:
            limit = environment._discussion_steps
            if not isinstance(limit, int) or isinstance(limit, bool):
                raise _unsupported("non-integer discussion_steps")
            return ("always", limit, 0, 0)
        if cls is BurstyRequestEnvironment:
            limit = environment._discussion_steps
            if not isinstance(limit, int) or isinstance(limit, bool):
                raise _unsupported("non-integer discussion_steps")
            return ("bursty", limit, environment._active, environment._quiet)
        raise _unsupported(
            f"environment {cls.__name__} (request predicates are not a pure "
            "function of done-counters and the step clock)"
        )

    # ------------------------------------------------------------------ #
    # codecs
    # ------------------------------------------------------------------ #
    def _encode_value(self, pid: ProcessId, variable: str, value: Any) -> Any:
        """Validate ``value`` against the variable's domain and return its code."""
        if variable == STATUS:
            code = STATUS_CODES.get(value)
            if code is None or code not in self._allowed_status_codes:
                raise _unsupported(f"status {value!r} outside the domain of {pid}")
            return code
        if variable == POINTER:
            if value is None:
                return -1
            idx = self._edge_index.get(value)
            if idx is None or idx not in self._incident_sets[self._col[pid]]:
                raise _unsupported(f"pointer {value!r} outside E_{pid}")
            return idx
        if variable in (TOKEN_FLAG, LOCK_FLAG):
            if not isinstance(value, bool):
                raise _unsupported(f"non-boolean {variable} of {pid}: {value!r}")
            return value
        # counters / cursor
        if not isinstance(value, int) or isinstance(value, bool):
            raise _unsupported(f"non-integer {variable} of {pid}: {value!r}")
        return value

    # ------------------------------------------------------------------ #
    # encode / decode
    # ------------------------------------------------------------------ #
    def encode(self, configurations: Sequence[Configuration]) -> BatchedConfiguration:
        np = require_numpy()
        runs = len(configurations)
        arrays = {
            name: np.zeros((runs, self.n), dtype=self._dtypes[name])
            for name in self.variables
        }
        kind, limit, active, quiet = self._env_spec
        env = _VectorEnvironment(kind, runs, self.pids, limit, active, quiet)
        state = BatchedConfiguration(runs, arrays, env)
        for lane, configuration in enumerate(configurations):
            self.encode_lane(state, lane, configuration)
        return state

    def encode_lane(
        self, state: BatchedConfiguration, lane: int, configuration: Configuration
    ) -> None:
        """(Re-)encode one lane's row from a full configuration."""
        known = self._known_variables
        arrays = state.arrays
        for pid in self.pids:
            col = self._col[pid]
            variables = configuration.state_of(pid)
            extra = set(variables) - known
            if extra:
                raise _unsupported(f"unknown variables {sorted(extra)} of {pid}")
            missing = known - set(variables)
            if missing:
                raise _unsupported(f"missing variables {sorted(missing)} of {pid}")
            for variable, value in variables.items():
                arrays[variable][lane, col] = self._encode_value(pid, variable, value)

    def encode_writes(
        self,
        state: BatchedConfiguration,
        lane: int,
        writes: Dict[ProcessId, Dict[str, Any]],
    ) -> None:
        """Apply one lane's buffered step writes."""
        arrays = state.arrays
        known = self._known_variables
        for pid, written in writes.items():
            col = self._col[pid]
            for variable, value in written.items():
                if variable not in known:
                    raise _unsupported(f"write to unknown variable {variable!r}")
                arrays[variable][lane, col] = self._encode_value(pid, variable, value)

    def decode_lane(self, state: BatchedConfiguration, lane: int) -> Configuration:
        """One lane's row as a full canonical :class:`Configuration`."""
        rows = self._rows(state, lane)
        return Configuration({pid: rows[pid] for pid in self.pids})

    def lane_view(self, state: BatchedConfiguration, lane: int) -> _LaneView:
        return _LaneView(self._rows(state, lane))

    def _rows(self, state: BatchedConfiguration, lane: int) -> _LaneRows:
        return _LaneRows(self.variables, self.edges, self._col, state.arrays, lane)

    def lane_environment(self, state: BatchedConfiguration, lane: int) -> _LaneEnvironment:
        return _LaneEnvironment(state.env, lane, self._col)

    def column_of(self, pid: ProcessId) -> int:
        return self._col[pid]

    def env_observe(self, state: BatchedConfiguration, step_index: int) -> None:
        state.env.observe(state.arrays[STATUS], step_index)

    # ------------------------------------------------------------------ #
    # the vectorized guard sweep
    # ------------------------------------------------------------------ #
    def sweep(self, state: BatchedConfiguration) -> List[Tuple[int, str, Any]]:
        """Evaluate every environment-independent guard factor on all lanes.

        Returns the guard bundle: ``(action_index, kind, matrix)`` entries
        where ``kind`` is ``"static"`` (the matrix IS the guard), ``"in"`` or
        ``"out"`` (intersect with the request matrix at fold time).
        """
        if self.kind == "cc1":
            return self._sweep_cc1(state)
        return self._sweep_cc23(state)

    def fold(self, bundle: List[Tuple[int, str, Any]], state: BatchedConfiguration) -> Any:
        """Resolve the bundle into the per-(lane, process) priority matrix.

        Entry ``[lane, col]`` is the index of the highest-priority enabled
        action of that process in that lane, or ``-1`` if none is enabled —
        ascending-index overwrite implements the later-in-list-wins rule.
        """
        np = require_numpy()
        priority = np.full((state.runs, self.n), -1, dtype=np.int8)
        env = state.env
        request_in = request_out = None
        for index, kind, guard in bundle:
            if kind == "in":
                if request_in is None:
                    request_in = env.request_in_matrix()
                guard = guard & request_in
            elif kind == "out":
                if request_out is None:
                    request_out = env.request_out_matrix()
                guard = guard & request_out
            priority[guard] = index
        return priority

    # -- shared pieces --------------------------------------------------- #
    def _token_matrix(self, counters: Any) -> Any:
        """``Token(p)`` for all lanes: Dijkstra counter comparison on the ring."""
        equal = counters == counters[:, self._pred_cols]
        return equal == self._is_root[None, :]

    def _sweep_cc1(self, state: BatchedConfiguration) -> List[Tuple[int, str, Any]]:
        np = require_numpy()
        arrays = state.arrays
        S, P, T = arrays[STATUS], arrays[POINTER], arrays[TOKEN_FLAG]
        runs, n, E = state.runs, self.n, self.n_edges
        lanes = np.arange(runs)
        idle = S == STATUS_CODES[IDLE]
        look = S == STATUS_CODES[LOOKING]
        wait = S == STATUS_CODES[WAITING]
        done = S == STATUS_CODES[DONE]
        look_or_wait = look | wait
        wait_or_done = wait | done
        # -- per-edge predicates ----------------------------------------- #
        edge_ready = np.empty((runs, E), dtype=bool)   # all members point+look/wait
        edge_meet = np.empty((runs, E), dtype=bool)    # all members point+wait/done
        edge_free = np.empty((runs, E), dtype=bool)    # all members looking
        edge_leave = np.empty((runs, E), dtype=bool)   # every pointing member done
        for e, cols in enumerate(self._member_cols):
            pointing = P[:, cols] == e
            edge_ready[:, e] = (pointing & look_or_wait[:, cols]).all(axis=1)
            edge_meet[:, e] = (pointing & wait_or_done[:, cols]).all(axis=1)
            edge_free[:, e] = look[:, cols].all(axis=1)
            edge_leave[:, e] = (~pointing | done[:, cols]).all(axis=1)
        token = self._token_matrix(arrays[self._counter_var])
        has_pointer = P >= 0
        P_safe = np.where(has_pointer, P, 0)
        pointer_free = has_pointer & np.take_along_axis(edge_free, P_safe, axis=1)
        leave = has_pointer & np.take_along_axis(edge_leave, P_safe, axis=1)
        # -- per-process predicates --------------------------------------- #
        ready = np.empty((runs, n), dtype=bool)
        meeting = np.empty((runs, n), dtype=bool)
        free_any = np.empty((runs, n), dtype=bool)
        max_to_free = np.empty((runs, n), dtype=bool)
        join_local_max = np.empty((runs, n), dtype=bool)
        member_u8 = self._member_u8
        for j, inc in enumerate(self._inc_idx):
            ready[:, j] = edge_ready[:, inc].any(axis=1)
            meeting[:, j] = edge_meet[:, inc].any(axis=1)
            incident_free = edge_free[:, inc]
            any_free = incident_free.any(axis=1)
            free_any[:, j] = any_free
            # FreeNodes_p: members of free incident edges (uint8 matmul keeps
            # it one BLAS call per process instead of a Python loop).
            free_nodes = (incident_free.astype(np.uint8) @ member_u8[inc]) > 0
            token_flagged = free_nodes & T
            use_flagged = token_flagged.any(axis=1)
            candidates = np.where(use_flagged[:, None], token_flagged, free_nodes)
            # Highest candidate column == max pid (columns are id-sorted);
            # reversed argmax picks the last True.
            leader = (n - 1) - np.argmax(candidates[:, ::-1], axis=1)
            local_max = any_free & (leader == j)
            leader_pointer = P[lanes, leader]
            lp_has = any_free & (leader_pointer >= 0)
            lp_safe = np.where(leader_pointer >= 0, leader_pointer, 0)
            lp_free = lp_has & self._incident_rows[j][lp_safe] & edge_free[lanes, lp_safe]
            not_ready = ~ready[:, j]
            max_to_free[:, j] = any_free & local_max & not_ready & ~pointer_free[:, j]
            join_local_max[:, j] = (
                any_free & ~local_max & not_ready & lp_free & (P[:, j] != leader_pointer)
            )
        useless = token & (idle | (look & ~free_any))
        incorrect = (
            (idle & has_pointer)
            | (wait & ~(ready | meeting))
            | (done & ~(meeting | leave))
        )
        return [
            (0, "in", idle),                       # Step1
            (1, "static", max_to_free),            # Step21
            (2, "static", join_local_max),         # Step22
            (3, "static", token != T),             # Token1
            (4, "static", useless),                # Token2
            (5, "static", ready & look),           # Step31
            (6, "static", meeting & wait),         # Step32
            (7, "out", leave),                     # Step4
            (8, "static", incorrect & idle),       # Stab1
            (9, "static", incorrect & ~idle),      # Stab2
        ]

    def _sweep_cc23(self, state: BatchedConfiguration) -> List[Tuple[int, str, Any]]:
        np = require_numpy()
        arrays = state.arrays
        S, P, T, L = (
            arrays[STATUS],
            arrays[POINTER],
            arrays[TOKEN_FLAG],
            arrays[LOCK_FLAG],
        )
        runs, n, E = state.runs, self.n, self.n_edges
        lanes = np.arange(runs)
        look = S == STATUS_CODES[LOOKING]
        wait = S == STATUS_CODES[WAITING]
        done = S == STATUS_CODES[DONE]
        look_or_wait = look | wait
        wait_or_done = wait | done
        free_ok = look & ~L & ~T
        # -- per-edge predicates ----------------------------------------- #
        edge_ready = np.empty((runs, E), dtype=bool)
        edge_meet = np.empty((runs, E), dtype=bool)
        edge_free = np.empty((runs, E), dtype=bool)    # all members look & !L & !T
        edge_leave = np.empty((runs, E), dtype=bool)   # no pointing member waiting
        edge_tp = np.empty((runs, E), dtype=bool)      # some looking T-holder points
        for e, cols in enumerate(self._member_cols):
            pointing = P[:, cols] == e
            edge_ready[:, e] = (pointing & look_or_wait[:, cols]).all(axis=1)
            edge_meet[:, e] = (pointing & wait_or_done[:, cols]).all(axis=1)
            edge_free[:, e] = free_ok[:, cols].all(axis=1)
            edge_leave[:, e] = (~pointing | ~wait[:, cols]).all(axis=1)
            edge_tp[:, e] = (pointing & T[:, cols] & look[:, cols]).any(axis=1)
        token = self._token_matrix(arrays[self._counter_var])
        has_pointer = P >= 0
        P_safe = np.where(has_pointer, P, 0)
        pointer_free = has_pointer & np.take_along_axis(edge_free, P_safe, axis=1)
        pointer_tp = has_pointer & np.take_along_axis(edge_tp, P_safe, axis=1)
        leave = done & has_pointer & np.take_along_axis(edge_leave, P_safe, axis=1)
        # -- per-process predicates --------------------------------------- #
        ready = np.empty((runs, n), dtype=bool)
        meeting = np.empty((runs, n), dtype=bool)
        locked = np.empty((runs, n), dtype=bool)
        max_to_free = np.empty((runs, n), dtype=bool)
        join_local_max = np.empty((runs, n), dtype=bool)
        holder_to_edge = np.empty((runs, n), dtype=bool)
        join_holder = np.empty((runs, n), dtype=bool)
        member_u8 = self._member_u8
        cursor = arrays[CURSOR] if self.kind == "cc3" else None
        for j, inc in enumerate(self._inc_idx):
            ready[:, j] = edge_ready[:, inc].any(axis=1)
            meeting[:, j] = edge_meet[:, inc].any(axis=1)
            locked[:, j] = edge_tp[:, inc].any(axis=1)
            incident_free = edge_free[:, inc]
            any_free = incident_free.any(axis=1)
            free_nodes = (incident_free.astype(np.uint8) @ member_u8[inc]) > 0
            leader = (n - 1) - np.argmax(free_nodes[:, ::-1], axis=1)
            local_max = any_free & (leader == j)
            leader_pointer = P[lanes, leader]
            lp_has = any_free & (leader_pointer >= 0)
            lp_safe = np.where(leader_pointer >= 0, leader_pointer, 0)
            lp_free = lp_has & self._incident_rows[j][lp_safe] & edge_free[lanes, lp_safe]
            not_ready = ~ready[:, j]
            gate = ~token[:, j] & ~locked[:, j]
            max_to_free[:, j] = gate & any_free & local_max & not_ready & ~pointer_free[:, j]
            join_local_max[:, j] = (
                gate & any_free & ~local_max & not_ready
                & lp_free & (P[:, j] != leader_pointer)
            )
            # token holder's target committees: MinEdges (CC2) or the
            # round-robin cursor's edge (CC3)
            if cursor is None:
                pointer_target = has_pointer[:, j] & self._target_rows[j][P_safe[:, j]]
            else:
                target = inc[cursor[:, j] % len(inc)]
                pointer_target = has_pointer[:, j] & (P[:, j] == target)
            holder_to_edge[:, j] = token[:, j] & look[:, j] & not_ready & ~pointer_target
            join_holder[:, j] = (
                ~token[:, j] & look[:, j] & not_ready & locked[:, j] & ~pointer_tp[:, j]
            )
        incorrect = (wait & ~(ready | meeting)) | (done & ~(meeting | leave))
        return [
            (0, "static", locked != L),            # Lock
            (1, "static", holder_to_edge),         # Step11
            (2, "static", join_holder),            # Step12
            (3, "static", max_to_free),            # Step13
            (4, "static", join_local_max),         # Step14
            (5, "static", token != T),             # Token
            (6, "static", ready & look),           # Step2
            (7, "static", meeting & wait),         # Step3
            (8, "out", leave),                     # Step4
            (9, "static", incorrect),              # Stab
        ]


def compile_program(algorithm: Any, environment: Any) -> BatchedProgram:
    """Compile a scenario for the batched engine.

    ``algorithm`` is a built CC1/CC2/CC3 instance (with its token binding),
    ``environment`` the run's request environment instance.  Raises
    :class:`~repro.kernel.batched.BatchedUnsupported` for anything outside
    the vectorized tables' coverage — callers fall back to the solo engines.
    """
    require_numpy()
    return BatchedProgram(algorithm, environment)
