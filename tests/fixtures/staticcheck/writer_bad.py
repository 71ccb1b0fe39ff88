"""Writer-set conformance corpus (RL2xx).

The classes subclass a *local* ``DistributedAlgorithm`` stub — the pass
matches base classes by statically-resolved simple name, so the corpus
exercises it without importing the kernel.
"""


class DistributedAlgorithm:
    """Stand-in for repro.kernel.algorithm.DistributedAlgorithm."""


STATUS = "S"
POINTER = "P"


class UndeclaredWriter(DistributedAlgorithm):
    """Writes a variable missing from its state layout."""

    neighbour_guard_variables = (STATUS, POINTER)

    def initial_state(self, pid):
        return {STATUS: "idle", POINTER: None}

    def actions(self):
        def stmt(ctx):
            ctx.write(STATUS, "looking")  # ok: declared in initial_state
            ctx.write("Z", 1)  # expect: RL201

        return [stmt]


class UndeclaredReader(DistributedAlgorithm):
    """Reads a neighbour variable its declaration does not cover."""

    neighbour_guard_variables = (STATUS,)

    def initial_state(self, pid):
        return {STATUS: "idle", POINTER: None}

    def guard(self, ctx, pid, neighbours):
        fine = all(ctx.read(q, STATUS) == "idle" for q in neighbours)
        own = ctx.read(pid, POINTER)  # ok: own-process read
        bad = any(ctx.read(q, POINTER) for q in neighbours)  # expect: RL202
        return fine and own is None and not bad

    def row_guard(self, ctx, pid, neighbours):
        states = ctx.states
        own = states[pid]
        if own[POINTER] is not None:  # ok: own row
            return False
        for q in neighbours:
            state = states[q]
            if state[STATUS] != "idle":  # ok: declared
                return False
            if state[POINTER] is not None:  # expect: RL202
                return False
        return states[pid][STATUS] == "idle" and ctx.states[ctx.pid][POINTER] is None  # ok: own reads


class TokenModule:
    """Stand-in for repro.tokenring.interfaces.TokenModule."""


COUNTER = "c"


class PrefixedNames(dict):
    """Stand-in for repro.tokenring.interfaces.PrefixedNames."""


_COUNTER_NAMES = PrefixedNames(COUNTER)
_POINTER_NAMES = PrefixedNames(POINTER)


class UndeclaredTokenReader(TokenModule):
    """A row-based ``Token(p)`` reading a predecessor variable it does not declare."""

    def initial_variables(self, pid):
        return {COUNTER: 0, POINTER: None}

    def read_dependency_variables(self, pid):
        return {pid: (COUNTER,), self._pred[pid]: (COUNTER,)}

    def holds_token(self, states, prefix, pid):
        own = states[pid].get(prefix + COUNTER)  # ok: own row
        pred_row = states[self._pred[pid]]
        pred = pred_row.get(prefix + COUNTER)  # ok: declared
        marked = states[self._pred[pid]].get(prefix + POINTER)  # expect: RL202
        cached = states[self._pred[pid]].get(_COUNTER_NAMES[prefix])  # ok: declared, via the table
        pointed = states[self._pred[pid]].get(_POINTER_NAMES[prefix])  # expect: RL202
        return own != pred and marked is None and cached == pred and pointed is None

    def release_token(self, ctx, prefix):
        ctx.write(prefix + COUNTER, ctx.states[self._pred[ctx.pid]].get(prefix + COUNTER))  # ok: declared


class DynamicWriter(DistributedAlgorithm):
    """Write target that static analysis cannot resolve."""

    neighbour_guard_variables = (STATUS,)

    def initial_state(self, pid):
        return {STATUS: "idle"}

    def apply(self, ctx, variable):
        ctx.write(variable, 1)  # expect: RL204


class SuppressedWriter(DistributedAlgorithm):
    """The same RL201 bug, suppressed with a justification."""

    def initial_state(self, pid):
        return {STATUS: "idle"}

    def actions(self):
        def stmt(ctx):
            ctx.write("shadow", 0)  # repro-lint: disable=RL201 -- corpus: scratch var, never read back  # expect-suppressed: RL201

        return [stmt]
