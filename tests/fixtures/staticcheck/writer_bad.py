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

    def actions(self, pid):
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

    def actions(self, pid):
        def stmt(ctx):
            ctx.write("shadow", 0)  # repro-lint: disable=RL201 -- corpus: scratch var, never read back  # expect-suppressed: RL201

        return [stmt]
