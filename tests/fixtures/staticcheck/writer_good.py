"""Writer-set conformance corpus: a fully conformant algorithm (no findings)."""


class DistributedAlgorithm:
    """Stand-in for repro.kernel.algorithm.DistributedAlgorithm."""


STATUS = "S"
POINTER = "P"
TOKEN_FLAG = "T"


class Conformant(DistributedAlgorithm):
    neighbour_guard_variables = (STATUS, POINTER, TOKEN_FLAG)

    def initial_state(self, pid):
        return {STATUS: "idle", POINTER: None, TOKEN_FLAG: False}

    def guard(self, ctx, pid, neighbours):
        if not ctx.request_in():
            return False
        return all(ctx.read(q, STATUS) == "idle" for q in neighbours)

    def actions(self):
        def stmt(ctx):
            ctx.write(STATUS, "looking")
            ctx.write(POINTER, None)
            ctx.write(TOKEN_FLAG, False)

        return [stmt]
