"""The member-count meeting stream against a full-sweep reference.

``MeetingEventStream`` keeps, per process, the committee it counts toward
and, per committee, how many members count toward it.  Fed step deltas of
one to three writers each, its events, ``held``, ``current_meetings`` and
``conflict_pairs`` must equal a reference that re-derives every committee
with ``committee_meets`` after every step.  The writes are seeded and
random: same-value rewrites, status-only and pointer-only writes, pointers
given as plain tuples or naming a committee the writer is not in, writes
that touch neither ``S`` nor ``P``, and epoch bumps (the configuration
swapped between steps).
"""

from __future__ import annotations

import random

import pytest

from repro.core.states import DONE, IDLE, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING
from repro.hypergraph.generators import figure1_hypergraph, random_k_uniform_hypergraph
from repro.kernel.configuration import Configuration
from repro.kernel.trace import StepDelta
from repro.spec.events import MeetingEvent, MeetingEventStream, committee_meets
from repro.workloads.scenarios import scenario_by_name

STATUSES = (IDLE, LOOKING, WAITING, DONE)
#: Drawn statuses favour the two a meeting needs, so committees convene.
DRAWN_STATUSES = STATUSES + (WAITING, DONE)

HYPERGRAPHS = {
    "figure1": figure1_hypergraph,
    "grid-3x3": lambda: scenario_by_name("grid-3x3").hypergraph,
    "random-3-uniform": lambda: random_k_uniform_hypergraph(9, 7, 3, seed=11),
}


def _pointer(rng, hypergraph, pid):
    """A pointer value for ``pid``: mostly its own committees, sometimes
    ``⊥``, a plain member tuple, or a committee ``pid`` is not in."""
    incident = hypergraph.incident_edges(pid)
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return tuple(rng.choice(incident))
    if roll < 0.4:
        return rng.choice(hypergraph.hyperedges)
    return rng.choice(incident)


def _random_configuration(rng, hypergraph):
    return Configuration(
        {
            pid: {
                STATUS: rng.choice(DRAWN_STATUSES),
                POINTER: _pointer(rng, hypergraph, pid),
                TOKEN_FLAG: False,
            }
            for pid in hypergraph.vertices
        }
    )


def _random_write(rng, hypergraph, configuration):
    """One writer's variables: ``pid -> {variable: value}``."""
    pid = rng.choice(hypergraph.vertices)
    kind = rng.choice(("same", "status", "pointer", "both", "other"))
    if kind == "same":
        return pid, {
            STATUS: configuration.get(pid, STATUS),
            POINTER: configuration.get(pid, POINTER),
        }
    if kind == "status":
        return pid, {STATUS: rng.choice(DRAWN_STATUSES)}
    if kind == "pointer":
        return pid, {POINTER: _pointer(rng, hypergraph, pid)}
    if kind == "both":
        return pid, {STATUS: rng.choice(DRAWN_STATUSES), POINTER: _pointer(rng, hypergraph, pid)}
    return pid, {TOKEN_FLAG: not configuration.get(pid, TOKEN_FLAG)}


class _Reference:
    """Every committee re-derived with ``committee_meets`` on every observation."""

    def __init__(self, hypergraph) -> None:
        self.edges = hypergraph.hyperedges
        self.held = ()
        self.index = 0

    def observe(self, configuration):
        held = tuple(e for e in self.edges if committee_meets(configuration, e))
        events = []
        if self.index:
            for edge in self.edges:
                if edge in held and edge not in self.held:
                    events.append(MeetingEvent("convene", edge, self.index))
                elif edge in self.held and edge not in held:
                    events.append(MeetingEvent("terminate", edge, self.index))
        self.held = held
        self.index += 1
        return events

    def conflict_pairs(self):
        return [
            (a, b)
            for i, a in enumerate(self.held)
            for b in self.held[i + 1:]
            if a.intersects(b)
        ]


def _assert_agrees(stream, reference, events, expected):
    assert events == expected
    assert stream.held == reference.held
    assert stream.current_meetings == len(reference.held)
    assert stream.conflict_pairs() == reference.conflict_pairs()


@pytest.mark.parametrize("name", sorted(HYPERGRAPHS))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_member_counts_match_committee_meets_after_every_write(name, seed):
    hypergraph = HYPERGRAPHS[name]()
    rng = random.Random(seed)
    configuration = _random_configuration(rng, hypergraph)
    stream, reference = MeetingEventStream(hypergraph), _Reference(hypergraph)
    epoch = 0
    events = stream.observe(configuration, StepDelta(writes={}, epoch=epoch))
    _assert_agrees(stream, reference, events, reference.observe(configuration))
    convened = resyncs = 0
    for _ in range(400):
        if rng.random() < 0.03:
            # An epoch bump: the world is swapped between steps.
            configuration = _random_configuration(rng, hypergraph)
            epoch += 1
        # A step: one to three writers, each applied whole.
        writes = dict(_random_write(rng, hypergraph, configuration) for _ in range(rng.randint(1, 3)))
        configuration = configuration.updated(writes)
        delta = StepDelta(
            writes={pid: tuple(sorted(written)) for pid, written in writes.items()},
            epoch=epoch,
        )
        events = stream.observe(configuration, delta)
        expected = reference.observe(configuration)
        _assert_agrees(stream, reference, events, expected)
        if stream.last_writers is None:
            resyncs += 1
        else:
            assert stream.last_writers == delta.writes
        convened += sum(event.kind == "convene" for event in events)
    # The sequences exercise meetings and the resync path, not just misses.
    assert convened > 3 and resyncs > 0


@pytest.mark.parametrize("name", sorted(HYPERGRAPHS))
def test_observations_without_a_delta_resync_to_the_same_answer(name):
    hypergraph = HYPERGRAPHS[name]()
    rng = random.Random(7)
    configuration = _random_configuration(rng, hypergraph)
    stream, reference = MeetingEventStream(hypergraph), _Reference(hypergraph)
    _assert_agrees(stream, reference, stream.observe(configuration), reference.observe(configuration))
    for step in range(200):
        writes = dict([_random_write(rng, hypergraph, configuration)])
        configuration = configuration.updated(writes)
        # Alternate hand-fed configurations with delta-fed ones.
        delta = None if step % 3 == 0 else StepDelta(
            writes={pid: tuple(sorted(written)) for pid, written in writes.items()}, epoch=0
        )
        events = stream.observe(configuration, delta)
        _assert_agrees(stream, reference, events, reference.observe(configuration))


def test_an_unhashable_pointer_counts_toward_no_committee():
    hypergraph = figure1_hypergraph()
    edge = hypergraph.hyperedges[0]
    rows = {pid: {STATUS: LOOKING, POINTER: None} for pid in hypergraph.vertices}
    for q in edge:
        rows[q] = {STATUS: WAITING, POINTER: edge}
    configuration = Configuration(rows)
    stream = MeetingEventStream(hypergraph)
    stream.observe(configuration, StepDelta(writes={}, epoch=0))
    assert stream.held == (edge,)
    member = edge[0]
    configuration = configuration.updated({member: {POINTER: list(edge)}})
    events = stream.observe(configuration, StepDelta(writes={member: (POINTER,)}, epoch=0))
    assert events == [MeetingEvent("terminate", edge, 1)]
    assert stream.held == () and not committee_meets(configuration, edge)
