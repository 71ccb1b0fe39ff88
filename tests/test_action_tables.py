"""Status-keyed action tables: the declarations prune walks, never answers.

Covers

* the table shape: one entry per declared value, one full entry for an
  algorithm that declares no key, and the full walk for a value that no
  declaration names (unhashable values included);
* the soundness of the CC1–CC3 status declarations: whenever a guard
  holds, the walker's status is one its action declares.  A seeded sample
  on figure1 and grid-3x3 runs in tier-1; the exhaustive check over every
  input a walker's guards read on a path of two committees is ``slow``;
* the keyed walk picking the action the full walk picks.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.cc3 import CURSOR
from repro.core.runner import CommitteeCoordinator
from repro.core.states import LOCK_FLAG, POINTER, STATUS, TOKEN_FLAG
from repro.hypergraph.generators import figure1_hypergraph, path_of_committees
from repro.kernel.algorithm import Action, ActionContext, ActionTable, DistributedAlgorithm, Environment
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import default_daemon
from repro.kernel.scheduler import Scheduler
from repro.tokenring.dijkstra_ring import COUNTER
from repro.workloads.request_models import AlwaysRequestingEnvironment
from repro.workloads.scenarios import scenario_by_name

ALGORITHMS = ("cc1", "cc2", "cc3")
TOKENS = ("oracle", "ring", "tree")


def _algorithm(hypergraph, algorithm, token):
    return CommitteeCoordinator(hypergraph, algorithm=algorithm, token=token, seed=5).algorithm


class _Answers(Environment):
    """Every professor answers ``answer`` to both request predicates."""

    def __init__(self, answer: bool) -> None:
        self.answer = answer

    def request_in(self, pid, configuration):
        return self.answer

    def request_out(self, pid, configuration):
        return self.answer


class _Rows:
    """A bare configuration provider: the rows, nothing else."""

    def __init__(self, rows) -> None:
        self.rows = rows

    def states_view(self):
        return self.rows


def _excluded(table, status):
    """The actions of ``table`` whose declaration excludes ``status``."""
    return [a for a in table.every if a.when is not None and status not in a.when]


def _full_winner(table, ctx):
    return next((a.label for a in table.every if a.guard(ctx)), None)


# --------------------------------------------------------------------------- #
# table shape
# --------------------------------------------------------------------------- #
class _Keyed(DistributedAlgorithm):
    """Two processes with one status variable ``X`` and four actions."""

    action_key = "X"

    def process_ids(self):
        return (1, 2)

    def initial_state(self, pid):
        return {"X": "a"}

    def arbitrary_state(self, pid, rng):
        return {"X": rng.choice("abc")}

    def actions(self, pid):
        def holds(ctx):
            return True

        def noop(ctx):
            pass

        return (
            Action("any", holds, noop),
            Action("at-a", holds, noop, when=frozenset({"a"})),
            Action("at-a-or-b", holds, noop, when=frozenset({"a", "b"})),
            Action("at-b", lambda ctx: ctx.own("X") == "b", noop, when=frozenset({"b"})),
        )


class _Unkeyed(_Keyed):
    action_key = None


class TestActionTable:
    def test_entries_follow_declarations_in_priority_order(self):
        table = _Keyed().action_table(1)
        assert isinstance(table, ActionTable) and table.variable == "X"
        assert [a.label for a in table.every] == ["at-b", "at-a-or-b", "at-a", "any"]
        assert {value: [a.label for a in actions] for value, actions in table.items()} == {
            "b": ["at-b", "at-a-or-b", "any"],
            "a": ["at-a-or-b", "at-a", "any"],
        }
        # A value no declaration names walks every action.
        assert table["c"] is table.every and "c" not in table

    def test_an_algorithm_without_a_key_has_one_full_entry(self):
        table = _Unkeyed().action_table(1)
        assert table.variable is None
        assert list(table) == [None] and table[None] is table.every

    def test_walks_read_the_key_value_once_and_try_only_its_entry(self):
        algo, env = _Keyed(), Environment()
        # At "c", which no declaration names, the full walk tries even the
        # actions declared for other values.
        for value, expected in (("a", "at-a-or-b"), ("b", "at-b"), ("c", "at-a-or-b")):
            configuration = Configuration({1: {"X": value}, 2: {"X": "a"}})
            assert algo.enabled_action(1, configuration, env).label == expected
        # An unhashable value is named by no declaration either.
        configuration = Configuration({1: {"X": ["b"]}, 2: {"X": "a"}})
        assert algo.enabled_action(1, configuration, env).label == "at-a-or-b"
        unkeyed = _Unkeyed()
        configuration = Configuration({1: {"X": "a"}, 2: {"X": "a"}})
        assert unkeyed.enabled_action(1, configuration, env).label == "at-a-or-b"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cc_tables_are_keyed_by_status(self, algorithm):
        algo = _algorithm(figure1_hypergraph(), algorithm, "ring")
        table = algo.action_table(1)
        assert table.variable == STATUS
        assert set(table) == set(algo.statuses)
        for status, actions in table.items():
            # Each entry is the full table less the actions its status rules out.
            assert [a.label for a in actions] == [
                a.label for a in table.every if a not in _excluded(table, status)
            ]
            assert len(actions) < len(table.every)


# --------------------------------------------------------------------------- #
# soundness of the CC1–CC3 declarations
# --------------------------------------------------------------------------- #
def _check_configuration(algo, tables, configuration, pids):
    """Every excluded guard is false; the keyed walk picks the full walk's winner."""
    for answer in (False, True):
        environment = _Answers(answer)
        for pid in pids:
            table = tables[pid]
            status = configuration.states_view()[pid][STATUS]
            ctx = ActionContext(pid, configuration, environment)
            for action in _excluded(table, status):
                if action.guard(ctx):
                    pytest.fail(f"{action.label} of {pid} holds at S = {status!r}")
            winner = algo.enabled_action(pid, configuration, environment, table)
            assert (winner and winner.label) == _full_winner(table, ctx), pid


@pytest.mark.parametrize("scenario", ("figure1", "grid-3x3"))
@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_declarations_hold_on_seeded_configurations(algorithm, token, scenario):
    algo = _algorithm(scenario_by_name(scenario).hypergraph, algorithm, token)
    pids = algo.process_ids()
    tables = {pid: algo.action_table(pid) for pid in pids}
    for seed in range(12):
        # An arbitrary start, and the configurations its run passes through
        # (consistent flags, free committees, meetings).
        scheduler = Scheduler(
            algo,
            environment=AlwaysRequestingEnvironment(1 + seed % 2),
            daemon=default_daemon(seed=seed),
            initial_configuration=algo.arbitrary_configuration(random.Random(seed)),
        )
        for _ in range(12):
            _check_configuration(algo, tables, scheduler.configuration, pids)
            if scheduler.step() is None:
                break


def _domain(algo, pid, name):
    """The values variable ``name`` of ``pid`` ranges over."""
    if name == STATUS:
        return algo.statuses
    if name == POINTER:
        return (None,) + algo.incident(pid)
    if name in (TOKEN_FLAG, LOCK_FLAG):
        return (False, True)
    if name == CURSOR:
        return tuple(range(len(algo.incident(pid)) + 2))
    if name == algo.token.prefix + COUNTER:
        return tuple(range(algo.token.module.k))
    raise AssertionError(f"no domain for {name!r}")


def _walker_inputs(algo, pid):
    """Every assignment of the variables ``pid``'s guards read, as rows.

    The reads are ``read_dependency_variables(pid)``: its own row in full,
    the CC variables of its ``G_H`` neighbours and the token counter of its
    ring link.  Every other variable keeps its initial value; no guard of
    ``pid`` reads it (``tests/test_step_delta.py`` pins the declarations
    against the guards).
    """
    base = {q: algo.initial_state(q) for q in algo.process_ids()}
    slots = []
    for source, variables in sorted(algo.read_dependency_variables(pid).items()):
        for name in sorted(base[source]) if variables is None else variables:
            slots.append((source, name, _domain(algo, source, name)))
    for values in itertools.product(*(domain for _, _, domain in slots)):
        rows = {q: dict(row) for q, row in base.items()}
        for (source, name, _), value in zip(slots, values):
            rows[source][name] = value
        yield rows


@pytest.mark.slow
@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_declarations_hold_on_every_walker_input(algorithm, token):
    """Path of two committees (n = 3): every input of every walker, both
    request answers.  A guard that holds at a status its declaration leaves
    out fails here."""
    algo = _algorithm(path_of_committees(2), algorithm, token)
    environments = (_Answers(False), _Answers(True))
    checked = 0
    for pid in algo.process_ids():
        table = algo.action_table(pid)
        excluded = {status: _excluded(table, status) for status in algo.statuses}
        for rows in _walker_inputs(algo, pid):
            status = rows[pid][STATUS]
            view = _Rows(rows)
            for environment in environments:
                ctx = ActionContext(pid, view, environment)
                for action in excluded[status]:
                    if action.guard(ctx):
                        pytest.fail(f"{action.label} of {pid} holds at S = {status!r}: {rows}")
                checked += 1
    assert checked > 10_000
