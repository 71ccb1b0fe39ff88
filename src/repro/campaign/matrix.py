"""Declarative campaign matrices and their expansion into run jobs.

A :class:`CampaignSpec` names the axes; :func:`expand_jobs` takes the cross
product.  Named scenarios cross with every axis
(scenario × algorithm × token × engine × daemon × fault schedule × seed);
randomized scenarios (drawn by
:func:`~repro.workloads.random_scenarios.random_scenario`) carry their own
token, daemon, environment and fault schedule, so they cross only with
algorithms × engines × seeds — the point of a randomized scenario is that
*its* dimensions were drawn from the seed.

Expansion is eager and validating: unknown scenario names, algorithms or
malformed fault schedules fail here, before any worker process is spawned.
Job indices are assigned in expansion order, which fixes the row order of
the campaign's JSONL output regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaign.jobs import RunJob
from repro.core.runner import ALGORITHMS, DAEMONS, TOKEN_MODULES
from repro.workloads.random_scenarios import random_scenarios
from repro.workloads.request_models import environment_from_spec
from repro.workloads.scenarios import scenario_by_name

ENGINES_CHOICES = ("dense", "incremental", "batched")


@dataclass(frozen=True)
class FaultSchedule:
    """A mid-run transient-fault schedule: corrupt every ``every`` steps.

    ``every == 0`` is the clean schedule.  ``fraction`` is the share of
    processes hit per burst (see
    :class:`~repro.kernel.faults.FaultInjector`).
    """

    every: int = 0
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("fault schedule: every must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fault schedule: fraction must be in (0, 1]")

    @property
    def name(self) -> str:
        return "none" if not self.every else f"burst-{self.every}x{self.fraction}"

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse ``"none"`` or ``"EVERY:FRACTION"`` (e.g. ``"50:0.4"``)."""
        text = text.strip()
        if text in ("", "none", "0"):
            return cls()
        every, sep, fraction = text.partition(":")
        # Only conversion failures are format errors; range errors from
        # __post_init__ ("every must be >= 0", "fraction must be in (0, 1]")
        # propagate with their own, more specific message — "-5:0.5" is
        # well-formed, its *value* is what is wrong.
        try:
            every_value = int(every)
            fraction_value = float(fraction) if sep else 0.5
        except ValueError as exc:
            raise ValueError(
                f"bad fault schedule {text!r}: expected 'none' or 'EVERY:FRACTION'"
            ) from exc
        return cls(every=every_value, fraction=fraction_value)


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative matrix a campaign expands.

    ``scenarios`` are names from :mod:`repro.workloads.scenarios`;
    ``random_count`` adds that many randomized scenarios at consecutive
    seeds from ``random_base_seed``.  ``seeds`` are the per-cell run seeds
    (daemon / arbitrary-configuration / fault RNG).
    """

    scenarios: Tuple[str, ...] = ()
    random_count: int = 0
    random_base_seed: int = 0
    algorithms: Tuple[str, ...] = ("cc2",)
    tokens: Tuple[str, ...] = ("tree",)
    engines: Tuple[str, ...] = ("incremental",)
    daemons: Tuple[str, ...] = ("weakly_fair",)
    faults: Tuple[FaultSchedule, ...] = (FaultSchedule(),)
    seeds: Tuple[int, ...] = (1,)
    max_steps: int = 2000
    discussion_steps: int = 1
    environment: str = "always"
    grace_steps: Optional[int] = None
    arbitrary_start: bool = False

    def __post_init__(self) -> None:
        if not self.scenarios and not self.random_count:
            raise ValueError("a campaign needs named scenarios and/or random_count > 0")
        if self.random_count < 0:
            raise ValueError("random_count must be >= 0")
        for name in self.scenarios:
            scenario_by_name(name)  # KeyError on unknown names, before expansion
        # Build-and-discard: a typo'd --environment must fail here, not
        # inside a spawned worker.
        environment_from_spec(self.environment, self.discussion_steps, seed=0)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        # RequestOut is read only after observe counted the done step, so
        # every length <= 1 runs exactly like 1: reject the aliases.
        if self.discussion_steps < 1:
            raise ValueError("discussion_steps must be >= 1")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        for token in self.tokens:
            if token not in TOKEN_MODULES:
                raise ValueError(f"unknown token {token!r}; expected one of {TOKEN_MODULES}")
        for engine in self.engines:
            if engine not in ENGINES_CHOICES:
                raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES_CHOICES}")
        if "batched" in self.engines:
            from repro.kernel.batched import BatchedUnsupported, require_numpy

            # Fail at spec time with the extra's name, not mid-campaign:
            # without numpy every batched group would fall back solo, which
            # is correct but silently forfeits the speed the user asked for.
            # Only a batched campaign imports numpy, and it does so here.
            try:
                require_numpy()
            except BatchedUnsupported as exc:
                raise ValueError(str(exc)) from None
        for daemon in self.daemons:
            if daemon not in DAEMONS:
                raise ValueError(f"unknown daemon {daemon!r}; expected one of {DAEMONS}")


def expand_jobs(spec: CampaignSpec) -> List[RunJob]:
    """Expand the matrix into indexed, fully self-describing run jobs."""
    jobs: List[RunJob] = []
    for name in spec.scenarios:
        for algorithm in spec.algorithms:
            for token in spec.tokens:
                for engine in spec.engines:
                    for daemon in spec.daemons:
                        for fault in spec.faults:
                            for seed in spec.seeds:
                                jobs.append(
                                    RunJob(
                                        index=len(jobs),
                                        scenario=name,
                                        random_seed=None,
                                        algorithm=algorithm,
                                        token=token,
                                        engine=engine,
                                        daemon=daemon,
                                        environment=spec.environment,
                                        discussion_steps=spec.discussion_steps,
                                        seed=seed,
                                        max_steps=spec.max_steps,
                                        arbitrary_start=spec.arbitrary_start,
                                        fault_every=fault.every,
                                        fault_fraction=fault.fraction,
                                        grace_steps=spec.grace_steps,
                                    )
                                )
    for scenario in random_scenarios(spec.random_count, spec.random_base_seed):
        for algorithm in spec.algorithms:
            for engine in spec.engines:
                for seed in spec.seeds:
                    jobs.append(
                        RunJob(
                            index=len(jobs),
                            scenario=scenario.name,
                            random_seed=scenario.seed,
                            algorithm=algorithm,
                            token=scenario.token,
                            engine=engine,
                            daemon=scenario.daemon,
                            environment=scenario.environment_spec,
                            discussion_steps=scenario.discussion_steps,
                            seed=seed,
                            max_steps=spec.max_steps,
                            arbitrary_start=scenario.arbitrary_start,
                            fault_every=scenario.fault_every,
                            fault_fraction=scenario.fault_fraction,
                            grace_steps=spec.grace_steps,
                        )
                    )
    return jobs
