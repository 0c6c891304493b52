"""Experimental scenario generation (paper Section 7).

The paper's evaluation protocol:

* ``p = 20`` processors; each processor's chain drawn by
  :func:`~repro.core.markov.paper_random_model` (self-loops uniform in
  ``[0.90, 0.99]``, symmetric off-diagonals);
* speeds :math:`w_q` uniform in ``[wmin, 10 · wmin]`` (integers);
* ``Tdata = wmin`` (the fastest possible processor has a
  communication-to-computation ratio of 1), ``Tprog = 5 · wmin``;
* a scenario cell is a triple ``(n, ncom, wmin)`` with
  ``n ∈ {5, 10, 20, 40}``, ``ncom ∈ {5, 10, 20}``, ``wmin ∈ 1..10``;
* 247 random scenarios per cell, 10 trials per scenario (the trial varies
  only the seed driving the Markov state transitions), 10 iterations per
  run.

The *contention-prone* variant (Table 3) fixes ``n = 20``, ``ncom = 5``,
``wmin = 1`` and scales the communication times by a factor ``f``:
``Tdata = f · wmin``, ``Tprog = 5 f · wmin`` (``f = 5`` and ``f = 10``).

A :class:`Scenario` is the *static* description (chains, speeds,
application); :meth:`Scenario.build_platform` instantiates the stochastic
ground truth for one trial.  Availability randomness is derived from
``(scenario key, trial)`` only — never from the heuristic — so the same
trial presents the identical availability sample to every heuristic
(paired comparison, as the dfb metric requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .._validation import require_nonnegative_int, require_positive_int
from ..core.markov import MarkovAvailabilityModel, paper_random_model
from ..rng import RngFactory
from ..sim.platform import Platform, Processor
from .application import IterativeApplication

__all__ = [
    "PAPER_N_VALUES",
    "PAPER_NCOM_VALUES",
    "PAPER_WMIN_VALUES",
    "Scenario",
    "ScenarioSpec",
    "ScenarioGenerator",
]

#: Parameter grid of the paper's Table 1.
PAPER_N_VALUES: Tuple[int, ...] = (5, 10, 20, 40)
PAPER_NCOM_VALUES: Tuple[int, ...] = (5, 10, 20)
PAPER_WMIN_VALUES: Tuple[int, ...] = tuple(range(1, 11))

#: Paper constants.
PAPER_P = 20
PAPER_ITERATIONS = 10
PAPER_SCENARIOS_PER_CELL = 247
PAPER_TRIALS = 10


@dataclass(frozen=True)
class Scenario:
    """One random experimental scenario (chains + speeds + application).

    Attributes:
        key: provenance tuple identifying the scenario (cell parameters
            and scenario index) — also the RNG derivation key.
        models: one Markov chain per processor.
        speeds: one :math:`w_q` per processor.
        ncom: the master channel budget.
        app: the iterative application (m tasks, 10 iterations, timings).
        root_seed: entropy of the generating factory (provenance).
        truth: ground-truth sampler family — ``"markov"`` (the paper's
            slot-by-slot walk) or ``"semi-markov"`` (the run-length form
            of the same chains, O(runs) generation; used by the large-p
            family, DESIGN.md §12).  The scheduler belief is the Markov
            chain either way.
    """

    key: tuple
    models: Tuple[MarkovAvailabilityModel, ...]
    speeds: Tuple[int, ...]
    ncom: int
    app: IterativeApplication
    root_seed: object = None
    truth: str = "markov"

    @property
    def p(self) -> int:
        """Number of processors."""
        return len(self.models)

    def build_platform(self, trial: int) -> Platform:
        """Instantiate the ground-truth platform for one trial.

        The availability sample depends only on ``(root_seed, key, trial,
        processor)`` — identical across heuristics, fresh across trials.
        """
        trial = require_nonnegative_int(trial, "trial")
        if self.truth not in ("markov", "semi-markov"):
            raise ValueError(
                f"unknown ground-truth family {self.truth!r}; "
                "expected 'markov' or 'semi-markov'"
            )
        rngs = RngFactory(self.root_seed).generators(
            "avail", *self.key, trial, count=self.p
        )
        if self.truth == "semi-markov":
            processors = Processor.from_semi_markov_batch(
                range(self.p), self.speeds, self.models, rngs
            )
        else:
            processors = [
                Processor.from_markov(q, self.speeds[q], self.models[q], rngs[q])
                for q in range(self.p)
            ]
        return Platform(processors, ncom=self.ncom)

    def scheduler_rng(self, trial: int, heuristic: str):
        """RNG stream for a heuristic's internal randomness in one trial.

        Derived per heuristic so that random heuristics don't perturb each
        other, while the availability sample stays shared.
        """
        trial = require_nonnegative_int(trial, "trial")
        return RngFactory(self.root_seed).generator(
            "sched", *self.key, trial, heuristic
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A name+seed description of a generator-derived :class:`Scenario`.

    Parallel execution backends ship work units between processes; a live
    :class:`Scenario` carries Markov chain objects and numpy state, so the
    units instead carry this tiny spec and rebuild the scenario on the
    worker via :class:`ScenarioGenerator` — the scenario RNG derivation
    depends only on ``(root_seed, key)``, so the rebuilt scenario is
    identical to the original regardless of which worker (or how many
    workers) executes the unit.

    Attributes:
        root_seed: the generator's root seed.  Must be a plain int: a
            ``None`` seed draws fresh OS entropy on every rebuild, so it
            cannot be serialised by name+seed.
        n, ncom, wmin, comm_factor, index: the scenario key fields.
        p: processors per scenario.
        iterations: iterations per run.
    """

    root_seed: int
    n: int
    ncom: int
    wmin: int
    comm_factor: int
    index: int
    p: int
    iterations: int

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "ScenarioSpec":
        """Extract the spec of a generator-derived scenario.

        The candidate spec is rebuilt and verified field-by-field against
        ``scenario``, so a spec round trip can never silently change what
        gets simulated.

        Raises:
            ValueError: when the scenario cannot be reproduced from a spec
                (hand-built key, non-integer seed, mutated fields).
        """
        if not isinstance(scenario.root_seed, (int, np.integer)):
            raise ValueError(
                "scenario root_seed is not an int; cannot serialise by seed"
            )
        key = scenario.key
        if len(key) != 5 or not all(isinstance(k, (int, np.integer)) for k in key):
            raise ValueError(
                f"scenario key {key!r} is not the generator's "
                "(n, ncom, wmin, comm_factor, index) layout"
            )
        spec = cls(
            root_seed=int(scenario.root_seed),
            n=int(key[0]),
            ncom=int(key[1]),
            wmin=int(key[2]),
            comm_factor=int(key[3]),
            index=int(key[4]),
            p=scenario.p,
            iterations=scenario.app.iterations,
        )
        rebuilt = spec.build()
        same = (
            rebuilt.truth == scenario.truth
            and rebuilt.key == scenario.key
            and rebuilt.ncom == scenario.ncom
            and rebuilt.speeds == scenario.speeds
            and rebuilt.app == scenario.app
            and all(
                np.array_equal(a.matrix, b.matrix)
                for a, b in zip(rebuilt.models, scenario.models)
            )
        )
        if not same:
            raise ValueError(
                "scenario does not round-trip through its spec (was it "
                "built by ScenarioGenerator and left unmodified?)"
            )
        return spec

    def build(self) -> Scenario:
        """Rebuild the scenario (cached; specs are immutable)."""
        return _build_scenario(self)


# Sized for a full paper-scale cell sweep per worker; a cached Scenario is
# a few KB (20 3×3 chains + ints), so the ceiling is a handful of MB.
# Verification in from_scenario warms this cache, and campaign units of
# one scenario run adjacently, so each worker builds a scenario O(1)
# times — a cost that is noise next to the simulations it feeds.
@lru_cache(maxsize=2048)
def _build_scenario(spec: ScenarioSpec) -> Scenario:
    generator = ScenarioGenerator(
        spec.root_seed, p=spec.p, iterations=spec.iterations
    )
    return generator.scenario(
        spec.n, spec.ncom, spec.wmin, spec.index, comm_factor=spec.comm_factor
    )


class ScenarioGenerator:
    """Generates the paper's scenario population deterministically.

    Args:
        root_seed: seed for the whole experiment campaign.
        p: processors per scenario (paper: 20).
        iterations: iterations per run (paper: 10).
    """

    def __init__(
        self,
        root_seed=12061,
        *,
        p: int = PAPER_P,
        iterations: int = PAPER_ITERATIONS,
    ):
        self._factory = RngFactory(root_seed)
        self._root_seed = root_seed
        self.p = require_positive_int(p, "p")
        self.iterations = require_positive_int(iterations, "iterations")

    def scenario(
        self,
        n: int,
        ncom: int,
        wmin: int,
        index: int,
        *,
        comm_factor: int = 1,
    ) -> Scenario:
        """The ``index``-th random scenario of cell ``(n, ncom, wmin)``.

        Args:
            n: tasks per iteration.
            ncom: channel budget.
            wmin: the speed-scale parameter; ``w_q ~ U{wmin..10·wmin}``,
                ``Tdata = comm_factor · wmin``,
                ``Tprog = 5 · comm_factor · wmin``.
            index: scenario index within the cell (0-based).
            comm_factor: Table 3's communication scaling (1, 5, or 10).
        """
        n = require_positive_int(n, "n")
        ncom = require_positive_int(ncom, "ncom")
        wmin = require_positive_int(wmin, "wmin")
        comm_factor = require_positive_int(comm_factor, "comm_factor")
        key = (n, ncom, wmin, comm_factor, index)
        rng = self._factory.generator("scenario", *key)
        models = tuple(paper_random_model(rng) for _ in range(self.p))
        speeds = tuple(
            int(rng.integers(wmin, 10 * wmin, endpoint=True)) for _ in range(self.p)
        )
        app = IterativeApplication(
            tasks_per_iteration=n,
            iterations=self.iterations,
            t_prog=5 * comm_factor * wmin,
            t_data=comm_factor * wmin,
        )
        return Scenario(
            key=key,
            models=models,
            speeds=speeds,
            ncom=ncom,
            app=app,
            root_seed=self._root_seed,
        )

    def large_grid_scenario(
        self,
        n: int,
        ncom: int,
        wmin: int,
        index: int,
        *,
        comm_factor: int = 1,
        mean_sojourn: int = 1000,
    ) -> Scenario:
        """A low-churn scenario for the large-p platform benchmarks.

        The paper's chains (self-loops in ``[0.90, 0.99]``) model a
        20-host lab where a slot is minutes and hosts flap every 10–100
        slots.  A production desktop grid (BOINC-style, the DESIGN.md §12
        setting) has per-host mean sojourns of hours-to-days — hundreds
        to thousands of slots — so platform-wide churn per slot stays
        O(p / sojourn), not O(p).  This family keeps the paper's speeds,
        timings, and symmetric off-diagonal structure but draws each
        self-loop as ``1 - 1/s`` with ``s`` log-uniform in
        ``[mean_sojourn / 2, mean_sojourn * 2]``, giving per-state mean
        sojourns around ``mean_sojourn`` slots.

        Ground truth is the run-length (semi-Markov) form of the chains
        (``truth="semi-markov"``): distributionally the same process,
        but generated in O(runs) — materialising 10k workers' traces
        must not cost Θ(p · horizon).  Beliefs stay the Markov chains.

        Seed-stable exactly like :meth:`scenario`: the key
        ``("large", n, ncom, wmin, comm_factor, mean_sojourn, index)``
        fully determines chains, speeds, and every trial's availability
        sample.  (Keys of this family are not :class:`ScenarioSpec`
        round-trippable; the bench harness passes scenarios directly.)
        """
        n = require_positive_int(n, "n")
        ncom = require_positive_int(ncom, "ncom")
        wmin = require_positive_int(wmin, "wmin")
        comm_factor = require_positive_int(comm_factor, "comm_factor")
        mean_sojourn = require_positive_int(mean_sojourn, "mean_sojourn")
        if mean_sojourn < 2:
            raise ValueError(
                f"mean_sojourn must be >= 2 slots, got {mean_sojourn}"
            )
        key = ("large", n, ncom, wmin, comm_factor, mean_sojourn, index)
        rng = self._factory.generator("scenario", *key)
        low, high = np.log(mean_sojourn / 2.0), np.log(mean_sojourn * 2.0)
        sojourns = np.exp(rng.uniform(low, high, size=(self.p, 3)))
        models = MarkovAvailabilityModel.from_self_loop_stack(1.0 - 1.0 / sojourns)
        speeds = tuple(
            int(rng.integers(wmin, 10 * wmin, endpoint=True))
            for _ in range(self.p)
        )
        app = IterativeApplication(
            tasks_per_iteration=n,
            iterations=self.iterations,
            t_prog=5 * comm_factor * wmin,
            t_data=comm_factor * wmin,
        )
        return Scenario(
            key=key,
            models=models,
            speeds=speeds,
            ncom=ncom,
            app=app,
            root_seed=self._root_seed,
            truth="semi-markov",
        )

    def cell(
        self,
        n: int,
        ncom: int,
        wmin: int,
        count: int,
        *,
        comm_factor: int = 1,
    ) -> List[Scenario]:
        """``count`` scenarios of one cell (paper: 247)."""
        return [
            self.scenario(n, ncom, wmin, index, comm_factor=comm_factor)
            for index in range(count)
        ]

    def grid(
        self,
        scenarios_per_cell: int,
        *,
        n_values: Optional[Tuple[int, ...]] = None,
        ncom_values: Optional[Tuple[int, ...]] = None,
        wmin_values: Optional[Tuple[int, ...]] = None,
    ) -> Iterator[Scenario]:
        """Iterate scenarios over the full (or a restricted) parameter grid.

        Defaults to the paper's Table 1 grid.  The paper's full campaign is
        ``grid(247)`` with 10 trials each: 296,400 problem instances.
        """
        for n in n_values or PAPER_N_VALUES:
            for ncom in ncom_values or PAPER_NCOM_VALUES:
                for wmin in wmin_values or PAPER_WMIN_VALUES:
                    for index in range(scenarios_per_cell):
                        yield self.scenario(n, ncom, wmin, index)

    def contention_prone(
        self, comm_factor: int, count: int
    ) -> List[Scenario]:
        """Table 3 scenarios: ``n=20, ncom=5, wmin=1``, comm scaled.

        Args:
            comm_factor: 5 (Table 3 left) or 10 (Table 3 right).
            count: scenarios (paper: 100).
        """
        return self.cell(20, 5, 1, count, comm_factor=comm_factor)
