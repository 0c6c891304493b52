"""Pinned reports for the paper's (20, 10, 5) midpoint cell.

Every registry heuristic, both objectives (``run`` to completion and a
2,000-slot ``run_slots`` window), default simulator options.  The values
were recorded from the simulator while it still carried the exact
round-elision tier (DESIGN.md §10), whose skipped rounds were proven
no-ops: deleting that tier, or any later refactor of the round loop,
must leave every one of these numbers unchanged.  A deliberate change to
the simulation's semantics must update the table, and say why.
"""

import pytest

from repro.core.heuristics.registry import available_heuristics, make_scheduler
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator

FIELDS = (
    "makespan",
    "completed_iterations",
    "slots_simulated",
    "tasks_committed",
    "replicas_launched",
    "instances_lost_to_crash",
    "scheduler_rounds",
    "compute_slots_spent",
    "comm_slots_spent",
)

#: (heuristic, objective) -> the report's ``FIELDS``, in order.
PINNED = {
    ("clairvoyant", "run"): (3017, 10, 3017, 200, 1180, 547, 1627, 5711, 8658),
    ("clairvoyant", "run_slots"): (None, 6, 2000, 137, 895, 324, 1074, 3948, 5768),
    ("emct*", "run"): (3159, 10, 3159, 200, 1067, 796, 1666, 5961, 10288),
    ("emct*", "run_slots"): (None, 6, 2000, 129, 633, 513, 1057, 3874, 6640),
    ("emct", "run"): (3159, 10, 3159, 200, 1067, 796, 1666, 5961, 10288),
    ("emct", "run_slots"): (None, 6, 2000, 129, 633, 513, 1057, 3874, 6640),
    ("lw*", "run"): (3299, 10, 3299, 200, 1478, 475, 1719, 5574, 7618),
    ("lw*", "run_slots"): (None, 6, 2000, 125, 769, 261, 1028, 3510, 4472),
    ("lw", "run"): (3299, 10, 3299, 200, 1478, 475, 1719, 5574, 7618),
    ("lw", "run_slots"): (None, 6, 2000, 125, 769, 261, 1028, 3510, 4472),
    ("mct*", "run"): (3215, 10, 3215, 200, 1251, 801, 1721, 5754, 10840),
    ("mct*", "run_slots"): (None, 6, 2000, 122, 752, 550, 1045, 3563, 6806),
    ("mct", "run"): (3215, 10, 3215, 200, 1251, 801, 1721, 5754, 10840),
    ("mct", "run_slots"): (None, 6, 2000, 122, 752, 550, 1045, 3563, 6806),
    ("passive", "run"): (5556, 10, 5556, 200, 1973, 1169, 2794, 6232, 10730),
    ("passive", "run_slots"): (None, 3, 2000, 69, 440, 335, 974, 2176, 3244),
    ("random1w", "run"): (3640, 10, 3640, 200, 1487, 793, 1933, 5899, 11588),
    ("random1w", "run_slots"): (None, 5, 2000, 103, 641, 481, 1041, 3298, 6491),
    ("random1", "run"): (3842, 10, 3842, 200, 1208, 901, 2020, 6335, 12742),
    ("random1", "run_slots"): (None, 5, 2000, 102, 603, 465, 1014, 3291, 6585),
    ("random2w", "run"): (3570, 10, 3570, 200, 1572, 800, 1915, 5795, 11686),
    ("random2w", "run_slots"): (None, 5, 2000, 106, 624, 467, 1054, 3325, 6486),
    ("random2", "run"): (4187, 10, 4187, 200, 1520, 988, 2174, 7021, 13953),
    ("random2", "run_slots"): (None, 4, 2000, 99, 626, 464, 1014, 3393, 6637),
    ("random3w", "run"): (3582, 10, 3582, 200, 1475, 704, 1918, 5956, 11062),
    ("random3w", "run_slots"): (None, 5, 2000, 105, 569, 404, 1036, 3357, 6093),
    ("random3", "run"): (4141, 10, 4141, 200, 1594, 813, 2166, 6902, 12983),
    ("random3", "run_slots"): (None, 5, 2000, 100, 583, 408, 1032, 3429, 6407),
    ("random4w", "run"): (3816, 10, 3816, 200, 1601, 832, 1998, 6198, 12037),
    ("random4w", "run_slots"): (None, 5, 2000, 105, 638, 446, 1005, 3293, 6281),
    ("random4", "run"): (4055, 10, 4055, 200, 1451, 807, 2113, 6434, 12584),
    ("random4", "run_slots"): (None, 5, 2000, 100, 525, 455, 1042, 3358, 6445),
    ("random", "run"): (3808, 10, 3808, 200, 1256, 903, 2006, 6523, 12831),
    ("random", "run_slots"): (None, 4, 2000, 99, 516, 434, 1011, 3273, 6369),
    ("ud*-exact", "run"): (3299, 10, 3299, 200, 1460, 505, 1719, 5697, 8116),
    ("ud*-exact", "run_slots"): (None, 6, 2000, 122, 868, 288, 1016, 3590, 4843),
    ("ud*", "run"): (3369, 10, 3369, 200, 1472, 547, 1758, 5888, 8854),
    ("ud*", "run_slots"): (None, 6, 2000, 120, 964, 310, 1033, 3585, 5199),
    ("ud-exact", "run"): (3299, 10, 3299, 200, 1460, 505, 1719, 5697, 8116),
    ("ud-exact", "run_slots"): (None, 6, 2000, 122, 868, 288, 1016, 3590, 4843),
    ("ud", "run"): (3369, 10, 3369, 200, 1472, 547, 1758, 5888, 8854),
    ("ud", "run_slots"): (None, 6, 2000, 120, 964, 310, 1033, 3585, 5199),
}


def test_table_covers_the_registry():
    heuristics = set(available_heuristics()) | {"clairvoyant"}
    assert {key for key, _ in PINNED} == heuristics


@pytest.mark.parametrize(
    "heuristic,objective", sorted(PINNED), ids=lambda value: value
)
def test_midpoint_report_matches_pin(heuristic, objective):
    scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
    platform = scenario.build_platform(0)
    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(),
        rng=scenario.scheduler_rng(0, heuristic),
    )
    if objective == "run":
        report = sim.run(max_slots=60_000)
    else:
        report = sim.run_slots(2_000)
    got = tuple(getattr(report, name) for name in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, PINNED[heuristic, objective]))
