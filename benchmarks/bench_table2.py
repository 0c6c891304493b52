"""Table 2 regeneration benchmark (exp. id ``table2`` in DESIGN.md).

Runs the paper's Table 2 protocol at reduced scale (scale with
``REPRO_BENCH_SCALE``), prints the measured-vs-paper table, and asserts
the *shape* conclusions that are robust even at smoke scale:

* every random heuristic has a worse average dfb than the best greedy
  heuristic;
* the table is internally consistent (dfb ≥ 0, wins sum ≥ instances);
* at scale 1, the paper-fidelity pin: the exact Spearman rho between the
  run's average-dfb ranking and the paper's, and their top-5 overlap.

Finer-grained shape targets (EMCT ≤ MCT, the exact ranking) need larger
samples; they are recorded in EXPERIMENTS.md from medium-scale runs.
"""

from repro.experiments.replan_study import _spearman
from repro.experiments.table2 import PAPER_TABLE2, render_table2, run_table2

# A reduced but still grid-shaped slice: all n values, one ncom, three
# wmin levels spanning the x-axis of Figure 2.
REDUCED = dict(n_values=(5, 20), ncom_values=(5,), wmin_values=(1, 5, 10))

# Paper-fidelity pin, read at scale 1 only.  Runs are bit-deterministic,
# so at this fixed seed both values are exact: a change that keeps the
# campaign records identical leaves them unchanged.  A change that moves
# either pin must say why in CHANGES.md.
PINNED_RHO = 0.9730392156862745
PINNED_TOP5_OVERLAP = 5


def _ranking(dfb_by_name):
    """Names best (lowest average dfb) first, ties broken by name."""
    return sorted(dfb_by_name, key=lambda name: (dfb_by_name[name], name))


def test_table2_regeneration(benchmark, scale):
    result = benchmark.pedantic(
        lambda: run_table2(
            scenarios_per_cell=1 * scale,
            trials=2,
            seed=12061,
            **REDUCED,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_table2(result))

    rows = {name: (dfb, wins) for name, dfb, wins in result.rows()}
    assert len(rows) == 17

    greedy_best = min(rows[n][0] for n in ("mct", "mct*", "emct", "emct*"))
    for name in ("random", "random1", "random2", "random3", "random4"):
        assert rows[name][0] > greedy_best, (
            f"{name} should trail the MCT family"
        )

    for name, (dfb, wins) in rows.items():
        assert dfb >= 0.0
        assert wins >= 0
    assert sum(w for _, w in rows.values()) >= result.campaign.instances

    if scale == 1:
        measured = _ranking({name: dfb for name, (dfb, _) in rows.items()})
        paper = _ranking({name: dfb for name, (dfb, _) in PAPER_TABLE2.items()})
        rho = _spearman(paper, measured)
        overlap = len(set(measured[:5]) & set(paper[:5]))
        print(f"ranking vs paper: rho={rho!r}, top-5 overlap={overlap}/5")
        assert rho == PINNED_RHO
        assert overlap == PINNED_TOP5_OVERLAP
