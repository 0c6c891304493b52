"""Tests for the executable Theorem 1 reduction."""

import numpy as np
import pytest

from repro.core.offline.sat_reduction import (
    PAPER_FIGURE1_FORMULA,
    Sat3Instance,
    assignment_from_schedule,
    brute_force_sat,
    reduction_instance,
    render_gadget,
    schedule_from_assignment,
    verify_schedule,
)
from repro.types import ProcState


def tiny_sat():
    # (x1 v x2) & (~x1 v x2): satisfiable by x2 = True.
    return Sat3Instance(n_vars=2, clauses=((1, 2), (-1, 2)))


def unsat_sat():
    # x1 & ~x1 via two unit clauses (x2 padding mentioned to satisfy the
    # every-variable-appears precondition).
    return Sat3Instance(n_vars=2, clauses=((1, 2), (-1, 2), (1, -2), (-1, -2),
                                           (1,), (-1,)))


class TestSat3Instance:
    def test_satisfied_by(self):
        sat = tiny_sat()
        assert sat.satisfied_by([False, True])
        assert sat.satisfied_by([True, True])
        assert not sat.satisfied_by([True, False])

    def test_rejects_empty_clauses(self):
        with pytest.raises(ValueError):
            Sat3Instance(n_vars=1, clauses=())

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            Sat3Instance(n_vars=1, clauses=((2,),))

    def test_rejects_oversized_clause(self):
        with pytest.raises(ValueError, match="1..3 literals"):
            Sat3Instance(n_vars=4, clauses=((1, 2, 3, 4),))

    def test_rejects_unmentioned_variable(self):
        with pytest.raises(ValueError, match="every variable"):
            Sat3Instance(n_vars=3, clauses=((1, 2),))

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError):
            tiny_sat().satisfied_by([True])

    def test_paper_formula_is_satisfiable(self):
        assert brute_force_sat(PAPER_FIGURE1_FORMULA) is not None

    def test_brute_force_unsat(self):
        assert brute_force_sat(unsat_sat()) is None


class TestReductionInstance:
    def test_parameters_match_theorem(self):
        sat = PAPER_FIGURE1_FORMULA
        inst = reduction_instance(sat)
        n, m = sat.n_vars, sat.n_clauses
        assert inst.p == 2 * n
        assert inst.m == m
        assert inst.t_prog == m
        assert inst.t_data == 0
        assert inst.ncom == 1
        assert inst.speeds == tuple([1] * 2 * n)
        assert inst.horizon == m * (n + 1)

    def test_clause_window_matches_membership(self):
        sat = PAPER_FIGURE1_FORMULA
        inst = reduction_instance(sat)
        for j, clause in enumerate(sat.clauses):
            for i in range(1, sat.n_vars + 1):
                pos = inst.state(2 * (i - 1), j) == ProcState.UP
                neg = inst.state(2 * (i - 1) + 1, j) == ProcState.UP
                assert pos == (i in clause)
                assert neg == (-i in clause)

    def test_blocks_have_exactly_one_variable_pair_up(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        m, n = sat.n_clauses, sat.n_vars
        for i in range(1, n + 1):
            for t in range(m * i, m * (i + 1)):
                ups = [q for q in range(inst.p)
                       if inst.state(q, t) == ProcState.UP]
                assert ups == [2 * (i - 1), 2 * (i - 1) + 1]


class TestCertificates:
    def test_every_satisfying_assignment_yields_valid_schedule(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        for mask in range(4):
            assignment = [(mask >> i) & 1 == 1 for i in range(2)]
            if not sat.satisfied_by(assignment):
                continue
            schedule = schedule_from_assignment(sat, assignment)
            makespan = verify_schedule(inst, schedule)
            assert makespan is not None
            assert makespan <= inst.horizon

    def test_paper_formula_round_trip(self):
        sat = PAPER_FIGURE1_FORMULA
        assignment = brute_force_sat(sat)
        schedule = schedule_from_assignment(sat, assignment)
        makespan = verify_schedule(reduction_instance(sat), schedule)
        assert makespan is not None
        assert makespan <= reduction_instance(sat).horizon
        recovered = assignment_from_schedule(sat, schedule)
        assert sat.satisfied_by(recovered)

    def test_unsatisfying_assignment_rejected(self):
        sat = tiny_sat()
        with pytest.raises(ValueError, match="does not satisfy"):
            schedule_from_assignment(sat, [True, False])

    def test_incomplete_schedule_rejected_by_backward_map(self):
        sat = tiny_sat()
        empty = [None] * reduction_instance(sat).horizon
        with pytest.raises(ValueError, match="does not complete"):
            assignment_from_schedule(sat, empty)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_satisfiable_formulas_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        while True:
            clauses = []
            for _ in range(4):
                variables = rng.choice(np.arange(1, n + 1), size=3, replace=False)
                signs = rng.choice([-1, 1], size=3)
                clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
            try:
                sat = Sat3Instance(n_vars=n, clauses=tuple(clauses))
            except ValueError:
                continue  # some variable unmentioned; redraw
            if brute_force_sat(sat) is not None:
                break
        assignment = brute_force_sat(sat)
        schedule = schedule_from_assignment(sat, assignment)
        makespan = verify_schedule(reduction_instance(sat), schedule)
        assert makespan is not None
        recovered = assignment_from_schedule(sat, schedule)
        assert sat.satisfied_by(recovered)

    def test_unsat_formula_has_no_assignment_certificate(self):
        sat = unsat_sat()
        for mask in range(4):
            assignment = [(mask >> i) & 1 == 1 for i in range(2)]
            with pytest.raises(ValueError):
                schedule_from_assignment(sat, assignment)


class TestVerifySchedule:
    def test_rejects_service_to_non_up(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        # Processor 0 (x1's positive literal) is RECLAIMED at clause 1
        # (clause (-1, 2) does not contain x1).
        schedule = [None] * inst.horizon
        schedule[1] = 0
        with pytest.raises(ValueError, match="not UP"):
            verify_schedule(inst, schedule)

    def test_rejects_over_service(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        m = sat.n_clauses
        schedule = [None] * inst.horizon
        # Serve processor 2 (x2's positive literal, UP in both clauses)
        # beyond Tprog within its block.
        schedule[0] = 2
        schedule[1] = 2
        for t in range(2 * m, 3 * m):
            schedule[t] = 2  # block of variable 2
        with pytest.raises(ValueError, match="beyond Tprog"):
            verify_schedule(inst, schedule)

    def test_rejects_unknown_processor(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        schedule = [99] + [None] * (inst.horizon - 1)
        with pytest.raises(ValueError, match="unknown processor"):
            verify_schedule(inst, schedule)

    def test_rejects_nonzero_t_data(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        object.__setattr__(inst, "t_data", 1)
        with pytest.raises(ValueError, match="Tdata = 0"):
            verify_schedule(inst, [None] * inst.horizon)

    def test_rejects_overlong_schedule(self):
        sat = tiny_sat()
        inst = reduction_instance(sat)
        with pytest.raises(ValueError, match="longer than"):
            verify_schedule(inst, [None] * (inst.horizon + 1))


class TestGadgetRendering:
    def test_contains_all_literal_rows(self):
        text = render_gadget(PAPER_FIGURE1_FORMULA)
        for i in range(1, 5):
            assert f"x{i}" in text
            assert f"~x{i}" in text

    def test_clause_headers(self):
        text = render_gadget(PAPER_FIGURE1_FORMULA)
        for j in range(1, 7):
            assert f"C{j}" in text

    def test_marks_match_membership(self):
        # Row for x1 must have marks exactly at C2 and C4 (clauses
        # containing the positive literal x1 in the paper's formula).
        lines = render_gadget(PAPER_FIGURE1_FORMULA).splitlines()
        x1_row = next(line for line in lines if line.strip().startswith("x1"))
        marks = [idx for idx, cell in enumerate(x1_row.split()[1:]) if cell == "#"]
        assert marks == [1, 3]
