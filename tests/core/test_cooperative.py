"""Cooperative OEF (Eq. 10): EF + SI + optimal efficiency (+ Theorem 5.2)."""

import numpy as np
import pytest

from repro.core import (
    CooperativeOEF,
    ProblemInstance,
    SpeedupMatrix,
    check_envy_freeness,
    check_sharing_incentive,
    optimal_efficiency_upper_bound,
)
from repro.core.cooperative import EfficiencyMaxAllocator
from repro.exceptions import SolverError
from repro.solver import IncrementalLP, incremental_available
from repro.workloads.generator import random_instance


def _spy(monkeypatch, cls, name):
    """Record calls to ``cls.name`` (still delegating); returns the log."""
    calls = []
    original = getattr(cls, name)

    def recorded(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


class TestPaperExamples:
    def test_section_2_4_optimal_allocation(self, paper_instance):
        # the paper's X*: u1 gets GPU1, u2/u3 split GPU2, E = <1, 1.5, 2>
        allocation = CooperativeOEF().allocate(paper_instance)
        np.testing.assert_allclose(
            allocation.user_throughput(), [1.0, 1.5, 2.0], rtol=1e-6
        )
        assert allocation.total_efficiency() == pytest.approx(4.5)

    def test_eq6_allocation(self, eq6_instance):
        # W=[[1,2],[1,5]] -> X=[[1,0.25],[0,0.75]], total 5.25
        allocation = CooperativeOEF().allocate(eq6_instance)
        np.testing.assert_allclose(
            allocation.matrix, [[1.0, 0.25], [0.0, 0.75]], atol=1e-6
        )
        assert allocation.total_efficiency() == pytest.approx(5.25)

    def test_fig2_before_and_after_lie(self, fig2_instance):
        allocation = CooperativeOEF().allocate(fig2_instance)
        np.testing.assert_allclose(
            allocation.matrix, [[1.0, 0.25], [0.0, 0.75]], atol=1e-6
        )
        lied = fig2_instance.with_speedups(
            fig2_instance.speedups.with_row(0, [1.0, 3.0])
        )
        after = CooperativeOEF().allocate(lied)
        np.testing.assert_allclose(
            after.matrix, [[1.0, 1 / 3], [0.0, 2 / 3]], atol=1e-4
        )


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_envy_freeness_on_random_instances(self, seed):
        instance = random_instance(5, 3, seed=seed)
        allocation = CooperativeOEF().allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    @pytest.mark.parametrize("seed", range(5))
    def test_sharing_incentive_on_random_instances(self, seed):
        instance = random_instance(5, 3, seed=seed)
        allocation = CooperativeOEF().allocate(instance)
        assert check_sharing_incentive(allocation, tol=1e-5).satisfied

    def test_never_exceeds_unconstrained_bound(self, zoo_instance_4):
        allocation = CooperativeOEF().allocate(zoo_instance_4)
        assert allocation.total_efficiency() <= optimal_efficiency_upper_bound(
            zoo_instance_4
        ) * (1 + 1e-9)

    def test_beats_or_matches_equal_split(self, zoo_instance_4):
        allocation = CooperativeOEF().allocate(zoo_instance_4)
        equal_total = float(zoo_instance_4.equal_split_throughput().sum())
        assert allocation.total_efficiency() >= equal_total - 1e-6

    def test_single_user_gets_everything(self):
        instance = ProblemInstance(SpeedupMatrix([[1, 3]]), [2.0, 4.0])
        allocation = CooperativeOEF().allocate(instance)
        np.testing.assert_allclose(allocation.matrix, [[2.0, 4.0]])

    def test_identical_users_are_envy_free(self):
        instance = ProblemInstance(
            SpeedupMatrix([[1, 2], [1, 2], [1, 2]]), [3.0, 3.0]
        )
        allocation = CooperativeOEF().allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-6).satisfied


class TestAdjacency:
    """Theorem 5.2: OEF only mixes adjacent GPU types per user.

    The theorem's trade argument relies on users being totally ordered by
    "steepness" (its proof writes ``w_l^j = a_l * b_l^...``), so adjacency
    is tested on the log-linear speedup family where that order holds;
    arbitrary monotone matrices with crossing relative preferences can
    legitimately produce holes.
    """

    @staticmethod
    def _instance(seed):
        from repro.core import ProblemInstance
        from repro.workloads.generator import log_linear_speedup_matrix

        rng = np.random.default_rng(seed)
        matrix = log_linear_speedup_matrix(4, 4, rng)
        return ProblemInstance(matrix, np.full(4, 4.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_cooperative_allocations_are_adjacent(self, seed):
        instance = self._instance(seed)
        allocation = CooperativeOEF().allocate(instance)
        for user in range(instance.num_users):
            used = allocation.gpu_types_used(user, tol=1e-5)
            if used:
                assert used == list(range(min(used), max(used) + 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_noncooperative_allocations_are_adjacent(self, seed):
        from repro.core import NonCooperativeOEF

        instance = self._instance(seed)
        allocation = NonCooperativeOEF().allocate(instance)
        for user in range(instance.num_users):
            used = allocation.gpu_types_used(user, tol=1e-5)
            if used:
                assert used == list(range(min(used), max(used) + 1))


class TestCuttingPlane:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_formulation(self, seed):
        instance = random_instance(8, 3, seed=seed, devices_per_type=5.0)
        full = CooperativeOEF(method="full").allocate(instance)
        cuts = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert cuts.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-5
        )

    def test_cutting_plane_result_is_envy_free(self):
        instance = random_instance(30, 5, seed=11, devices_per_type=10.0)
        allocation = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    def test_auto_switches_by_size(self):
        small = random_instance(4, 2, seed=0)
        allocator = CooperativeOEF()
        assert allocator.method == "auto"
        # behavioural check only: result valid either way
        allocation = allocator.allocate(small)
        assert check_envy_freeness(allocation, tol=1e-5).satisfied

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            CooperativeOEF(method="magic")


class TestEfficiencyMax:
    def test_matches_upper_bound(self, paper_instance):
        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        assert allocation.total_efficiency() == pytest.approx(
            optimal_efficiency_upper_bound(paper_instance)
        )

    def test_gives_each_type_to_best_user(self, paper_instance):
        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        # GPU2 must fully go to user 3 (speedup 4)
        assert allocation.matrix[2, 1] == pytest.approx(1.0)

    def test_violates_sharing_incentive(self, paper_instance):
        from repro.core import check_sharing_incentive

        allocation = EfficiencyMaxAllocator().allocate(paper_instance)
        assert not check_sharing_incentive(allocation).satisfied


class TestCuttingPlanePaths:
    def test_incremental_matches_linprog_fallback(self, monkeypatch):
        # the persistent-session hot path and the per-round linprog
        # fallback must land on the same optimum
        import repro.core.cooperative as coop_mod

        instance = random_instance(80, 6, seed=11, devices_per_type=40.0)
        incremental = CooperativeOEF(method="cutting-plane").allocate(instance)
        monkeypatch.setattr(coop_mod, "incremental_available", lambda: False)
        legacy = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert incremental.total_efficiency() == pytest.approx(
            legacy.total_efficiency(), rel=1e-7
        )
        assert check_envy_freeness(incremental, tol=1e-5).satisfied
        assert check_envy_freeness(legacy, tol=1e-5).satisfied

    @pytest.mark.skipif(
        not incremental_available(), reason="incremental HiGHS binding missing"
    )
    def test_incremental_solver_error_falls_back_to_linprog(self, monkeypatch):
        # a SolverError from the persistent session must land in the
        # per-round loop, not escape and not skip to the full program
        instance = random_instance(80, 6, seed=11, devices_per_type=40.0)
        expected = CooperativeOEF(method="cutting-plane").allocate(instance)

        def broken_session(self):
            raise SolverError("injected incremental failure")

        monkeypatch.setattr(IncrementalLP, "solve", broken_session)
        reached = _spy(monkeypatch, CooperativeOEF, "_cutting_plane_linprog")
        full = _spy(monkeypatch, CooperativeOEF, "_solve_full")
        fallback = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert reached and not full
        assert fallback.total_efficiency() == pytest.approx(
            expected.total_efficiency(), rel=1e-7
        )

    def test_cut_round_cap_falls_through_to_full_program(self, monkeypatch):
        # one round cannot settle this instance; the capped loop must hand
        # over to the O(n^2) program instead of returning a partial point
        instance = random_instance(80, 6, seed=11, devices_per_type=40.0)
        expected = CooperativeOEF(method="cutting-plane").allocate(instance)
        monkeypatch.setattr(CooperativeOEF, "MAX_CUT_ROUNDS", 1)
        full = _spy(monkeypatch, CooperativeOEF, "_solve_full")
        capped = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert full
        assert capped.total_efficiency() == pytest.approx(
            expected.total_efficiency(), rel=1e-7
        )
        assert check_envy_freeness(capped, tol=1e-5).satisfied

    def test_cutting_plane_matches_full_form(self):
        # both regimes solve Eq. 10 exactly; objectives must agree
        instance = random_instance(24, 4, seed=3, devices_per_type=12.0)
        full = CooperativeOEF(method="full").allocate(instance)
        cuts = CooperativeOEF(method="cutting-plane").allocate(instance)
        assert cuts.total_efficiency() == pytest.approx(
            full.total_efficiency(), rel=1e-7
        )
