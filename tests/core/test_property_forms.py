"""Differential tests: the PE/SI property LPs as direct sparse forms.

``check_pareto_efficiency`` and the ``sharing_incentive`` optimum of
``constrained_optimal_efficiency`` assemble their standard forms from
index arrays.  The ``LinExpr`` builds they replaced are kept here as
oracles: both must pose the same LP, so the verdict and the optimum
agree on every scheduler, domain and backend.
"""

import numpy as np
import pytest

from repro.core import Allocation
from repro.core.properties import (
    check_pareto_efficiency,
    constrained_optimal_efficiency,
)
from repro.exceptions import InfeasibleError
from repro.registry import create_scheduler
from repro.solver import LinearProgram, dot
from repro.workloads.generator import random_instance

SCHEDULERS = ("oef-coop", "oef-noncoop", "drf", "gandiva-fair", "efficiency-max")
DOMAINS = (None, "envy_free", "equal_throughput")
DOMAIN_IDS = ["none", "envy_free", "equal_throughput"]
BACKENDS = ("auto", "simplex")
INSTANCES_PER_CASE = 3
#: Largest tenant count drawn per backend.  The Bland-rule simplex hits
#: its 100k-iteration cap on the envy-free PE LP from about 20 x 5 on,
#: with the old build and the new one alike (~220 s each), so simplex
#: cases stay small; HiGHS covers the full 2-40 range.
MAX_USERS = {"auto": 40, "simplex": 12}


def _oracle_pareto(allocation, tol=1e-5, backend="auto", within=None):
    """The historical ``LinExpr`` PE build: (satisfied, achievable_total)."""
    instance = allocation.instance
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    current = allocation.user_throughput()

    lp = LinearProgram("pareto-test")
    shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
    flat = list(shares.ravel())
    for type_index in range(num_types):
        coeff = np.zeros((1, num_users * num_types))
        coeff[0, type_index::num_types] = 1.0
        lp.add_matrix_constraints(
            coeff, flat, "<=", float(instance.capacities[type_index])
        )
    slack = tol * max(1.0, float(np.abs(current).max()))
    for user in range(num_users):
        lp.add_constraint(
            dot(speedups[user], shares[user]) >= float(current[user]) - slack
        )
    if within == "envy_free":
        for user in range(num_users):
            for other in range(num_users):
                if other != user:
                    lp.add_constraint(
                        dot(speedups[user], shares[user])
                        - dot(speedups[user], shares[other])
                        >= 0.0
                    )
    elif within == "equal_throughput":
        for user in range(1, num_users):
            lp.add_constraint(
                dot(speedups[user], shares[user]) - dot(speedups[0], shares[0])
                == 0.0
            )
    lp.set_objective(dot(speedups.ravel(), flat), sense="max")
    achievable = lp.solve(backend=backend).objective
    current_total = float(current.sum())
    satisfied = achievable <= current_total + tol * max(1.0, abs(current_total))
    return satisfied, achievable


def _oracle_si_optimum(instance, backend="auto"):
    """The historical ``LinExpr`` build of the SI-constrained optimum."""
    speedups = instance.speedups.values
    num_users, num_types = speedups.shape
    fair = instance.equal_split_throughput()
    lp = LinearProgram("si-optimal")
    shares = lp.new_variable_array("x", (num_users, num_types), lower=0.0)
    flat = list(shares.ravel())
    for type_index in range(num_types):
        coeff = np.zeros((1, num_users * num_types))
        coeff[0, type_index::num_types] = 1.0
        lp.add_matrix_constraints(
            coeff, flat, "<=", float(instance.capacities[type_index])
        )
    for user in range(num_users):
        lp.add_constraint(dot(speedups[user], shares[user]) >= float(fair[user]))
    lp.set_objective(dot(speedups.ravel(), flat), sense="max")
    return lp.solve(backend=backend).objective


def _instances(case_seed, max_users=40):
    """Seeded monotone instances of 2-``max_users`` users x 1-5 GPU types."""
    rng = np.random.default_rng(case_seed)
    for _ in range(INSTANCES_PER_CASE):
        yield random_instance(
            int(rng.integers(2, max_users + 1)),
            int(rng.integers(1, 6)),
            seed=int(rng.integers(2**31)),
            devices_per_type=float(rng.integers(1, 17)),
        )


def _outcome(fn, *args, **kwargs):
    """A result, or the exception type when the LP has no feasible point."""
    try:
        return fn(*args, **kwargs)
    except InfeasibleError as exc:
        return type(exc)


@pytest.mark.parametrize("used", [1.0, 0.5], ids=["full", "half"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("within", DOMAINS, ids=DOMAIN_IDS)
def test_pareto_form_matches_linexpr_oracle(within, backend, scheduler, used):
    case_seed = (
        DOMAINS.index(within) * 100
        + BACKENDS.index(backend) * 10
        + SCHEDULERS.index(scheduler)
        + (0 if used == 1.0 else 1000)
    )
    for instance in _instances(case_seed, MAX_USERS[backend]):
        allocation = create_scheduler(scheduler).allocate(instance)
        allocation = Allocation(allocation.matrix * used, instance, scheduler)
        report = _outcome(
            check_pareto_efficiency, allocation, backend=backend, within=within
        )
        expected = _outcome(
            _oracle_pareto, allocation, backend=backend, within=within
        )
        if expected is InfeasibleError:
            assert report is InfeasibleError
            continue
        satisfied, achievable = expected
        assert report.satisfied == satisfied
        assert report.achievable_total == pytest.approx(achievable, rel=1e-7)
        assert report.current_total == pytest.approx(
            float(allocation.user_throughput().sum()), rel=1e-12
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("within", DOMAINS, ids=DOMAIN_IDS)
def test_single_tenant_pareto_form_matches_oracle(within, backend):
    # one tenant: the domain blocks have no rows at all
    instance = random_instance(1, 3, seed=2)
    allocation = Allocation(instance.capacities.reshape(1, -1) * 0.5, instance)
    report = check_pareto_efficiency(allocation, backend=backend, within=within)
    satisfied, achievable = _oracle_pareto(
        allocation, backend=backend, within=within
    )
    assert not report.satisfied and not satisfied
    assert report.achievable_total == pytest.approx(achievable, rel=1e-7)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case_seed", range(4))
def test_si_optimum_form_matches_linexpr_oracle(backend, case_seed):
    for instance in _instances(5000 + case_seed, MAX_USERS[backend]):
        optimum = constrained_optimal_efficiency(
            instance, "sharing_incentive", backend=backend
        )
        assert optimum == pytest.approx(
            _oracle_si_optimum(instance, backend=backend), rel=1e-7
        )


def test_property_lps_never_build_a_linear_program(monkeypatch):
    instance = random_instance(12, 4, seed=7)
    allocation = create_scheduler("oef-coop").allocate(instance)

    def refuse(self, *args, **kwargs):
        raise AssertionError("property LPs must not go through LinearProgram")

    monkeypatch.setattr(LinearProgram, "__init__", refuse)
    for within in DOMAINS:
        check_pareto_efficiency(
            Allocation(allocation.matrix * 0.5, instance, "oef-coop"),
            within=within,
        )
    constrained_optimal_efficiency(instance, "sharing_incentive")


def test_unknown_pe_domain_raises():
    instance = random_instance(3, 2, seed=0)
    allocation = create_scheduler("oef-coop").allocate(instance)
    with pytest.raises(ValueError, match="unknown PE domain"):
        check_pareto_efficiency(allocation, within="max-min")
