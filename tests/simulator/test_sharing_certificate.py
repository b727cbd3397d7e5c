"""A max-min certificate checked on every class solve of a simulation.

The engines are pinned against each other, but they share the class solver,
so a bug in it would move all of them together.  This suite needs no oracle:
it wraps ``solve_max_min_classes`` (the one solve behind
:meth:`SharingRegistry.rates`) and checks each answer against the two
conditions that define the per-device max-min allocation:

* **feasibility** — on every pool, ``sum(rate * weight * count)`` stays
  within ``capacity * (1 + 1e-9)``;
* **max-min** — every class is at its cap, or uses a saturated pool on
  which its consumption ``weight * rate`` equals the largest per-flow
  consumption of that pool (relative 1e-9): it is bottlenecked there and
  no flow on that pool gets more.

It runs over the Table I catalogue crossed with skew and failures on and
off, on the ``fast`` and ``columnar`` loops.
"""

from typing import Dict, List, Mapping, Optional, Sequence

import pytest

from repro.cluster import Cluster
from repro.cluster.node import PAPER_NODE
from repro.mapreduce.task import SkewModel
from repro.simulator import FailureModel, SimulationConfig, simulate
from repro.simulator import sharing
from repro.workloads import entry

_REL = 1e-9

CATALOG = ["WC", "TSC", "TS", "TS3R", "WC+TS", "WC+TS3R", "WC+KMeans", "TS+PageRank"]
_SKEW = {"off": None, "on": SkewModel(sigma=0.4, seed=3)}
_FAIL = {"off": None, "on": FailureModel(probability=0.04, seed=11)}


def certificate_violations(
    cls_weights: Sequence[Mapping[str, float]],
    cls_caps: Sequence[Optional[float]],
    multiplicity: Sequence[int],
    capacities: Mapping[str, float],
    rates: Sequence[float],
) -> List[str]:
    """Every way ``rates`` breaks feasibility or the max-min condition."""
    used: Dict[str, float] = {pool: 0.0 for pool in capacities}
    top: Dict[str, float] = {pool: 0.0 for pool in capacities}
    for weights, rate, count in zip(cls_weights, rates, multiplicity):
        for pool, weight in weights.items():
            used[pool] += rate * weight * count
            top[pool] = max(top[pool], rate * weight)
    problems = [
        f"pool {pool} over capacity: {used[pool]!r} > {capacities[pool]!r}"
        for pool in used
        if used[pool] > capacities[pool] * (1.0 + _REL)
    ]
    saturated = {
        pool for pool in used if used[pool] >= capacities[pool] * (1.0 - _REL)
    }
    for ci, (weights, cap, rate) in enumerate(zip(cls_weights, cls_caps, rates)):
        if cap is not None and rate >= cap * (1.0 - _REL):
            continue
        if any(
            rate * weight >= top[pool] * (1.0 - _REL)
            for pool, weight in weights.items()
            if pool in saturated
        ):
            continue
        problems.append(
            f"class {ci} (rate {rate!r}, cap {cap!r}) has no bottleneck pool"
        )
    return problems


@pytest.fixture
def certified(monkeypatch):
    """Wrap the class solve: every call is certified, and counted."""
    solve = sharing.solve_max_min_classes
    calls = []

    def checked(cls_weights, cls_caps, multiplicity, capacities):
        rates = solve(cls_weights, cls_caps, multiplicity, capacities)
        problems = certificate_violations(
            cls_weights, cls_caps, multiplicity, capacities, rates
        )
        assert not problems, problems
        calls.append(len(rates))
        return rates

    monkeypatch.setattr(sharing, "solve_max_min_classes", checked)
    return calls


def test_certificate_accepts_the_textbook_split():
    # One disk of 100 MB/s: a capped flow takes 20, two hungry ones 40 each.
    weights = [{"disk": 1.0}, {"disk": 1.0}]
    assert not certificate_violations(
        weights, [20.0, None], [1, 2], {"disk": 100.0}, [20.0, 40.0]
    )


def test_certificate_rejects_an_oversubscribed_pool():
    problems = certificate_violations(
        [{"disk": 1.0}], [None], [2], {"disk": 100.0}, [50.0 * (1 + 1e-6)]
    )
    assert any("over capacity" in p for p in problems)


def test_certificate_rejects_an_unsaturated_allocation():
    problems = certificate_violations(
        [{"disk": 1.0}, {"disk": 1.0}], [None, None], [1, 1], {"disk": 100.0},
        [30.0, 30.0],
    )
    assert len(problems) == 2 and all("no bottleneck" in p for p in problems)


def test_certificate_rejects_a_starved_class_on_a_full_pool():
    # The pool is full, but class 0 gets less than class 1 there and has no
    # other pool: it could take from class 1.
    problems = certificate_violations(
        [{"disk": 1.0}, {"disk": 1.0}], [None, None], [1, 1], {"disk": 100.0},
        [40.0, 60.0],
    )
    assert problems == ["class 0 (rate 40.0, cap None) has no bottleneck pool"]


@pytest.mark.parametrize("engine", ["fast", "columnar"])
@pytest.mark.parametrize("failures", sorted(_FAIL))
@pytest.mark.parametrize("skew", sorted(_SKEW))
@pytest.mark.parametrize("name", CATALOG)
def test_every_solve_is_max_min_fair(name, skew, failures, engine, certified):
    kwargs = {"engine": engine}
    if _SKEW[skew] is not None:
        kwargs["skew"] = _SKEW[skew]
    if _FAIL[failures] is not None:
        kwargs["failures"] = _FAIL[failures]
    result = simulate(
        entry(name).factory(0.1),
        Cluster(node=PAPER_NODE, workers=10),
        SimulationConfig(**kwargs),
    )
    assert result.makespan > 0
    assert certified, "the simulation made no class solve"
