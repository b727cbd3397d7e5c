"""Tests for repro.simulator.sharing — the fair-sharing equilibrium."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator.sharing import FlowSpec, pool_utilisation, solve_max_min


class TestFlowSpec:
    def test_empty_flow_rejected(self):
        with pytest.raises(SimulationError):
            FlowSpec("f", (), None)

    def test_zero_weight_rejected(self):
        with pytest.raises(SimulationError):
            FlowSpec("f", (("p", 0.0),))

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(SimulationError):
            FlowSpec("f", (("p", 1.0),), cap=0.0)


class TestBasicEquilibria:
    def test_single_flow_gets_full_pool(self):
        rates = solve_max_min([FlowSpec("f", (("p", 10.0),))], {"p": 100.0})
        assert rates["f"] == pytest.approx(10.0)

    def test_identical_flows_share_equally(self):
        flows = [FlowSpec(f"f{i}", (("p", 10.0),)) for i in range(4)]
        rates = solve_max_min(flows, {"p": 20.0})
        assert all(r == pytest.approx(0.5) for r in rates.values())

    def test_cap_binds_before_pool(self):
        flows = [
            FlowSpec("capped", (("p", 1.0),), cap=2.0),
            FlowSpec("hungry", (("p", 1.0),)),
        ]
        rates = solve_max_min(flows, {"p": 10.0})
        assert rates["capped"] == pytest.approx(2.0)
        assert rates["hungry"] == pytest.approx(8.0)

    def test_same_pool_ops_serialise(self):
        # A read and a write on one disk add up; they do not overlap.
        rates = solve_max_min(
            [FlowSpec("f", (("disk", 10.0), ("disk", 10.0)))], {"disk": 100.0}
        )
        assert rates["f"] == pytest.approx(5.0)

    def test_empty_flow_list(self):
        assert solve_max_min([], {"p": 1.0}) == {}


class TestRedistribution:
    def test_cpu_bound_flow_returns_disk_slack(self):
        """The physics the plain-progressive solver got wrong: a CPU-capped
        flow releases its unused disk share to the disk-hungry flow."""
        flows = [
            # Needs 1 unit disk + 10 core-s per progress; capped at 1 core.
            FlowSpec("cpubound", (("disk", 1.0), ("cpu", 10.0)), cap=0.1),
            FlowSpec("diskbound", (("disk", 10.0),)),
        ]
        rates = solve_max_min(flows, {"disk": 10.0, "cpu": 6.0})
        assert rates["cpubound"] == pytest.approx(0.1)
        # Disk slack: 10 - 0.1 = 9.9 goes entirely to the disk-bound flow.
        assert rates["diskbound"] == pytest.approx(0.99)

    def test_fig4_example(self):
        """The paper's Fig. 4 walk-through, exactly."""
        caps = {"disk": 500.0, "net": 100.0, "cpu": 6.0}
        def flow(i):
            return FlowSpec(
                f"f{i}", (("disk", 10000.0), ("net", 10000.0), ("cpu", 200.0)),
                cap=1 / 200.0,
            )
        alone = solve_max_min([flow(0)], caps)
        assert 1 / alone["f0"] == pytest.approx(200.0)
        five = [flow(i) for i in range(5)]
        rates = solve_max_min(five, caps)
        assert 1 / rates["f0"] == pytest.approx(500.0)
        util = pool_utilisation(five, rates, caps)
        assert util["net"] == pytest.approx(1.0)
        assert util["disk"] == pytest.approx(0.2)

    def test_heterogeneous_two_pool_equilibrium(self):
        """Hand-solved WC+TS node: both pools saturate, rates match the
        per-device processor-sharing fixed point."""
        flows = []
        for i in range(8):
            flows.append(
                FlowSpec(f"wc{i}", (("disk", 138.5), ("cpu", 8.62)), cap=1 / 8.62)
            )
            flows.append(
                FlowSpec(f"ts{i}", (("disk", 254.8), ("cpu", 2.12)), cap=1 / 2.12)
            )
        caps = {"disk": 180.0, "cpu": 6.0}
        rates = solve_max_min(flows, caps)
        util = pool_utilisation(flows, rates, caps)
        assert util["disk"] == pytest.approx(1.0, abs=1e-3)
        assert util["cpu"] == pytest.approx(1.0, abs=1e-3)
        # The CPU-heavy job is CPU-bound, the disk-heavy one disk-bound, and
        # the disk-bound flow runs faster than a naive equal split (11.25
        # MB/s -> 22.6 s) thanks to redistribution.
        assert 1 / rates["ts0"] < 22.0


class TestValidation:
    def test_duplicate_ids_rejected(self):
        f = FlowSpec("f", (("p", 1.0),))
        with pytest.raises(SimulationError):
            solve_max_min([f, f], {"p": 1.0})

    def test_unknown_pool_rejected(self):
        with pytest.raises(SimulationError):
            solve_max_min([FlowSpec("f", (("ghost", 1.0),))], {"p": 1.0})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SimulationError):
            solve_max_min([FlowSpec("f", (("p", 1.0),))], {"p": 0.0})


@st.composite
def flow_systems(draw):
    n_pools = draw(st.integers(1, 4))
    pools = {f"p{i}": draw(st.floats(1.0, 1000.0)) for i in range(n_pools)}
    n_flows = draw(st.integers(1, 12))
    flows = []
    for i in range(n_flows):
        k = draw(st.integers(1, n_pools))
        chosen = draw(
            st.lists(
                st.sampled_from(sorted(pools)), min_size=k, max_size=k, unique=True
            )
        )
        demands = tuple(
            (p, draw(st.floats(0.01, 100.0))) for p in chosen
        )
        cap = draw(st.one_of(st.none(), st.floats(0.01, 10.0)))
        flows.append(FlowSpec(f"f{i}", demands, cap))
    return flows, pools


class TestProperties:
    @given(flow_systems())
    @settings(max_examples=80, deadline=None)
    def test_feasibility(self, system):
        """No pool is over-committed and every rate is positive."""
        flows, pools = system
        rates = solve_max_min(flows, pools)
        util = pool_utilisation(flows, rates, pools)
        for pool, u in util.items():
            assert u <= 1.0 + 1e-6
        for flow in flows:
            assert rates[flow.flow_id] > 0
            if flow.cap is not None:
                assert rates[flow.flow_id] <= flow.cap * (1 + 1e-6)

    @given(flow_systems())
    @settings(max_examples=80, deadline=None)
    def test_every_flow_is_bottlenecked(self, system):
        """Work conservation: each flow is either at its cap or uses at
        least one pool that is (nearly) saturated."""
        flows, pools = system
        rates = solve_max_min(flows, pools)
        util = pool_utilisation(flows, rates, pools)
        for flow in flows:
            at_cap = flow.cap is not None and rates[flow.flow_id] >= flow.cap * (
                1 - 1e-5
            )
            on_saturated = any(
                util[p] >= 1.0 - 1e-5 for p, _ in flow.demands
            )
            assert at_cap or on_saturated, (
                f"{flow.flow_id} is neither capped nor on a saturated pool"
            )

    @given(flow_systems())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, system):
        flows, pools = system
        a = solve_max_min(flows, pools)
        b = solve_max_min(list(flows), dict(pools))
        assert a == b

    @given(flow_systems())
    @settings(max_examples=80, deadline=None)
    def test_collapsed_matches_flowwise(self, system):
        """The equivalence-class solver and the per-flow reference converge
        to the same fixed point (within both iterations' tolerances)."""
        flows, pools = system
        collapsed = solve_max_min(flows, pools, collapse=True)
        flowwise = solve_max_min(flows, pools, collapse=False)
        for flow in flows:
            a, b = collapsed[flow.flow_id], flowwise[flow.flow_id]
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9), flow.flow_id

    @given(flow_systems())
    @settings(max_examples=80, deadline=None)
    def test_flowwise_feasible_too(self, system):
        """The reference path also never over-commits a pool (it shares the
        iterated feasibility repair with the collapsed path)."""
        flows, pools = system
        rates = solve_max_min(flows, pools, collapse=False)
        util = pool_utilisation(flows, rates, pools)
        for pool, u in util.items():
            assert u <= 1.0 + 1e-6


class TestEquivalenceClasses:
    def test_identical_flows_get_identical_rates(self):
        """Collapsed symmetric flows share one float, not merely close ones."""
        flows = [FlowSpec(f"f{i}", (("cpu", 2.0), ("disk", 5.0))) for i in range(6)]
        rates = solve_max_min(flows, {"cpu": 4.0, "disk": 100.0})
        assert len(set(rates.values())) == 1

    def test_rates_independent_of_flow_order(self):
        """Class discovery is canonicalised, so presenting the same multiset
        of flows in any order yields bit-identical rates — symmetric cluster
        nodes must get float-identical completion deadlines."""
        flows = [FlowSpec(f"a{i}", (("cpu", 1.0), ("disk", 8.0))) for i in range(4)]
        flows += [FlowSpec(f"b{i}", (("cpu", 3.0),), cap=0.5) for i in range(3)]
        pools = {"cpu": 4.0, "disk": 50.0}
        forward = solve_max_min(flows, pools)
        backward = solve_max_min(list(reversed(flows)), pools)
        assert forward == backward

    def test_multiplicity_enters_water_level(self):
        """Six identical one-pool flows split the pool exactly six ways."""
        flows = [FlowSpec(f"f{i}", (("disk", 2.0),)) for i in range(6)]
        rates = solve_max_min(flows, {"disk": 60.0})
        for rate in rates.values():
            assert rate == pytest.approx(5.0)

    def test_mixed_classes_redistribute(self):
        """A capped class's slack flows to the uncapped class (the Fig. 4
        redistribution), identically in both solver paths."""
        flows = [FlowSpec(f"c{i}", (("disk", 1.0),), cap=1.0) for i in range(3)]
        flows += [FlowSpec(f"h{i}", (("disk", 1.0),)) for i in range(2)]
        pools = {"disk": 13.0}
        rates = solve_max_min(flows, pools)
        reference = solve_max_min(flows, pools, collapse=False)
        for i in range(3):
            assert rates[f"c{i}"] == pytest.approx(1.0)
        for i in range(2):
            # 13 - 3*1 = 10 shared between the two hungry flows.
            assert rates[f"h{i}"] == pytest.approx(5.0)
            assert rates[f"h{i}"] == pytest.approx(reference[f"h{i}"], rel=1e-8)


class TestFeasibilityRepair:
    """The explicit repair satellite: deliberately infeasible starting rates
    must be scaled back until *no* pool exceeds its capacity."""

    def test_repair_converges_on_shared_flows(self):
        from repro.simulator.sharing import _repair_feasible

        # Flow 0 uses both pools; repairing p0 alone leaves p1 oversubscribed
        # and vice versa — a single pass in the wrong order is not enough.
        weights = [{"p0": 1.0, "p1": 1.0}, {"p0": 1.0}, {"p1": 1.0}]
        rates = [10.0, 10.0, 10.0]
        pool_users = {"p0": [0, 1], "p1": [0, 2]}
        caps = {"p0": 10.0, "p1": 5.0}
        _repair_feasible(rates, weights, [1, 1, 1], pool_users, caps)
        for pool, users in pool_users.items():
            used = sum(weights[i][pool] * rates[i] for i in users)
            assert used <= caps[pool] * (1 + 1e-9)

    @given(
        st.lists(st.floats(0.1, 50.0), min_size=2, max_size=10),
        st.integers(0, 10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_repair_never_leaves_a_pool_oversubscribed(self, rates, seed):
        import random

        from repro.simulator.sharing import _repair_feasible

        rng = random.Random(seed)
        n_pools = rng.randint(1, 4)
        caps = {f"p{i}": rng.uniform(1.0, 40.0) for i in range(n_pools)}
        weights = []
        for _ in rates:
            used = rng.sample(sorted(caps), rng.randint(1, n_pools))
            weights.append({p: rng.uniform(0.1, 3.0) for p in used})
        mult = [rng.randint(1, 4) for _ in rates]
        pool_users = {
            p: [i for i, w in enumerate(weights) if p in w] for p in caps
        }
        pool_users = {p: users for p, users in pool_users.items() if users}
        rates = list(rates)
        _repair_feasible(rates, weights, mult, pool_users, caps)
        for pool, users in pool_users.items():
            used = sum(weights[i][pool] * rates[i] * mult[i] for i in users)
            assert used <= caps[pool] * (1 + 1e-9)
        assert all(r >= 0 for r in rates)


# -- the class solver, called directly (columnar engine's path) ------------------

import math
import random

from repro.simulator import sharing
from repro.simulator.sharing import class_sort_key, solve_max_min_classes

_POOLS = ("cpu", "disk", "net")


def _random_flows(rng, n):
    flows = []
    for i in range(n):
        # Draw from a small palette so identical flows (equivalence classes
        # with multiplicity > 1) actually occur.
        palette = rng.randint(0, 3)
        demands = tuple(
            (pool, round(0.5 + palette * 0.25 + k * 0.1, 3))
            for k, pool in enumerate(_POOLS[: 1 + palette % 3])
        )
        cap = None if palette % 2 else round(0.2 + palette * 0.3, 3)
        flows.append(FlowSpec(f"f{i}", demands, cap))
    return flows


def _group_classes(flows):
    """Replicates ``SharingRegistry.intern``'s grouping in ``class_sort_key``
    order (what ``solve_max_min(collapse=True)`` does before its solve)."""
    weights = []
    for flow in flows:
        agg = {}
        for pool_id, w in flow.demands:
            agg[pool_id] = agg.get(pool_id, 0.0) + w
        weights.append(agg)
    member_map = {}
    for idx, flow in enumerate(flows):
        key = (flow.cap, tuple(sorted(weights[idx].items())))
        member_map.setdefault(key, []).append(idx)
    keys = sorted(member_map, key=lambda k: class_sort_key(*k))
    cls_weights = [weights[member_map[k][0]] for k in keys]
    cls_caps = [k[0] for k in keys]
    mult = [len(member_map[k]) for k in keys]
    return keys, member_map, cls_weights, cls_caps, mult


class TestClassSolver:
    """Called on pre-grouped classes, the class solver must give every
    member of a class the *bit-identical* rate ``solve_max_min`` gives it —
    the columnar engine relies on this to stay float-exact with the fast
    engine."""

    def test_class_solver_matches_collapsed(self):
        rng = random.Random(21)
        capacities = {"cpu": 8.0, "disk": 120.0, "net": 90.0}
        for _ in range(100):
            flows = _random_flows(rng, rng.randint(1, 12))
            by_flow = solve_max_min(flows, capacities)
            keys, member_map, cls_w, cls_c, mult = _group_classes(flows)
            by_class = solve_max_min_classes(cls_w, cls_c, mult, capacities)
            for ci, key in enumerate(keys):
                for idx in member_map[key]:
                    # Bit-identical, by construction (same ops, same order).
                    assert by_flow[flows[idx].flow_id] == by_class[ci]

    def test_class_sort_key_orders_none_caps_last(self):
        capped = class_sort_key(0.5, (("cpu", 1.0),))
        uncapped = class_sort_key(None, (("cpu", 1.0),))
        assert capped < uncapped

    def test_empty_class_list(self):
        out = solve_max_min_classes([], [], [], {"cpu": 4.0})
        assert len(out) == 0


class TestNonConvergence:
    """Exhausting every Gauss-Seidel sweep must raise, not silently return
    the last iterate (regression: both solvers used to fall through)."""

    @staticmethod
    def _contended_flows():
        # A ring of pairwise-shared pools: each flow's bound depends on its
        # neighbours', so the water level has to propagate around the ring
        # over several sweeps — a sabotaged iteration budget cannot reach
        # any tolerance, while the healthy budget settles fine.
        return [
            FlowSpec("f0", (("p0", 2.049), ("p1", 2.99)), cap=None),
            FlowSpec("f1", (("p1", 2.767), ("p2", 2.421)), cap=None),
            FlowSpec("f2", (("p2", 0.431), ("p3", 1.916)), cap=None),
            FlowSpec("f3", (("p3", 1.562), ("p4", 1.964)), cap=None),
            FlowSpec("f4", (("p4", 2.566), ("p0", 0.88)), cap=None),
        ]

    _CAPS = {"p0": 9.06, "p1": 6.31, "p2": 9.55, "p3": 6.22, "p4": 5.06}

    @pytest.mark.parametrize("collapse", [True, False])
    def test_exhausted_sweeps_raise_with_diagnostics(self, monkeypatch, collapse):
        monkeypatch.setattr(sharing, "_MAX_ITER", 1)
        with pytest.raises(SimulationError) as exc:
            solve_max_min(self._contended_flows(), self._CAPS, collapse=collapse)
        message = str(exc.value)
        assert "failed to converge" in message
        assert "residual" in message
        assert "classes=5" in message
        assert "damping=0.5" in message

    def test_array_solver_raises_too(self, monkeypatch):
        monkeypatch.setattr(sharing, "_MAX_ITER", 1)
        keys, _, cls_w, cls_c, mult = _group_classes(self._contended_flows())
        with pytest.raises(SimulationError, match="failed to converge"):
            solve_max_min_classes(cls_w, cls_c, mult, self._CAPS)

    @pytest.mark.parametrize("collapse", [True, False])
    def test_healthy_budget_converges(self, collapse):
        rates = solve_max_min(
            self._contended_flows(), self._CAPS, collapse=collapse
        )
        assert all(r > 0 for r in rates.values())
