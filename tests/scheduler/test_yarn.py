"""Tests for repro.scheduler.yarn — per-node placement."""

import collections

import numpy as np
import pytest

from repro.cluster import Cluster, NodeSpec, paper_cluster
from repro.cluster.resources import ResourceVector
from repro.errors import SchedulingError
from repro.scheduler import YarnPlacer

CONTAINER = ResourceVector(1.0, 2000.0)


def _pairs(grants):
    """(job, node) pairs of ``assign_queues`` triples."""
    return [(job, node) for job, node, _ in grants]


class TestPlacement:
    def test_spreads_one_job_across_nodes(self):
        placer = YarnPlacer(paper_cluster())
        placements = _pairs(placer.assign_queues({"a": [(CONTAINER, 20)]}))
        counts = collections.Counter(node for _, node in placements)
        assert len(placements) == 20
        assert all(c == 2 for c in counts.values())

    def test_interleaves_concurrent_jobs(self):
        # The critical behaviour: two jobs must share nodes, not segregate
        # onto disjoint halves (that would erase cross-job contention).
        placer = YarnPlacer(paper_cluster())
        placements = _pairs(placer.assign_queues(
            {"a": [(CONTAINER, 40)], "b": [(CONTAINER, 40)]}
        ))
        per_node = collections.defaultdict(set)
        for job, node in placements:
            per_node[node].add(job)
        assert all(jobs == {"a", "b"} for jobs in per_node.values())

    def test_memory_only_admission_oversubscribes_cpu(self):
        # 16 x 2 GB containers fit a 32 GB / 6-core node.
        cluster = Cluster(node=NodeSpec(), workers=1)
        placer = YarnPlacer(cluster)
        placements = _pairs(placer.assign_queues({"a": [(CONTAINER, 100)]}))
        assert len(placements) == 16

    def test_enforce_vcores_limits_to_cores(self):
        cluster = Cluster(node=NodeSpec(), workers=1)
        placer = YarnPlacer(cluster, enforce_vcores=True)
        placements = _pairs(placer.assign_queues({"a": [(CONTAINER, 100)]}))
        assert len(placements) == 6

    def test_drf_splits_capacity_evenly(self):
        placer = YarnPlacer(paper_cluster())
        placements = _pairs(placer.assign_queues(
            {"a": [(CONTAINER, 500)], "b": [(CONTAINER, 500)]}
        ))
        counts = collections.Counter(job for job, _ in placements)
        assert counts["a"] == counts["b"] == 80

    def test_fifo_serves_arrival_order(self):
        placer = YarnPlacer(paper_cluster(), policy="fifo")
        placer.register_job("first")
        placer.register_job("second")
        placements = _pairs(placer.assign_queues(
            {"second": [(CONTAINER, 500)], "first": [(CONTAINER, 500)]}
        ))
        counts = collections.Counter(job for job, _ in placements)
        assert counts["first"] == 160
        assert "second" not in counts

    def test_release_returns_capacity(self):
        cluster = Cluster(node=NodeSpec(), workers=1)
        placer = YarnPlacer(cluster)
        [(job, node)] = _pairs(placer.assign_queues({"a": [(CONTAINER, 1)]}))
        placer.release(job, node, CONTAINER)
        assert placer.free_capacity().memory_mb == pytest.approx(32_000.0)

    def test_free_capacity_when_cpu_oversubscribed(self):
        # Memory-only admission commits more vcores than the nodes have:
        # the oversubscribed nodes report zero free vcores, not negative.
        placer = YarnPlacer(paper_cluster())
        container = ResourceVector(0.7, 100.0)
        granted = _pairs(placer.assign_queues({"a": [(container, 120)]}))
        assert len(granted) == 120
        per_node = collections.Counter(node for _, node in granted)
        cores = paper_cluster().node.cores
        assert any(0.7 * count > cores for count in per_node.values())
        free = placer.free_capacity()
        expected_v = 0.0
        for value in placer._free_v.tolist():
            expected_v += max(0.0, value)
        assert free.vcores == expected_v
        assert free.memory_mb == paper_cluster().capacity.memory_mb - 120 * 100.0

    def test_over_release_rejected(self):
        placer = YarnPlacer(paper_cluster())
        placer.register_job("a")
        with pytest.raises(SchedulingError):
            placer.release("a", 0, CONTAINER)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            YarnPlacer(paper_cluster(), policy="lottery")

    def test_nothing_fits_returns_partial(self):
        cluster = Cluster(node=NodeSpec(), workers=1)
        placer = YarnPlacer(cluster)
        placements = _pairs(
            placer.assign_queues({"a": [(ResourceVector(1, 20_000.0), 5)]})
        )
        assert len(placements) == 1  # only one 20 GB container fits

    def test_usage_tracking(self):
        placer = YarnPlacer(paper_cluster())
        placer.assign_queues({"a": [(CONTAINER, 3)]})
        assert placer.usage_of("a").memory_mb == pytest.approx(6000.0)


class TestAssignQueues:
    def test_per_job_queue_order(self):
        # A job's first queue (its maps) drains before its second.
        placer = YarnPlacer(paper_cluster())
        grants = placer.assign_queues(
            {"a": [(CONTAINER, 3), (CONTAINER, 2)]}
        )
        queue_order = [q for _, _, q in grants]
        assert queue_order == [0, 0, 0, 1, 1]

    def test_cross_job_arbitration_interleaves(self):
        # Job B's maps are not starved by job A's reduces: the policy
        # arbitrates between jobs on every grant.
        placer = YarnPlacer(paper_cluster())
        grants = placer.assign_queues(
            {
                "a": [(CONTAINER, 0), (CONTAINER, 500)],
                "b": [(CONTAINER, 500), (CONTAINER, 0)],
            }
        )
        import collections

        counts = collections.Counter(name for name, _, _ in grants)
        assert counts["a"] == counts["b"] == 80

    def test_zero_count_queues_skipped(self):
        placer = YarnPlacer(paper_cluster())
        grants = placer.assign_queues({"a": [(CONTAINER, 0), (CONTAINER, 0)]})
        assert grants == []

    def test_arrays_and_tuples_agree(self):
        requests = {
            "a": [(CONTAINER, 0), (CONTAINER, 30)],
            "b": [(CONTAINER, 30), (CONTAINER, 0)],
        }
        tuples = YarnPlacer(paper_cluster()).assign_queues(requests)
        names, codes, nodes, qidx = YarnPlacer(paper_cluster()).assign_queues_arrays(
            requests
        )
        rebuilt = [
            (names[c], n, q)
            for c, n, q in zip(codes.tolist(), nodes.tolist(), qidx.tolist())
        ]
        assert rebuilt == tuples


class TestBulkUniformGrants:
    """The vectorised bulk path must be bit-identical to the scalar loop.

    `_bulk_uniform_grants` fires whole round-robin layers at once whenever
    its uniform-regime preconditions hold; these tests compare a normal
    placer against a clone whose bulk path is disabled, over randomised
    mixed workloads, and require *exact* equality of every grant and every
    float of post-call state (node capacities, usage, cursors).
    """

    @staticmethod
    def _state(placer):
        return (
            list(zip(placer._free_v.tolist(), placer._free_m.tolist())),
            dict(placer._usage_v),
            dict(placer._usage_m),
            dict(placer._next_node),
        )

    def _run_pair(self, seed, widen=False):
        """One randomised placer/scalar-clone comparison.

        ``widen`` also draws per-job weights and unequal starting usage,
        from a stream of their own so the plain seeds keep their cases.
        """
        import random

        rng = random.Random(seed)
        # Even, odd and prime counts: a layer over an odd cluster leaves a
        # ragged remainder that the scalar loop closes before bulk resumes.
        workers = rng.choice([8, 9, 13, 16, 33, 61, 100, 101])
        node = NodeSpec(
            cores=rng.choice([4, 8]),
            memory_mb=rng.choice([4096.0, 8192.0]),
            disk_mb_s=240.0,
            network_mb_s=112.0,
            disks=2,
        )
        cluster = Cluster(node=node, workers=workers)
        policy = rng.choice(["drf", "fair", "fifo"])
        fast = YarnPlacer(cluster, policy=policy)
        ref = YarnPlacer(cluster, policy=policy)
        ref._bulk_uniform_grants = lambda *a, **k: None  # scalar-only oracle
        njobs = rng.choice([1, 1, 2, 3, 5])
        base = ResourceVector(1.0, rng.choice([512.0, 1024.0, 1536.0]))
        if widen:
            extra = random.Random(f"widen-{seed}")
            for j in range(njobs):
                weight = extra.choice([1.0, 1.0, 0.5, 2.0, 3.0])
                held = extra.choice([0, 0, 1, 3, 40])
                for placer in (fast, ref):
                    placer.register_job(f"job{j}", weight)
                    placer._usage_v[f"job{j}"] = held * base.vcores
                    placer._usage_m[f"job{j}"] = held * base.memory_mb
        placed = []
        for _ in range(rng.randint(1, 4)):
            requests = {}
            for j in range(njobs):
                queues = []
                for _q in range(rng.randint(1, 2)):
                    if rng.random() < 0.8:
                        container = base
                    else:
                        container = ResourceVector(
                            1.0, rng.choice([256.0, 768.0])
                        )
                    # Up to ~8 round-robin layers per job and queue.
                    queues.append((container, rng.randint(0, workers * 8)))
                requests[f"job{j}"] = queues
            got = fast.assign_queues(requests)
            want = ref.assign_queues(requests)
            assert got == want
            assert self._state(fast) == self._state(ref)
            # Release a random subset so later waves start from ragged,
            # then re-converging, node states.
            for name, node_index, queue_index in got:
                placed.append((name, node_index, requests[name][queue_index][0]))
            rng.shuffle(placed)
            keep = rng.randint(0, len(placed))
            for name, node_index, container in placed[keep:]:
                fast.release(name, node_index, container)
                ref.release(name, node_index, container)
            del placed[keep:]

    @pytest.mark.parametrize("seed", range(60))
    def test_bulk_matches_scalar_exactly(self, seed):
        self._run_pair(seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_unequal_usage_matches_scalar_exactly(self, seed):
        self._run_pair(seed, widen=True)

    @pytest.mark.parametrize("policy", ["drf", "fair", "fifo"])
    def test_tied_jobs_whose_add_rounds_away_take_one_job_spans(self, policy):
        # At 2**64 of usage a container add rounds away, so two bit-tied
        # jobs are still tied after a grant and the scalar loop never
        # rotates: the arrival-first job takes every grant.  The bulk path
        # must serve that as one-job spans, not as a round-robin layer.
        fast, ref = self._pair(33, policy=policy)
        for placer in (fast, ref):
            for name in ("a", "b"):
                placer.register_job(name)
                placer._usage_v[name] = 2.0**64
                placer._usage_m[name] = 2.0**64
        fired = self._spy_bulk(fast)
        wave = {"a": [(CONTAINER, 40)], "b": [(CONTAINER, 40)]}
        got = fast.assign_queues(wave)
        want = ref.assign_queues(wave)
        assert got == want
        assert self._state(fast) == self._state(ref)
        assert [name for name, _, _ in got[:40]] == ["a"] * 40
        assert fired and all(jobs == 1 for _, jobs in fired)
        assert sum(n for n, _ in fired) >= 60

    def test_bulk_path_actually_fires(self):
        # Guard against the preconditions silently never matching: a fresh
        # symmetric cluster with one big uniform wave must take the bulk
        # path, not just agree with it.
        placer = YarnPlacer(paper_cluster())
        fired = self._spy_bulk(placer)
        grants = placer.assign_queues({"a": [(CONTAINER, 100)]})
        assert len(grants) == 100
        assert sum(n for n, _ in fired) >= 80  # bulk covers most of the wave

    @staticmethod
    def _pair(workers, free_memory=(), policy="drf"):
        """A placer and its scalar-only clone over ``workers`` paper nodes,
        the first ones' free memory overridden by ``free_memory`` (MB;
        ``None`` keeps a node's capacity)."""
        cluster = paper_cluster(workers)
        fast = YarnPlacer(cluster, policy=policy)
        ref = YarnPlacer(cluster, policy=policy)
        ref._bulk_uniform_grants = lambda *a, **k: None
        for placer in (fast, ref):
            for index, free in enumerate(free_memory):
                if free is not None:
                    placer._free_m[index] = free
        return fast, ref

    @staticmethod
    def _spy_bulk(placer):
        """Record ``(grants, distinct jobs)`` of each bulk span ``placer``
        serves."""
        fired = []
        original = type(placer)._bulk_uniform_grants

        def spy(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            if out is not None:
                fired.append((len(out[0]), len(set(out[0].tolist()))))
            return out

        placer._bulk_uniform_grants = spy.__get__(placer)
        return fired

    @pytest.mark.parametrize("workers, n_jobs", [(33, 2), (101, 2), (100, 3)])
    def test_bulk_fires_on_odd_clusters(self, workers, n_jobs):
        # Tied jobs whose layers do not divide the cluster: each layer
        # leaves a ragged remainder, a few scalar grants close it, and the
        # re-armed bulk path serves the next layer over the new top tier.
        fast, ref = self._pair(workers)
        fired = self._spy_bulk(fast)
        per_job = 8 * workers // n_jobs  # 8 layers over the cluster
        wave = {f"job{j}": [(CONTAINER, per_job)] for j in range(n_jobs)}
        got = fast.assign_queues(wave)
        want = ref.assign_queues(wave)
        assert len(got) == n_jobs * per_job
        assert got == want
        assert self._state(fast) == self._state(ref)
        assert sum(n for n, _ in fired) >= 0.95 * len(got)

    @pytest.mark.parametrize("cursor, bulk", [(1, True), (50, False), (100, True)])
    def test_round_robin_cursor_geometry_on_ragged_tier(self, cursor, bulk):
        # Node 100 sits a container lower, so the top tier is nodes 0..99.
        # Job b's scan reaches its turn's tier node only from a cursor
        # inside the granted run (1) or past the tier, wrapping (100); from
        # mid-tier (50) it would grab node 50, so bulk must stay scalar.
        fast, ref = self._pair(101, [None] * 100 + [30000.0])
        for placer in (fast, ref):
            placer.register_job("a")
            placer.register_job("b")
            placer._next_node["b"] = cursor
        fired = self._spy_bulk(fast)
        wave = {"a": [(CONTAINER, 40)], "b": [(CONTAINER, 40)]}
        got = fast.assign_queues(wave)
        want = ref.assign_queues(wave)
        assert got == want
        assert self._state(fast) == self._state(ref)
        assert bool(fired) == bulk

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_near_tie_outside_tier_keeps_scalar(self, jobs):
        # A node 0.5e-6 MB below the maximum is inside the scalar scan's
        # 1e-6 tie window without being bit-tied, so no bulk span may skip
        # it: the bulk path must refuse and the grants match the scalar.
        fast, ref = self._pair(33, [None] * 7 + [32000.0 - 5e-7])
        wave = {f"job{j}": [(CONTAINER, 20)] for j in range(jobs)}
        got = fast.assign_queues(wave)
        want = ref.assign_queues(wave)
        assert got == want
        assert self._state(fast) == self._state(ref)
        assert 7 in [node for _name, node, _q in got[:8]]

    def test_winner_run_fires_on_unequal_usage(self):
        # Two jobs with unequal usage never bit-tie, so no round-robin
        # layer can fire — but the job with the lower share provably wins
        # a consecutive run, which bulk must serve as one-job spans.
        placer = YarnPlacer(paper_cluster())
        placer.assign_queues({"b": [(CONTAINER, 40)]})  # b gets a head start
        fired = self._spy_bulk(placer)
        grants = placer.assign_queues(
            {"a": [(CONTAINER, 60)], "b": [(CONTAINER, 60)]}
        )
        # DRF serves the idle job exclusively until it catches up to b's
        # 40-container head start...
        assert [name for name, _, _ in grants[:40]] == ["a"] * 40
        # ...and that catch-up run went through bulk as one-job spans.
        assert sum(n for n, jobs in fired if jobs == 1) >= 30

    def test_winner_run_water_fills_ragged_tiers(self):
        # A cluster whose nodes sit at two distinct free-memory levels: a
        # lone job's one-job spans must fill the top tier first (in bulk),
        # then chain onto the merged tier — matching the scalar water-fill
        # exactly.
        cluster = paper_cluster()
        fast = YarnPlacer(cluster)
        ref = YarnPlacer(cluster)
        ref._bulk_uniform_grants = lambda *a, **k: None
        warm = {"warm": [(CONTAINER, 10)]}
        for placer in (fast, ref):
            grants = placer.assign_queues(warm)
            assert len(grants) == 10  # nodes 0..9 now one container lower
        fired = self._spy_bulk(fast)
        wave = {"a": [(CONTAINER, 30)]}
        got = fast.assign_queues(wave)
        want = ref.assign_queues(wave)
        assert got == want
        assert self._state(fast)[0] == self._state(ref)[0]
        assert all(jobs == 1 for _, jobs in fired)
        assert sum(n for n, _ in fired) >= 20  # both tiers served in bulk


class TestFastPick:
    """`_pick_node_fast` must pick exactly the node the `_pick_node` scan
    picks, and leave the job's cursor where the scan leaves it."""

    @staticmethod
    def _compare_picks(placer, container, job="a"):
        """Both picks from every cursor on the ring; return how many found
        a node."""
        found = 0
        for cursor in range(placer._free_m.size):
            placer._next_node[job] = cursor
            want = placer._pick_node(container, job)
            want_cursor = placer._next_node[job]
            placer._next_node[job] = cursor
            got = placer._pick_node_fast(container, job)
            assert got == want, (cursor, container)
            assert placer._next_node[job] == want_cursor
            found += want is not None
        return found

    @pytest.mark.parametrize("enforce_vcores", [False, True], ids=["memory", "strict"])
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_scan_on_near_ties(self, seed, enforce_vcores):
        import random

        rng = random.Random(seed)
        workers = rng.choice([1, 2, 7, 10, 33, 64])
        placer = YarnPlacer(paper_cluster(workers), enforce_vcores=enforce_vcores)
        placer.register_job("a")
        # A few levels, each node bit-tied to one or nudged within (or
        # just beyond) the 1e-6 tie window below or above it.
        levels = [rng.uniform(0.0, 32_000.0) for _ in range(rng.randint(1, 3))]
        for index in range(workers):
            free = rng.choice(levels)
            if rng.random() < 0.5:
                free += rng.choice([-1.5e-6, -9e-7, -5e-7, -1e-9, 4e-7])
            placer._free_m[index] = free
            placer._free_v[index] = rng.choice([0.0, 0.5, 1.0 - 5e-10, 1.0, 6.0])
        top = max(placer._free_m.tolist())
        sizes = [
            1.0,
            rng.uniform(0.0, top),
            top - 5e-7,  # fits the top and some near-ties, not others
            top,  # the admission edge: only nodes at the exact maximum fit
            top + 5e-10,  # fits the maximum through _EPS alone
            top + 1e-8,  # fits nothing
        ]
        found = 0
        for memory in sizes:
            for vcores in (0.0, 1.0):
                found += self._compare_picks(placer, ResourceVector(vcores, memory))
        assert found  # not vacuous: some picks return a node

    def test_admission_edge_skips_window_node_that_does_not_fit(self):
        # Node 1 sits 5e-7 MB below node 3, inside the tie window, but a
        # container of node 3's exact size does not fit it: from cursor 0
        # the scan walks past node 1 to node 3.
        placer = YarnPlacer(paper_cluster(4))
        placer.register_job("a")
        placer._free_m[:] = [100.0, 4000.0 - 5e-7, 100.0, 4000.0]
        placer._next_node["a"] = 0
        assert placer._pick_node_fast(ResourceVector(1.0, 4000.0), "a") == 3
        self._compare_picks(placer, ResourceVector(1.0, 4000.0))

    def test_strict_vcores_placement_matches_reference(self):
        # Strict-vcores admission on a large cluster, mixed container
        # sizes so a vcore-full node often has the most free memory: the
        # production placer (vectorised pick, no bulk spans) must place
        # exactly as the reference engine's scan.
        import random

        cluster = paper_cluster(240)
        fast = YarnPlacer(cluster, enforce_vcores=True)
        ref = YarnPlacer(cluster, enforce_vcores=True, fast=False)
        fired = TestBulkUniformGrants._spy_bulk(fast)
        rng = random.Random(7)
        small = ResourceVector(1.0, 1000.0)
        large = ResourceVector(1.0, 4000.0)
        placed = []
        for _ in range(4):
            wave = {
                "a": [(small, rng.randint(200, 900))],
                "b": [(large, rng.randint(200, 900)), (small, rng.randint(0, 300))],
                "c": [(large, rng.randint(0, 400))],
            }
            got = fast.assign_queues(wave)
            assert got == ref.assign_queues(wave)
            assert TestBulkUniformGrants._state(fast) == TestBulkUniformGrants._state(ref)
            placed += [(name, node, wave[name][q][0]) for name, node, q in got]
            rng.shuffle(placed)
            keep = rng.randint(0, len(placed))
            for name, node, container in placed[keep:]:
                fast.release(name, node, container)
                ref.release(name, node, container)
            del placed[keep:]
        assert not fired  # the bulk path stays memory-only


class TestReleaseBatch:
    """`release_batch` must leave the placer bit-identical to the same
    sequence of `release` calls."""

    # Awkward sizes, so a re-associated per-node sum would show.
    CONTAINER = ResourceVector(0.3, 1536.3)

    def _granted(self, workers, grants):
        """Two placers that granted the same ``grants``-container wave of
        job "a", and that wave's node indices."""
        cluster = paper_cluster(workers)
        pair = (YarnPlacer(cluster), YarnPlacer(cluster))
        for placer in pair:
            _names, _codes, nodes, _qidx = placer.assign_queues_arrays(
                {"a": [(self.CONTAINER, grants)]}
            )
        return pair, nodes

    @staticmethod
    def _release_calls(placer, node_idx, counts, container):
        for node, count in zip(node_idx.tolist(), counts.tolist()):
            for _ in range(count):
                placer.release("a", node, container)

    @pytest.mark.parametrize("workers", [1, 10, 33])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_release_calls(self, seed, workers):
        rng = np.random.default_rng(seed)
        (batch, calls), held = self._granted(workers, 12 * workers)
        while held.size:
            held = rng.permutation(held)
            cut = int(rng.integers(1, held.size + 1))
            node_idx, counts = np.unique(held[:cut], return_counts=True)
            held = held[cut:]
            batch.release_batch("a", node_idx, counts, self.CONTAINER)
            self._release_calls(calls, node_idx, counts, self.CONTAINER)
            assert batch._free_m.tolist() == calls._free_m.tolist()
            assert batch._free_v.tolist() == calls._free_v.tolist()
            assert batch.usage_of("a") == calls.usage_of("a")
            assert batch.free_capacity() == calls.free_capacity()
        assert batch.free_capacity() == paper_cluster(workers).capacity

    def test_counts_above_one_chain_per_node(self):
        (batch, calls), held = self._granted(10, 120)
        node_idx, counts = np.unique(held, return_counts=True)
        assert counts.min() > 1
        batch.release_batch("a", node_idx, counts, self.CONTAINER)
        self._release_calls(calls, node_idx, counts, self.CONTAINER)
        assert batch._free_m.tolist() == calls._free_m.tolist()
        assert batch._free_v.tolist() == calls._free_v.tolist()

    def test_over_release_rejected(self):
        (batch, calls), held = self._granted(10, 20)
        node_idx, counts = np.unique(held, return_counts=True)
        counts[3] += 1  # one container more than node 3 holds
        with pytest.raises(SchedulingError, match="node 3"):
            batch.release_batch("a", node_idx, counts, self.CONTAINER)
        with pytest.raises(SchedulingError, match="node 3"):
            self._release_calls(calls, node_idx, counts, self.CONTAINER)

    def test_free_capacity_sums_left_to_right(self):
        # ndarray.sum() adds pairwise and rounds differently: the capacity
        # must be the fold over the nodes in index order.
        import random

        placer = YarnPlacer(paper_cluster(100))
        rng = random.Random(3)
        free = [rng.uniform(0.0, 32_000.0) for _ in range(100)]
        placer._free_m[:] = free
        fold = 0.0
        for value in free:
            fold += value
        assert float(np.sum(free)) != fold  # the two orders do differ here
        assert placer.free_capacity().memory_mb == fold
