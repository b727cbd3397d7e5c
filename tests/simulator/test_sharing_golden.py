"""Bit-parity guard for the class-level max-min solver.

``data/sharing_golden.json`` pins, as ``float.hex``, the rate of every class
of a fixed set of seeded class systems: 1-30 equivalence classes with
multiplicities up to 10^4, capped and uncapped classes over one to three
pools, and weights scaled by lognormal skew factors (the many near-identical
classes a skewed wave produces).  :func:`solve_max_min_classes`, and
:func:`solve_max_min` over the same systems expanded into flows, must
reproduce every rate to the bit.

Re-pin only after a deliberate change of results::

    PYTHONPATH=src python tests/simulator/test_sharing_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from repro.simulator.sharing import (
    FlowSpec,
    class_sort_key,
    solve_max_min,
    solve_max_min_classes,
)

GOLDEN = Path(__file__).parent / "data" / "sharing_golden.json"
SYSTEMS = 300
#: Systems with at most this many flows are also solved flow by flow.
MAX_EXPANDED_FLOWS = 400
_POOL_CAPACITY = {"cpu": 8.0, "disk": 160.0, "net": 125.0}

ClassSystem = Tuple[List[Dict[str, float]], List[Optional[float]], List[int], Dict[str, float]]


def class_system(seed: int) -> ClassSystem:
    """One seeded class system, in ``class_sort_key`` order like the engines'."""
    rng = random.Random(seed)
    pools = rng.sample(sorted(_POOL_CAPACITY), rng.randint(1, 3))
    capacities = {p: _POOL_CAPACITY[p] * rng.choice((0.5, 1.0, 2.0)) for p in pools}
    # A few stage shapes; each class is one shape under a skew factor.
    shapes = []
    for _ in range(rng.randint(1, 4)):
        used = rng.sample(pools, rng.randint(1, len(pools)))
        rng.shuffle(used)
        weights = {
            p: rng.uniform(0.5, 30.0) if p == "cpu" else rng.uniform(1.0, 256.0)
            for p in used
        }
        cap = 1.0 / weights["cpu"] if "cpu" in weights and rng.random() < 0.7 else None
        if cap is None and rng.random() < 0.3:
            cap = rng.uniform(0.001, 0.5)
        shapes.append((weights, cap))
    sigma = rng.choice((0.0, 0.1, 0.5, 1.0))
    classes: Dict[tuple, Tuple[Dict[str, float], Optional[float], int]] = {}
    for _ in range(rng.randint(1, 30)):
        weights, cap = rng.choice(shapes)
        skewed = sigma > 0.0 and rng.random() < 0.8
        factor = rng.lognormvariate(0.0, sigma) if skewed else 1.0
        agg = {p: w * factor for p, w in weights.items()}
        ccap = None if cap is None else cap / factor
        count = 1 if skewed and rng.random() < 0.6 else int(10 ** rng.uniform(0.0, 4.0))
        key = (ccap, tuple(sorted(agg.items())))
        if key in classes:
            continue
        classes[key] = (agg, ccap, count)
    order = sorted(classes, key=lambda k: class_sort_key(*k))
    return (
        [classes[k][0] for k in order],
        [classes[k][1] for k in order],
        [classes[k][2] for k in order],
        capacities,
    )


def system_digest(system: ClassSystem) -> str:
    """sha256 over a system's inputs, so a drifted generator is caught."""
    weights, caps, mult, capacities = system
    sha = hashlib.sha256()
    for agg, cap, count in zip(weights, caps, mult):
        items = " ".join(f"{p}={w.hex()}" for p, w in agg.items())
        sha.update(f"{items} cap={None if cap is None else cap.hex()} x{count}\n".encode())
    sha.update(" ".join(f"{p}={c.hex()}" for p, c in capacities.items()).encode())
    return sha.hexdigest()


def class_rates(system: ClassSystem) -> List[str]:
    return [float(r).hex() for r in solve_max_min_classes(*system)]


def flow_rates(system: ClassSystem) -> List[str]:
    """The same system through ``solve_max_min``: one flow per class member."""
    weights, caps, mult, capacities = system
    flows = [
        FlowSpec(f"c{ci}/{k}", tuple(agg.items()), cap)
        for ci, (agg, cap, count) in enumerate(zip(weights, caps, mult))
        for k in range(count)
    ]
    rates = solve_max_min(flows, capacities)
    out = []
    for ci, count in enumerate(mult):
        members = {rates[f"c{ci}/{k}"] for k in range(count)}
        assert len(members) == 1, f"class {ci} members got different rates"
        out.append(members.pop().hex())
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_covers_every_system(golden):
    assert set(golden) == {str(seed) for seed in range(SYSTEMS)}
    sizes = [len(entry["rates"]) for entry in golden.values()]
    assert min(sizes) == 1 and max(sizes) >= 25


def test_generator_is_stable(golden):
    drifted = [
        s for s in range(SYSTEMS)
        if system_digest(class_system(s)) != golden[str(s)]["inputs"]
    ]
    assert not drifted, f"class-system generator drifted: {drifted}"


def test_class_solver_matches_golden(golden):
    drifted = [
        s for s in range(SYSTEMS)
        if class_rates(class_system(s)) != golden[str(s)]["rates"]
    ]
    assert not drifted, f"class solver rates drifted from the golden pin: {drifted}"


def test_flow_solver_matches_golden(golden):
    checked = 0
    drifted = []
    for seed in range(SYSTEMS):
        system = class_system(seed)
        if sum(system[2]) > MAX_EXPANDED_FLOWS:
            continue
        checked += 1
        if flow_rates(system) != golden[str(seed)]["rates"]:
            drifted.append(seed)
    assert checked >= 50
    assert not drifted, f"solve_max_min rates drifted from the golden pin: {drifted}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    pinned = {}
    for seed in range(SYSTEMS):
        system = class_system(seed)
        pinned[str(seed)] = {"inputs": system_digest(system), "rates": class_rates(system)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} class systems to {GOLDEN}")
