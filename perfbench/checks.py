"""Output checks: every (D, A) answer against references outside the pipeline.

Three things are worked out here, none of them with the analytical
pipeline's code:

* the budget K: ``percent`` of the trace's maximum misses, the non-cold
  misses of a one-word direct-mapped cache (the paper's 100% point),
  counted with NumPy;
* the depths an answer must list: 2, 4, ... up to one past the deepest
  depth at which a direct-mapped cache still has a non-cold miss,
  clamped to the address width, also counted with NumPy;
* each cell's A and misses, from
  :func:`repro.cache.onepass.stack_distance_profile`, an LRU
  stack-distance simulator, wherever that is cheap.

A costly profile is kept in the checkout, keyed by a hash of the
trace's addresses, so the fixed ``loop-mix`` trace is simulated once
per checkout while a seeded trace is simulated on every new seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.onepass import StackDistanceProfile, stack_distance_profile
from repro.trace.trace import Trace

#: A depth is simulated when N * ceil(N' / D) (references times the
#: mean per-set stack length) stays under this.  It admits every depth
#: of the 2e5-reference traces and D >= 4 of the 1e6-reference
#: ``loop-mix`` trace, whose D = 2 pass alone would take about a minute.
SIMULATION_COST_LIMIT = 6e8
#: Profiles cheaper than this (the small ``serve-mix`` traces) are not
#: kept on disk.
CACHE_COST = 5e7


def canonical(report_json: Dict) -> bytes:
    """A report's bytes with the per-handle ``store`` counters left out."""
    document = {key: value for key, value in report_json.items() if key != "store"}
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def answers(report_json: Dict) -> Dict:
    """The part of a report that must equal a cold answer: K and (D, A, misses)."""
    return {"budgets": report_json["budgets"], "results": report_json["results"]}


def direct_mapped_misses(addresses: np.ndarray, depth: int) -> int:
    """Non-cold misses of a ``depth``-set direct-mapped cache of one-word lines.

    Within a set, an access misses unless it repeats the set's previous
    address; one miss per distinct address is cold.
    """
    sets = addresses & (depth - 1)
    order = np.argsort(sets, kind="stable")
    sets, ordered = sets[order], addresses[order]
    same_set = sets[1:] == sets[:-1]
    runs = int(np.count_nonzero(same_set & (ordered[1:] != ordered[:-1]))) + int(
        np.count_nonzero(~same_set)
    ) + 1
    return runs - len(np.unique(addresses))


def expected_depths(addresses: np.ndarray, address_bits: int) -> List[int]:
    """Depths an answer lists: one past the deepest with a direct-mapped conflict.

    A direct-mapped cache's misses never grow with depth (a deeper set
    holds a subset of a shallower set's addresses), so the scan stops
    at the first conflict-free depth.
    """
    level = 1
    while level <= address_bits and direct_mapped_misses(addresses, 1 << level) > 0:
        level += 1
    return [1 << depth_level for depth_level in range(1, min(level, address_bits) + 1)]


class Simulator:
    """Checks exploration answers against independently computed references."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir

    def _profile(self, trace: Trace, digest: str, depth: int, cost: float) -> StackDistanceProfile:
        if cost < CACHE_COST:
            return stack_distance_profile(trace, depth)
        path = os.path.join(self.cache_dir, f"{digest}-{depth}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                cached = json.load(handle)
            return StackDistanceProfile(
                depth=depth,
                histogram={int(k): v for k, v in cached["histogram"].items()},
                cold=cached["cold"],
                accesses=cached["accesses"],
            )
        except (OSError, ValueError, KeyError):
            pass
        profile = stack_distance_profile(trace, depth)
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"histogram": profile.histogram, "cold": profile.cold, "accesses": profile.accesses},
                handle,
            )
        os.replace(tmp, path)
        return profile

    def mismatch(
        self, trace: Trace, percents: Sequence[float], report_json: Dict, simulate: bool = True
    ) -> Optional[str]:
        """``None`` if the answer at ``percents`` is right, else why not.

        Checks K for every percent, the list of depths of every result,
        and, with ``simulate``, A and misses of every cell the simulator
        can afford.
        """
        addresses = np.asarray(trace.addresses, dtype=np.int64)
        unique = len(np.unique(addresses))
        max_misses = direct_mapped_misses(addresses, 1)
        budgets = [int(max_misses * percent / 100.0) for percent in percents]
        if report_json["budgets"] != budgets:
            return f"{trace.name} {list(percents)}%: got K={report_json['budgets']}, expected K={budgets}"
        depths = expected_depths(addresses, trace.address_bits)
        digest = hashlib.sha256(
            trace.address_bits.to_bytes(2, "little") + addresses.tobytes()
        ).hexdigest()[:32]
        profiles: Dict[int, StackDistanceProfile] = {}
        for budget, result in zip(budgets, report_json["results"]):
            got = [cell["depth"] for cell in result["instances"]]
            if result["budget"] != budget or got != depths:
                return f"{trace.name} K={budget}: got K={result['budget']} depths {got}, expected {depths}"
            for cell in result["instances"] if simulate else ():
                depth = cell["depth"]
                cost = len(addresses) * -(-unique // depth)
                if cost > SIMULATION_COST_LIMIT:
                    continue
                if depth not in profiles:
                    profiles[depth] = self._profile(trace, digest, depth, cost)
                profile = profiles[depth]
                want = profile.min_associativity(budget)
                misses = profile.non_cold_misses(want)
                if cell["associativity"] != want or cell["misses"] != misses:
                    return (
                        f"{trace.name} K={budget} D={depth}: got A={cell['associativity']} "
                        f"misses={cell['misses']}, simulator A={want} misses={misses}"
                    )
        return None
