"""Metamorphic and structural invariants — laws that need no simulator.

These are the properties the analytical pipeline must satisfy purely on
its own outputs, following the structural-monotonicity style of
correctness argument in the related associativity-threshold work:

Structural (free — read off one grid pass's results):

* **budget-monotone**: at a fixed depth, the minimal associativity is
  non-increasing as the budget K grows.
* **depth-monotone**: at a fixed K, the minimal associativity is
  non-increasing in depth.  (For LRU with one-word lines, a miss at
  depth 2D implies a miss at depth D — the depth-2D conflict set is a
  subset of the depth-D one — so deeper never needs more ways.)
* **within-budget**: every reported instance's analytical miss count is
  ``<= K``.

Metamorphic (each re-analyzes a transformed trace):

* **stutter**: doubling every reference in place changes nothing — an
  immediate repeat is an LRU hit at every configuration, and the empty
  conflict sets it introduces can never reach any ``A >= 1``.
* **relabel**: XOR-ing every address with a constant (inside the trace's
  width) is a row-permutation at every depth, so the whole miss grid is
  invariant.
* **concat**: ``t ++ t`` can only add misses — pointwise,
  ``misses(t++t, D, A) >= misses(t, D, A)``.
* **rotate**: moving the first k references to the end changes the
  non-cold miss count by at most 2k at every ``(D, A)`` — only accesses
  whose reuse window crosses the cut are affected (at most k moved
  references plus at most k first-reuses across the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.explorer import AnalyticalCacheExplorer
from repro.core.instance import ExplorationResult
from repro.trace.trace import Trace
from repro.verify.oracle import reference_explorer

#: Factory building the analyzer a law re-runs on a transformed trace.
ExplorerFactory = Callable[[Trace], AnalyticalCacheExplorer]


@dataclass(frozen=True)
class Violation:
    """One broken law."""

    law: str
    detail: str
    budget: Optional[int] = None

    def as_dict(self) -> dict:
        return {"law": self.law, "detail": self.detail, "budget": self.budget}


# -- structural laws (no re-analysis needed) -----------------------------------


def structural_violations(
    results: Sequence[ExplorationResult],
) -> List[Violation]:
    """Check budget/depth monotonicity and budget compliance on results.

    ``results`` is one trace's per-budget exploration output (any order);
    all results must come from the same trace.
    """
    violations: List[Violation] = []
    for result in results:
        previous: Optional[Tuple[int, int]] = None
        for inst, misses in zip(result.instances, result.misses):
            if misses > result.budget:
                violations.append(
                    Violation(
                        law="within-budget",
                        budget=result.budget,
                        detail=(
                            f"{inst}: analytical misses {misses} exceed "
                            f"budget {result.budget}"
                        ),
                    )
                )
            if previous is not None and inst.depth > previous[0]:
                if inst.associativity > previous[1]:
                    violations.append(
                        Violation(
                            law="depth-monotone",
                            budget=result.budget,
                            detail=(
                                f"A grew from {previous[1]} at D={previous[0]} "
                                f"to {inst.associativity} at D={inst.depth}"
                            ),
                        )
                    )
            previous = (inst.depth, inst.associativity)
    ordered = sorted(results, key=lambda r: r.budget)
    for lo, hi in zip(ordered, ordered[1:]):
        if lo.budget == hi.budget:
            continue
        hi_map = hi.as_dict()
        for depth, assoc in lo.as_dict().items():
            if depth in hi_map and hi_map[depth] > assoc:
                violations.append(
                    Violation(
                        law="budget-monotone",
                        budget=hi.budget,
                        detail=(
                            f"D={depth}: A={hi_map[depth]} at K={hi.budget} "
                            f"> A={assoc} at K={lo.budget}"
                        ),
                    )
                )
    return violations


# -- metamorphic laws ----------------------------------------------------------


def _result_divergence(
    got: ExplorationResult, want: ExplorationResult
) -> Optional[str]:
    """``None`` when two results are equivalent, else a detail string.

    The explorer's default depth range is content-dependent (it stops
    one level past the BCAT's deepest conflicts), so a transformed trace
    may legitimately emit more — or fewer — trailing depths than the
    original.  Two results are equivalent when every shared depth agrees
    on both associativity and miss count, and every depth present in
    only one of them is the trivial tail (``A == 1``).
    """
    got_map = {
        inst.depth: (inst.associativity, misses)
        for inst, misses in zip(got.instances, got.misses)
    }
    want_map = {
        inst.depth: (inst.associativity, misses)
        for inst, misses in zip(want.instances, want.misses)
    }
    for depth in sorted(got_map.keys() | want_map.keys()):
        if depth in got_map and depth in want_map:
            if got_map[depth] != want_map[depth]:
                return (
                    f"D={depth}: (A, misses) {got_map[depth]} != "
                    f"{want_map[depth]}"
                )
        else:
            assoc, _ = got_map.get(depth) or want_map[depth]
            if assoc != 1:
                return (
                    f"D={depth}: emitted by only one side with A={assoc} "
                    f"(a depth-range tail must be A=1)"
                )
    return None


def _sample_points(
    explorer: AnalyticalCacheExplorer, budgets: Sequence[int]
) -> List[Tuple[int, int]]:
    """(depth, associativity) pairs to probe: each instance, +-1 way."""
    points = set()
    for budget in budgets:
        for inst in explorer.explore(budget).instances:
            points.add((inst.depth, inst.associativity))
            points.add((inst.depth, inst.associativity + 1))
            if inst.associativity > 1:
                points.add((inst.depth, inst.associativity - 1))
    return sorted(points)


def _probe_misses(
    explorer: AnalyticalCacheExplorer, depth: int, assoc: int
) -> int:
    """Miss count at ``(depth, assoc)``; 0 past the explorer's range.

    A transformed trace's depth range may stop short of the original's
    (its deepest conflicts sit shallower); beyond that range every row
    is conflict-free, so the non-cold miss count is exactly 0.
    """
    try:
        return explorer.misses(depth, assoc)
    except ValueError:
        return 0


def law_stutter(
    trace: Trace,
    budgets: Sequence[int],
    factory: ExplorerFactory = reference_explorer,
) -> List[Violation]:
    """Doubling every reference leaves every exploration unchanged."""
    doubled_addrs: List[int] = []
    for addr in trace:
        doubled_addrs.extend((addr, addr))
    doubled = Trace(
        doubled_addrs, address_bits=trace.address_bits, name=f"{trace.name}+stutter"
    )
    base, derived = factory(trace), factory(doubled)
    violations: List[Violation] = []
    for budget in budgets:
        divergence = _result_divergence(
            derived.explore(budget), base.explore(budget)
        )
        if divergence is not None:
            violations.append(
                Violation(
                    law="stutter",
                    budget=budget,
                    detail=f"stuttered trace changed the result: {divergence}",
                )
            )
    return violations


def law_relabel_xor(
    trace: Trace,
    budgets: Sequence[int],
    factory: ExplorerFactory = reference_explorer,
    constant: Optional[int] = None,
) -> List[Violation]:
    """XOR-relabeling every address preserves the whole miss grid."""
    if constant is None:
        # A constant touching both index and tag bits, inside the width.
        constant = ((1 << trace.address_bits) - 1) & 0b1010101010101
        if constant == 0:
            constant = 1
    mask = (1 << trace.address_bits) - 1
    relabeled = Trace(
        (addr ^ (constant & mask) for addr in trace),
        address_bits=trace.address_bits,
        name=f"{trace.name}^={constant:#x}",
    )
    base, derived = factory(trace), factory(relabeled)
    violations: List[Violation] = []
    for budget in budgets:
        divergence = _result_divergence(
            derived.explore(budget), base.explore(budget)
        )
        if divergence is not None:
            violations.append(
                Violation(
                    law="relabel",
                    budget=budget,
                    detail=f"XOR {constant:#x} changed the result: {divergence}",
                )
            )
    return violations


def law_concat(
    trace: Trace,
    budgets: Sequence[int],
    factory: ExplorerFactory = reference_explorer,
) -> List[Violation]:
    """``t ++ t`` never loses misses at any probed ``(D, A)``."""
    doubled = trace.concat(trace, name=f"{trace.name}+concat")
    base, derived = factory(trace), factory(doubled)
    violations: List[Violation] = []
    for depth, assoc in _sample_points(base, budgets):
        before = base.misses(depth, assoc)
        after = _probe_misses(derived, depth, assoc)
        if after < before:
            violations.append(
                Violation(
                    law="concat",
                    detail=(
                        f"(D={depth}, A={assoc}): t++t has {after} misses, "
                        f"fewer than t's {before}"
                    ),
                )
            )
    return violations


def law_rotate(
    trace: Trace,
    budgets: Sequence[int],
    factory: ExplorerFactory = reference_explorer,
    k: Optional[int] = None,
) -> List[Violation]:
    """Rotating k references changes any miss count by at most 2k."""
    if len(trace) < 2:
        return []
    if k is None:
        k = min(4, len(trace) - 1)
    addrs = list(trace)
    rotated = Trace(
        addrs[k:] + addrs[:k],
        address_bits=trace.address_bits,
        name=f"{trace.name}<<{k}",
    )
    base, derived = factory(trace), factory(rotated)
    violations: List[Violation] = []
    for depth, assoc in _sample_points(base, budgets):
        before = base.misses(depth, assoc)
        after = _probe_misses(derived, depth, assoc)
        if abs(after - before) > 2 * k:
            violations.append(
                Violation(
                    law="rotate",
                    detail=(
                        f"(D={depth}, A={assoc}): rotation by {k} moved "
                        f"misses {before} -> {after}, beyond the 2k={2 * k} "
                        f"bound"
                    ),
                )
            )
    return violations


#: All metamorphic laws, in the order the runner rotates through them.
METAMORPHIC_LAWS: Tuple[Tuple[str, Callable[..., List[Violation]]], ...] = (
    ("stutter", law_stutter),
    ("relabel", law_relabel_xor),
    ("concat", law_concat),
    ("rotate", law_rotate),
)


def check_laws(
    trace: Trace,
    budgets: Sequence[int],
    laws: Optional[Sequence[str]] = None,
    factory: ExplorerFactory = reference_explorer,
) -> List[Violation]:
    """Run the named metamorphic laws (default: all) on one trace."""
    wanted = set(laws) if laws is not None else {n for n, _ in METAMORPHIC_LAWS}
    unknown = wanted - {name for name, _ in METAMORPHIC_LAWS}
    if unknown:
        raise ValueError(
            f"unknown law(s) {sorted(unknown)}; expected subset of "
            f"{[name for name, _ in METAMORPHIC_LAWS]}"
        )
    violations: List[Violation] = []
    for name, law in METAMORPHIC_LAWS:
        if name in wanted:
            violations.extend(law(trace, budgets, factory))
    return violations
