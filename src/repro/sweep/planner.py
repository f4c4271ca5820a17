"""Expand a sweep spec into a dependency-aware cell DAG.

The planner is pure: spec in, :class:`Plan` out, no I/O and no timing,
so a plan is reproducible byte for byte (the CI job asserts it).  The
expansion follows matrix semantics:

1. the cartesian product of the five axes, in declaration order;
2. ``include`` rules each add the product of the spec's axes with the
   rule's pinned values substituted (an include that names every axis
   adds exactly one cell);
3. ``exclude`` rules then drop every cell whose coordinates match all
   of the rule's constraints (subset match);
4. duplicates keep their first occurrence.

Two structural dependency rules make the DAG:

* a ``warm`` cell depends on the ``cold`` cell with otherwise identical
  coordinates (its store producer) — a warm cell whose producer was
  excluded is a plan-time error, not a silently-cold cell;
* a level-2 cell depends on the level-1 cell with otherwise identical
  coordinates (the L1 winner whose miss stream seeds the L2 sweep).

Cycle detection runs at plan time over whatever dependency map the plan
carries (the structural rules cannot cycle, but :class:`Plan` accepts
arbitrary graphs so the scheduler's contract is enforced here, once).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.sweep.spec import AXIS_NAMES, SweepSpec

#: Plan document schema identifier.
PLAN_SCHEMA = "repro-sweep-plan/1"


class PlanError(ValueError):
    """The spec expands to an invalid plan (cycle, missing producer...)."""


@dataclass(frozen=True)
class Cell:
    """One point of the sweep matrix.

    Identity is the five axis coordinates; everything else a cell needs
    to execute (budgets, depth bounds, scale) lives on the plan's spec
    and is shared by every cell.
    """

    trace: str
    engine: str
    warmth: str
    policy: str
    level: int

    @property
    def cell_id(self) -> str:
        """Stable, human-readable identity: axes joined in canonical order."""
        return (
            f"{self.trace}/{self.engine}/{self.warmth}/"
            f"{self.policy}/L{self.level}"
        )

    def coords(self) -> Dict[str, object]:
        """The coordinates as an axis-name -> value mapping."""
        return {axis: getattr(self, axis) for axis in AXIS_NAMES}

    def matches(self, rule: Mapping[str, object]) -> bool:
        """True when every constraint in ``rule`` equals this cell's value."""
        return all(getattr(self, axis) == value for axis, value in rule.items())


@dataclass(frozen=True)
class Plan:
    """An ordered cell list plus its dependency edges.

    Attributes:
        spec: the spec the plan was expanded from.
        cells: cells in deterministic execution-priority order.
        depends_on: ``cell_id -> tuple of producer cell_ids``; every id
            must name a cell in :attr:`cells`, and the graph must be
            acyclic (validated at construction).
    """

    spec: SweepSpec
    cells: Tuple[Cell, ...]
    depends_on: Dict[str, Tuple[str, ...]]

    def __post_init__(self) -> None:
        ids = [cell.cell_id for cell in self.cells]
        if len(set(ids)) != len(ids):
            raise PlanError("duplicate cell ids in plan")
        known = set(ids)
        for cell_id, deps in self.depends_on.items():
            if cell_id not in known:
                raise PlanError(f"dependency map names unknown cell {cell_id!r}")
            for dep in deps:
                if dep not in known:
                    raise PlanError(
                        f"cell {cell_id!r} depends on unknown cell {dep!r}"
                    )
        self.topological_order()  # raises PlanError on cycles

    def dependencies(self, cell: Cell) -> Tuple[str, ...]:
        """The producer cell-ids of ``cell`` (empty when independent)."""
        return self.depends_on.get(cell.cell_id, ())

    def topological_order(self) -> Tuple[str, ...]:
        """Cell ids in a dependency-respecting order (Kahn's algorithm).

        Raises:
            PlanError: when the dependency graph contains a cycle; the
                error names the cells stuck on the cycle.
        """
        remaining = {
            cell.cell_id: set(self.dependencies(cell)) for cell in self.cells
        }
        order: List[str] = []
        while remaining:
            ready = sorted(
                cell_id for cell_id, deps in remaining.items() if not deps
            )
            if not ready:
                stuck = sorted(remaining)
                raise PlanError(
                    f"dependency cycle among cells {stuck}"
                )
            for cell_id in ready:
                order.append(cell_id)
                del remaining[cell_id]
            for deps in remaining.values():
                deps.difference_update(ready)
        return tuple(order)

    def cell(self, cell_id: str) -> Cell:
        """Look a cell up by id."""
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        raise KeyError(cell_id)

    def to_json_dict(self) -> Dict:
        """The canonical plan document (byte-stable for a fixed spec)."""
        return {
            "schema": PLAN_SCHEMA,
            "spec": self.spec.to_dict(),
            "cells": [
                {
                    "id": cell.cell_id,
                    "coords": cell.coords(),
                    "depends_on": list(self.dependencies(cell)),
                }
                for cell in self.cells
            ],
            "fingerprint": self.fingerprint(),
        }

    def to_json(self) -> str:
        """Canonical JSON text: same spec + seed -> same bytes."""
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical cells + spec (excluding itself)."""
        payload = {
            "schema": PLAN_SCHEMA,
            "spec": self.spec.to_dict(),
            "cells": [
                {
                    "id": cell.cell_id,
                    "depends_on": list(self.dependencies(cell)),
                }
                for cell in self.cells
            ],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _expand_rule(spec: SweepSpec, rule: Mapping[str, object]) -> List[Cell]:
    """All cells an include rule denotes (free axes range over the spec)."""
    domains: List[Sequence[object]] = []
    axis_values = {
        "trace": spec.traces,
        "engine": spec.engines,
        "warmth": spec.warmth,
        "policy": spec.policies,
        "level": spec.levels,
    }
    for axis in AXIS_NAMES:
        if axis in rule:
            domains.append((rule[axis],))
        else:
            domains.append(axis_values[axis])
    return [Cell(*combo) for combo in itertools.product(*domains)]


def plan_sweep(spec: SweepSpec) -> Plan:
    """Expand ``spec`` into a validated :class:`Plan` (see module doc)."""
    cells: List[Cell] = [
        Cell(*combo)
        for combo in itertools.product(
            spec.traces,
            spec.engines,
            spec.warmth,
            spec.policies,
            spec.levels,
        )
    ]
    for rule in spec.include:
        cells.extend(_expand_rule(spec, rule))
    if spec.exclude:
        cells = [
            cell
            for cell in cells
            if not any(cell.matches(rule) for rule in spec.exclude)
        ]
    seen: Dict[str, Cell] = {}
    for cell in cells:
        seen.setdefault(cell.cell_id, cell)
    unique = list(seen.values())
    if not unique:
        raise PlanError("the spec expands to zero cells (over-excluded?)")

    by_id = {cell.cell_id: cell for cell in unique}
    depends_on: Dict[str, Tuple[str, ...]] = {}
    for cell in unique:
        deps: List[str] = []
        if cell.warmth == "warm":
            producer = Cell(
                cell.trace, cell.engine, "cold", cell.policy, cell.level
            )
            if producer.cell_id not in by_id:
                raise PlanError(
                    f"warm cell {cell.cell_id!r} has no cold producer in "
                    f"the plan (excluded or missing from axes.warmth)"
                )
            deps.append(producer.cell_id)
        if cell.level == 2:
            l1 = Cell(cell.trace, cell.engine, cell.warmth, cell.policy, 1)
            if l1.cell_id not in by_id:
                raise PlanError(
                    f"level-2 cell {cell.cell_id!r} has no level-1 winner "
                    f"in the plan (excluded or missing from axes.levels)"
                )
            deps.append(l1.cell_id)
        if deps:
            depends_on[cell.cell_id] = tuple(deps)
    return Plan(spec=spec, cells=tuple(unique), depends_on=depends_on)
