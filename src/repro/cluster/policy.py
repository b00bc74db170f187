"""Traversal-order placement: pack a class's objects as they were touched.

The access log (:mod:`repro.cluster.coaccess`) yields each class's
objects in the order traversals first touched them.  The policy cuts that
sequence, in order, into groups of one page's capacity; the reclusterer
moves each group onto one fresh page, so a cold replay of the same
traversals reads each page once, in the order it wants them.

A class is left alone when its sequence already visits each of its pages
in one contiguous run and those pages home no other live record: the
layout a previous pass left, whatever the record sizes.  A second pass
over an unchanged workload therefore moves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.oid import OID


@dataclass
class PlacementPlan:
    """The policy's output for one class."""

    class_name: str
    #: Each inner list is one target page's worth of OIDs, in
    #: first-touch order.
    groups: list[list[OID]] = field(default_factory=list)
    #: Distinct pages the sequence occupies today.
    pages_before: int = 0
    #: Pages it will occupy afterwards (= ``len(groups)``).
    pages_after: int = 0


def plan_placements(
    class_name: str,
    sequence: list[OID],
    objects_per_page: int,
    page_oids,
) -> PlacementPlan:
    """Compute the placement plan for one class.

    ``sequence`` is the class's OIDs in first-touch order;
    ``objects_per_page`` sizes the groups; ``page_oids(page)`` lists the
    live OIDs homed on a page.  Members no longer live are dropped.
    """
    plan = PlacementPlan(class_name)
    if objects_per_page < 2:
        return plan
    # One listing per page, read in ascending page order.
    homed = {
        page: set(page_oids(page))
        for page in sorted({oid.page for oid in sequence})
    }
    live = [oid for oid in sequence if oid in homed[oid.page]]
    if len(live) < 2 or _packed(live, homed):
        return plan
    plan.groups = [
        live[start:start + objects_per_page]
        for start in range(0, len(live), objects_per_page)
    ]
    plan.pages_before = len({oid.page for oid in live})
    plan.pages_after = len(plan.groups)
    return plan


def _packed(live: list[OID], homed: dict[int, set[OID]]) -> bool:
    """True when ``live`` visits each of its pages in one contiguous run
    and those pages home nothing else."""
    visited: list[int] = []
    for oid in live:
        if not visited or visited[-1] != oid.page:
            visited.append(oid.page)
    if len(visited) != len(set(visited)):
        return False
    return sum(len(homed[page]) for page in visited) == len(live)
