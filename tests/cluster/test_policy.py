"""Traversal-order placement policy, pure-function level."""

from repro.cluster.policy import plan_placements
from repro.storage.oid import OID


def _oid(page, slot=0):
    return OID(1, page, slot)


def _homes(*oids):
    """``page_oids`` over a layout holding exactly ``oids``."""
    pages = {}
    for oid in oids:
        pages.setdefault(oid.page, []).append(oid)
    return lambda page: pages.get(page, [])


def test_chains_break_at_page_capacity():
    sequence = [_oid(page) for page in (7, 3, 9, 1, 8, 2, 5)]
    neighbours = [_oid(page, 1) for page in range(1, 10)]
    plan = plan_placements("A", sequence, 3, _homes(*sequence, *neighbours))
    # Cut in first-touch order, not page order.
    assert plan.groups == [sequence[:3], sequence[3:6], sequence[6:]]
    assert (plan.pages_before, plan.pages_after) == (7, 3)


def test_already_colocated_groups_are_dropped():
    """Pages visited in one contiguous run each, homing nothing else:
    the layout a previous pass left, however full its pages are."""
    sequence = [_oid(4, 0), _oid(4, 1), _oid(4, 2), _oid(2, 0), _oid(2, 1)]
    assert plan_placements("A", sequence, 2, _homes(*sequence)).groups == []


def test_a_page_homing_an_untouched_record_is_repacked():
    sequence = [_oid(4, 0), _oid(4, 1), _oid(2, 0)]
    plan = plan_placements("A", sequence, 4, _homes(*sequence, _oid(2, 1)))
    assert plan.groups == [sequence]


def test_a_page_visited_twice_is_repacked():
    sequence = [_oid(4, 0), _oid(2, 0), _oid(4, 1)]
    plan = plan_placements("A", sequence, 4, _homes(*sequence))
    assert plan.groups == [sequence]


def test_deleted_members_do_not_crash_page_lookup():
    sequence = [_oid(1), _oid(2), _oid(3)]
    alive = [_oid(1), _oid(3)]
    plan = plan_placements("A", sequence, 4, _homes(*alive, _oid(1, 1)))
    assert plan.groups == [alive]
    assert plan_placements("A", sequence, 4, _homes()).groups == []


def test_each_page_is_listed_once_in_ascending_order():
    listed = []
    sequence = [_oid(9), _oid(3), _oid(9, 1), _oid(5)]
    homes = _homes(*sequence)

    def page_oids(page):
        listed.append(page)
        return homes(page)

    plan_placements("A", sequence, 2, page_oids)
    assert listed == [3, 5, 9]


def test_tiny_capacity_yields_no_plan():
    sequence = [_oid(1), _oid(2)]
    assert plan_placements("A", sequence, 1, _homes(*sequence)).groups == []
