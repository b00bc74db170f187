"""Dynamic object clustering.

Deref cost is ultimately page locality: objects created in insertion
order stay scattered across extent pages forever, and a selective
traversal of a scattered class reads a page per object however the
reads are ordered.  This package re-homes objects in the order
traversals use them:

* :mod:`repro.cluster.coaccess` -- a bounded first-touch log of the OIDs
  each class's traversals dereferenced (single chases and
  ``deref_many`` hop frontiers);
* :mod:`repro.cluster.policy` -- cuts each class's sequence into
  page-sized groups, and leaves a class alone once its pages already
  hold the sequence in contiguous runs;
* :mod:`repro.cluster.recluster` -- the online reclusterer executing the
  plans in small WAL'd batches over the storage manager's crash-safe
  ``relocate`` primitive, under the ordinary conservative-2PL locks.
"""

from repro.cluster.coaccess import CoAccessLog
from repro.cluster.policy import PlacementPlan, plan_placements
from repro.cluster.recluster import ReclusterDaemon, Reclusterer

__all__ = [
    "CoAccessLog",
    "PlacementPlan",
    "plan_placements",
    "ReclusterDaemon",
    "Reclusterer",
]
