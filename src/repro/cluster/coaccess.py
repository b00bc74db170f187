"""The access log: which objects traversals touched, in first-touch order.

The reclusterer packs each class's objects in the order traversals first
touched them (Darmont et al., "An Advocacy for Simplicity": a simple
usage-driven placement matches DSTC's pairwise statistics at a fraction
of the overhead).  The log is one insertion-ordered map of the OIDs
dereferenced since the last reclustering pass, fed by
:class:`~repro.engine.objects.ObjectManager` through :meth:`note`:

* single ``deref`` chases, one at a time (cache off, or one-off gets);
* ``deref_many`` hop frontiers, in traversal order -- exactly the order
  a cold replay of the same query will chase them in.

An OID keeps its first position; later touches do not move it.  The log
holds at most :data:`MAX_NOTED` OIDs and drops the oldest first.
:meth:`take` hands the per-class sequences to the reclusterer and starts
the log empty, so relocated and deleted OIDs never outlive a pass.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from repro.storage.oid import OID

#: Most OIDs the log holds; the oldest is dropped first.
MAX_NOTED = 50_000


class CoAccessLog:
    """Bounded first-touch log of dereferenced OIDs."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        # OID -> class name, in first-touch order.
        self._noted: dict[OID, str] = {}

    def __len__(self) -> int:
        return len(self._noted)

    def note(self, members: Iterable[tuple[OID, str]]) -> None:
        """Record ``(oid, class name)`` derefs in traversal order."""
        with self._mutex:
            noted = self._noted
            for oid, class_name in members:
                if oid not in noted:
                    noted[oid] = class_name
                    if len(noted) > MAX_NOTED:
                        del noted[next(iter(noted))]

    def take(self) -> dict[str, list[OID]]:
        """Each class's OIDs in first-touch order; the log starts empty."""
        with self._mutex:
            noted, self._noted = self._noted, {}
        sequences: dict[str, list[OID]] = {}
        for oid, class_name in noted.items():
            sequences.setdefault(class_name, []).append(oid)
        return sequences
