"""Statistics collection: measuring Table 8 parameters from live data.

The paper assumes the Table 8/14/15 statistics exist; a real system must
gather them.  :func:`collect_statistics` walks class extents and computes
every parameter the cost model reads -- |C|, nbpages, size, notnull, fan,
totref, dist, max, min (totlinks and hitprb are derived).  It can also be
bypassed entirely by building a :class:`DatabaseStats` by hand, which the
benchmarks use to inject the paper's own (synthetic) numbers.  Collected
class cards keep their extent files, so |C| and nbpages(C) stay live.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.catalog.catalog import Catalog
from repro.cost.params import ClassCard, DatabaseStats
from repro.model.objects import MoodObject
from repro.model.serde import encode
from repro.model.types import is_atomic, is_reference_like, referenced_class
from repro.storage.oid import OID


def collect_statistics(
    catalog: Catalog,
    objects_of: Callable[[str], list[MoodObject]],
    classes: Iterable[str] | None = None,
    into: DatabaseStats | None = None,
) -> DatabaseStats:
    """Measure every cost-model parameter from the database.

    ``objects_of(class_name)`` returns the class's own (shallow) extent.
    By default every class is measured into a fresh :class:`DatabaseStats`;
    ``classes`` re-measures just those classes into ``into``.

    Every collection gets a fresh :attr:`DatabaseStats.version` stamp, so
    plans costed under older statistics are recognisably stale.
    """
    from repro.core.prepare import next_stats_version

    stats = into if into is not None else DatabaseStats()
    stats.version = next_stats_version()
    for class_name in catalog.class_names() if classes is None else classes:
        definition = catalog.class_def(class_name)
        if not definition.is_class:
            continue
        objects = objects_of(class_name)
        count = len(objects)
        extent = catalog.extent_file(class_name)
        if count:
            size = round(
                sum(len(encode(obj.state)) for obj in objects) / count
            )
        else:
            size = 0
        stats.classes[class_name] = ClassCard(count, extent.nbpages(),
                                              size, extent)
        for attribute in catalog.hierarchy.all_attributes(class_name):
            from repro.catalog.typeparse import parse_type

            mood_type = parse_type(attribute.type_name)
            values = [obj.state.get(attribute.name) for obj in objects]
            if is_atomic(mood_type):
                _collect_atomic(stats, class_name, attribute.name, values)
            elif is_reference_like(mood_type):
                _collect_reference(
                    stats, class_name, attribute.name,
                    referenced_class(mood_type) or "", values,
                )
    return stats


def _collect_atomic(stats: DatabaseStats, class_name: str, attr: str,
                    values: list) -> None:
    present = [v for v in values if v is not None]
    distinct = len(set(present))
    numeric = [v for v in present
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    max_value = max(numeric) if numeric and len(numeric) == len(present) else None
    min_value = min(numeric) if numeric and len(numeric) == len(present) else None
    notnull = len(present) / len(values) if values else 1.0
    stats.set_attribute(class_name, attr, distinct, max_value, min_value, notnull)


def _collect_reference(stats: DatabaseStats, class_name: str, attr: str,
                       target: str, values: list) -> None:
    total_refs = 0
    referenced: set[OID] = set()
    for value in values:
        for oid in _oids_in(value):
            total_refs += 1
            referenced.add(oid)
    fan = total_refs / len(values) if values else 0.0
    stats.set_reference(class_name, attr, target, fan, len(referenced))


def _oids_in(value) -> list[OID]:
    if isinstance(value, OID):
        return [] if value.is_null else [value]
    if isinstance(value, (set, frozenset, list, tuple)):
        result = []
        for element in value:
            result.extend(_oids_in(element))
        return result
    return []
