"""Physical implementations of the four implicit-join methods (Section 6).

All four produce identical rows; they differ in *how the I/O happens*,
which the simulated disk accounts:

* **forward traversal** chases each stored reference with a random read of
  the target object (pipelined into the right-hand leaf's predicates);
* **backward traversal** scans the referencing class's extent
  sequentially, probing the already-materialised right side;
* **binary join index** probes the precomputed pair index, then fetches;
* **pointer-based hash partition** first partitions the referencing side
  on the pointer field (charged as the extra sequential passes of the
  3(b+b') hybrid-hash structure), then chases pointers partition by
  partition.

The kernels share three helpers: :func:`_chase` dereferences a whole
join level with one
:meth:`~repro.engine.objects.ObjectManager.deref_many`, :func:`_probe`
applies a pipelined leaf's include filter and residual predicates, and
:func:`_match` joins against a materialised right side on OIDs.  A
chain of forward traversals is no operator of its own: run left-deep
(the shape :mod:`repro.optimizer.fuse` relinks chains into), each
:func:`forward_traversal` is one ``_chase`` + ``_probe`` of its hop's
whole frontier.  The kernels never ask how a chase is charged: the
object manager batches a level into page-clustered reads when its cache
is on, and charges one read per chase in caller order when it is off,
exactly as the paper's cost formulas price it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algebra.collection_ops import _reference_oids
from repro.core.errors import ExecutionError
from repro.engine.evaluator import ExpressionEvaluator, Row
from repro.engine.indexes import BinaryJoinIndex
from repro.engine.objects import ObjectManager
from repro.model.objects import MoodObject
from repro.sql.ast import Expr
from repro.storage.oid import OID


@dataclass
class PipelinedLeaf:
    """A right/left-hand side the join can evaluate object-at-a-time:
    an extent access plus residual predicates."""

    var: str
    class_name: str
    include: tuple[str, ...]
    predicates: tuple[Expr, ...]


def _references(
    rows: list[Row], var: str, attr: str,
) -> list[tuple[Row, OID]]:
    """``(row, oid)`` for every reference ``var.attr`` holds, in row order."""
    return [
        (row, oid)
        for row in rows
        for oid in _reference_oids(row[var].state.get(attr))
    ]


def _chase(
    pairs: list[tuple[Row, OID]], objects: ObjectManager,
) -> list[tuple[Row, MoodObject]]:
    """Dereference a whole join level with one ``deref_many``; the store
    decides how it is charged (page-clustered with the cache on, one
    random read per chase in row order with it off)."""
    targets = objects.deref_many([oid for _, oid in pairs])
    return [(row, obj) for (row, _), obj in zip(pairs, targets)]


def _probe(
    chased: list[tuple[Row, MoodObject]],
    var: str,
    include: tuple[str, ...],
    predicates: tuple[Expr, ...],
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    """Bind each chased object to ``var``, keeping those of the
    ``include`` closure that pass every residual predicate (the pipelined
    leaf's SELECT)."""
    result: list[Row] = []
    for row, obj in chased:
        if include and obj.class_name not in include:
            continue
        probe = {**row, var: obj}
        if all(evaluator.predicate(p, probe) for p in predicates):
            result.append(probe)
    return result


def _match(
    pairs: list[tuple[Row, OID]], right_rows: list[Row], right_var: str,
) -> list[Row]:
    """Join ``(row, oid)`` pairs with a materialised right side on the
    OID its ``right_var`` binds."""
    by_oid: dict = {}
    for right_row in right_rows:
        by_oid.setdefault(right_row[right_var].oid, []).append(right_row)
    return [
        {**row, **right_row}
        for row, oid in pairs
        for right_row in by_oid.get(oid, ())
    ]


def _join(
    pairs: list[tuple[Row, OID]],
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    """Chase and probe a pipelined right leaf, or match a materialised
    right side."""
    if isinstance(right, PipelinedLeaf):
        return _probe(_chase(pairs, objects), right_var, right.include,
                      right.predicates, evaluator)
    return _match(pairs, right, right_var)


def forward_traversal(
    left_rows: list[Row],
    left_var: str,
    attr: str,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    return _join(_references(left_rows, left_var, attr), right, right_var,
                 objects, evaluator)


def backward_traversal(
    left: PipelinedLeaf | list[Row],
    left_var: str,
    attr: str,
    right_rows: list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    if isinstance(left, PipelinedLeaf):
        # The defining property: a sequential scan over C's extent.  The
        # scan is materialised as one batch so the residual predicates
        # can prefetch any paths they chase across the whole extent.
        scanned = [
            {left.var: obj}
            for obj in objects.iter_extent(left.class_name,
                                           include=left.include or None)
        ]
        left_var = left.var
        left = evaluator.filter_batch(left.predicates, scanned)
    return _match(_references(left, left_var, attr), right_rows, right_var)


def indexed_join(
    left_rows: list[Row],
    left_var: str,
    join_index: BinaryJoinIndex,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    pairs = [
        (row, oid)
        for row in left_rows
        for oid in join_index.rights_of(row[left_var].oid)
    ]
    return _join(pairs, right, right_var, objects, evaluator)


def hash_partition_join(
    left_rows: list[Row],
    left_var: str,
    attr: str,
    right: PipelinedLeaf | list[Row],
    right_var: str,
    objects: ObjectManager,
    evaluator: ExpressionEvaluator,
    num_partitions: int | None = None,
) -> list[Row]:
    """Partition the referencing side on the pointer field, then chase
    pointers partition by partition (clustering the random reads)."""
    if num_partitions is None:
        num_partitions = max(1, min(32, int(math.sqrt(len(left_rows))) or 1))
    partitions: dict[int, list[tuple[Row, OID]]] = {}
    for pair in _references(left_rows, left_var, attr):
        partitions.setdefault(hash(pair[1]) % num_partitions, []).append(pair)
    _charge_partition_passes(objects, len(left_rows))
    buckets = [partitions[bucket] for bucket in sorted(partitions)]
    if not isinstance(right, PipelinedLeaf):
        return _match([pair for bucket in buckets for pair in bucket],
                      right, right_var)
    result: list[Row] = []
    for bucket in buckets:
        # Sorting on the pointer clusters each partition's chases; they
        # are dereferenced as one deref_many per partition.
        chased = _chase(sorted(bucket, key=lambda pair: pair[1]), objects)
        result.extend(_probe(chased, right_var, right.include,
                             right.predicates, evaluator))
    return result


def _charge_partition_passes(objects: ObjectManager, num_rows: int) -> None:
    """The extra write+read passes of hash partitioning, charged
    sequentially (the 3(b+b') term beyond the initial scan)."""
    disk = objects.storage.disk
    block = disk.params.block_size
    approx_record = 128
    pages = max(1, math.ceil(num_rows * approx_record / block))
    disk.stats.charge_sequential_write(disk.params, pages)
    disk.stats.charge_sequential_read(disk.params, pages)


def nested_loop_join(
    left_rows: list[Row],
    right_rows: list[Row],
    predicate: Expr | None,
    evaluator: ExpressionEvaluator,
) -> list[Row]:
    candidates: list[Row] = []
    for left_row in left_rows:
        for right_row in right_rows:
            overlap = set(left_row) & set(right_row)
            if overlap:
                raise ExecutionError(
                    f"join sides share variables {sorted(overlap)}"
                )
            candidates.append({**left_row, **right_row})
    if predicate is None:
        return candidates
    return evaluator.filter_batch((predicate,), candidates)
