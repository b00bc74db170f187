"""Index maintenance: secondary indexes and binary join indexes.

Secondary B+-tree/hash indexes (catalog kind ``btree``/``hash``) cover the
*deep* extent of their class: an index on ``Vehicle.weight`` also indexes
Automobile and JapaneseAuto instances, so IS-A queries can use it.

Binary join indexes (catalog kind ``join``) precompute the pairs of one
reference attribute (Section 6.3) in a forward B+-tree, referencing OID ->
referenced OID, so the optimizer's ``bjc = INDCOST(k)`` model applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog, IndexInfo
from repro.core.errors import CatalogError
from repro.engine.objects import ObjectManager
from repro.model.objects import MoodObject
from repro.storage.btree import BPlusTree, BTreeParams
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


@dataclass
class BinaryJoinIndex:
    """Precomputed (referencing OID, referenced OID) pairs."""

    name: str
    class_name: str
    attribute: str
    forward: BPlusTree   # left OID -> right OID

    def pairs(self) -> list[tuple[OID, OID]]:
        return [(left, right) for left, right in self.forward.items()]

    def rights_of(self, left: OID) -> list[OID]:
        return self.forward.search(left)

    def params(self) -> BTreeParams:
        return self.forward.params()


@dataclass
class PathIndex:
    """A path index (Kemper/Moerkotte-style access support, Section 3.2):
    maps the value reached through ``head_class.a1...am`` directly to the
    head-class OIDs reaching it, collapsing the whole implicit-join chain
    into one B+-tree probe.

    Maintenance here covers head-class mutations; mutations of *interior*
    objects can strand entries, so probes are always re-verified against
    the live path (the executor's recheck) and :meth:`IndexManager.
    rebuild_path_index` refreshes the structure wholesale.
    """

    name: str
    class_name: str                  # head class
    path_attrs: tuple[str, ...]      # a1..a(m-1) references + am atomic
    tree: BPlusTree
    interior_classes: tuple[str, ...] = ()
    #: set when an interior-class object mutates; probes verify while set
    stale: bool = False

    def params(self) -> BTreeParams:
        return self.tree.params()


class IndexManager:
    """Builds indexes over live extents and keeps them current."""

    def __init__(self, storage: StorageManager, catalog: Catalog,
                 objects: ObjectManager):
        self.storage = storage
        self.catalog = catalog
        self.objects = objects
        self.join_indexes: dict[str, BinaryJoinIndex] = {}
        self.path_indexes: dict[str, PathIndex] = {}
        objects.observers.append(self._on_change)

    # -- creation -------------------------------------------------------------

    def create_index(self, name: str, class_name: str, attribute: str,
                     kind: str = "btree", unique: bool = False) -> IndexInfo:
        """Create and build a secondary index over the class's deep extent."""
        if kind == "join":
            return self.create_join_index(name, class_name, attribute)
        if kind == "path":
            return self.create_path_index(name, class_name,
                                          tuple(attribute.split(".")))
        info = self.catalog.define_index(name, class_name, attribute, kind,
                                         unique)
        if kind == "btree":
            index = self.storage.create_btree_index(name, unique=unique)
        else:
            index = self.storage.create_hash_index(name, unique=unique)
        for obj in self.objects.iter_extent(class_name, deep=True):
            key = obj.state.get(attribute)
            if key is not None:
                index.insert(key, obj.oid)
        return info

    def create_join_index(self, name: str, class_name: str,
                          attribute: str) -> IndexInfo:
        from repro.catalog.typeparse import parse_type
        from repro.model.types import is_reference_like

        attr = self.catalog.hierarchy.attribute(class_name, attribute)
        if not is_reference_like(parse_type(attr.type_name)):
            raise CatalogError(
                f"{class_name}.{attribute} is not a reference attribute"
            )
        info = self.catalog.define_index(name, class_name, attribute, "join")
        join_index = BinaryJoinIndex(
            name=name,
            class_name=class_name,
            attribute=attribute,
            forward=self.storage.create_btree_index(f"{name}__fwd"),
        )
        self.join_indexes[name] = join_index
        for obj in self.objects.iter_extent(class_name, deep=True):
            for target in _ref_oids(obj.state.get(attribute)):
                join_index.forward.insert(obj.oid, target)
        return info

    def create_path_index(self, name: str, class_name: str,
                          path_attrs: tuple[str, ...]) -> IndexInfo:
        """Build a path index over ``class_name.a1...am`` (m >= 2; the tail
        attribute must be atomic)."""
        from repro.optimizer.classify import resolve_path

        if len(path_attrs) < 2:
            raise CatalogError("path indexes need at least two attributes")
        if resolve_path(self.catalog, class_name, path_attrs) is None:
            raise CatalogError(
                f"{class_name}.{'.'.join(path_attrs)} is not a reference "
                "path ending at an atomic attribute"
            )
        info = self.catalog.define_index(name, class_name,
                                         ".".join(path_attrs), "path")
        chain = resolve_path(self.catalog, class_name, path_attrs)
        path_index = PathIndex(
            name=name,
            class_name=class_name,
            path_attrs=path_attrs,
            tree=self.storage.create_btree_index(name),
            interior_classes=chain.classes[1:],
        )
        self.path_indexes[name] = path_index
        self._fill_path_index(path_index)
        return info

    def _fill_path_index(self, path_index: PathIndex) -> None:
        for obj in self.objects.iter_extent(path_index.class_name,
                                            deep=True):
            for value in self._path_values(obj, path_index.path_attrs):
                if value is not None:
                    path_index.tree.insert(value, obj.oid)

    def _path_values(self, obj: MoodObject,
                     path_attrs: tuple[str, ...]) -> list:
        current = [obj]
        for attribute in path_attrs[:-1]:
            reached = []
            for node in current:
                for oid in _ref_oids(node.state.get(attribute)):
                    reached.append(self.objects.deref(oid))
            current = reached
        return [node.state.get(path_attrs[-1]) for node in current]

    def rebuild_path_index(self, name: str) -> None:
        """Refresh a path index after interior-class mutations."""
        path_index = self.path_indexes[name]
        fresh = BPlusTree(
            order=path_index.tree.order,
            keysize=path_index.tree.keysize,
            on_node_access=self.storage._charge_index_page,
        )
        path_index.tree = fresh
        self.storage._btrees[name] = fresh  # swap under the same name
        self._fill_path_index(path_index)
        path_index.stale = False

    def remap_oids(self, mapping: dict[OID, OID]) -> int:
        """Rewrite every index entry naming a relocated OID.

        Relocation re-identifies objects (old OID -> new OID); secondary
        indexes hold OIDs as values, join indexes as keys and values, path
        indexes as head values -- and a secondary index over a reference
        attribute can even hold OIDs as keys.  Returns the number of
        entries rewritten.
        """
        if not mapping:
            return 0
        rewritten = 0
        for info in self.catalog.all_indexes():
            if info.kind == "join":
                rewritten += _remap_entries(
                    self.join_indexes[info.name].forward, mapping
                )
            elif info.kind == "path":
                rewritten += _remap_entries(
                    self.path_indexes[info.name].tree, mapping
                )
            else:
                rewritten += _remap_entries(
                    self.physical_index(info.name), mapping
                )
        return rewritten

    def needs_verification(self, index_name: str) -> bool:
        """Whether an index probe's hits must be re-verified against the
        live data (true for stale path indexes; other kinds verify cheaply
        against the already-fetched object)."""
        path_index = self.path_indexes.get(index_name)
        if path_index is not None:
            return path_index.stale
        return True

    def drop_index(self, name: str) -> None:
        info = self.catalog.index_info(name)
        self.catalog.drop_index(name)
        if info.kind == "join":
            self.storage.drop_index(f"{name}__fwd")
            del self.join_indexes[name]
        elif info.kind == "path":
            self.storage.drop_index(name)
            del self.path_indexes[name]
        else:
            self.storage.drop_index(name)

    # -- lookup helpers ----------------------------------------------------------

    def physical_index(self, name: str):
        info = self.catalog.index_info(name)
        if info.kind in ("btree", "path"):
            return self.storage.btree_index(name)
        if info.kind == "hash":
            return self.storage.hash_index(name)
        return self.join_indexes[name]

    def btree_params_of(self, name: str) -> BTreeParams | None:
        info = self.catalog.index_info(name)
        if info.kind in ("btree", "path"):
            return self.storage.btree_index(name).params()
        if info.kind == "join":
            return self.join_indexes[name].params()
        return None

    def path_index_params(self) -> dict[tuple[str, tuple[str, ...]],
                                        tuple[str, BTreeParams]]:
        """(head class, path attrs) -> (index name, Table 9 params)."""
        return {
            (pi.class_name, pi.path_attrs): (pi.name, pi.params())
            for pi in self.path_indexes.values()
        }

    def join_index_for(self, class_name: str,
                       attribute: str) -> BinaryJoinIndex | None:
        for join_index in self.join_indexes.values():
            if join_index.attribute != attribute:
                continue
            if self.catalog.hierarchy.is_subclass(class_name,
                                                  join_index.class_name):
                return join_index
        return None

    def join_index_params(self) -> dict[str, BTreeParams]:
        """Link attribute -> Table 9 parameters, for the planner."""
        return {
            ji.attribute: ji.params() for ji in self.join_indexes.values()
        }

    # -- maintenance ------------------------------------------------------------

    def _applicable(self, class_name: str) -> list[IndexInfo]:
        result = []
        for info in self.catalog.all_indexes():
            if self.catalog.hierarchy.is_subclass(class_name,
                                                  info.class_name):
                result.append(info)
        return result

    def _on_change(self, event: str, obj: MoodObject, old_state) -> None:
        for info in self._applicable(obj.class_name):
            if info.kind == "join":
                self._maintain_join(info, event, obj, old_state)
            elif info.kind == "path":
                self._maintain_path(info, event, obj, old_state)
            else:
                self._maintain_secondary(info, event, obj, old_state)
        # A mutation of an interior class of any path index strands its
        # entries: mark the index stale so probes verify until rebuilt.
        for path_index in self.path_indexes.values():
            if any(
                self.catalog.hierarchy.is_subclass(obj.class_name, interior)
                for interior in path_index.interior_classes
            ):
                path_index.stale = True

    def _maintain_secondary(self, info: IndexInfo, event: str,
                            obj: MoodObject, old_state) -> None:
        index = self.physical_index(info.name)
        new_key = obj.state.get(info.attribute)
        old_key = old_state.get(info.attribute) if old_state else None
        if event == "insert":
            if new_key is not None:
                index.insert(new_key, obj.oid)
        elif event == "delete":
            key = obj.state.get(info.attribute)
            if key is not None:
                index.delete(key, obj.oid)
        elif event == "update" and old_key != new_key:
            if old_key is not None:
                index.delete(old_key, obj.oid)
            if new_key is not None:
                index.insert(new_key, obj.oid)

    def _maintain_join(self, info: IndexInfo, event: str,
                       obj: MoodObject, old_state) -> None:
        join_index = self.join_indexes[info.name]
        new_targets = set(_ref_oids(obj.state.get(info.attribute)))
        old_targets = set(
            _ref_oids(old_state.get(info.attribute)) if old_state else []
        )
        if event == "insert":
            added, removed = new_targets, set()
        elif event == "delete":
            added, removed = set(), new_targets
        else:
            added = new_targets - old_targets
            removed = old_targets - new_targets
        for target in removed:
            join_index.forward.delete(obj.oid, target)
        for target in added:
            join_index.forward.insert(obj.oid, target)

    def _maintain_path(self, info: IndexInfo, event: str,
                       obj: MoodObject, old_state) -> None:
        """Head-class maintenance of a path index.  Interior-class changes
        are not tracked; probes re-verify and rebuild_path_index refreshes."""
        path_index = self.path_indexes[info.name]
        if event in ("delete", "update"):
            state = old_state if event == "update" else obj.state
            stale = MoodObject(obj.oid, obj.class_name, state)
            for value in self._path_values(stale, path_index.path_attrs):
                if value is not None:
                    path_index.tree.delete(value, obj.oid)
        if event in ("insert", "update"):
            for value in self._path_values(obj, path_index.path_attrs):
                if value is not None:
                    path_index.tree.insert(value, obj.oid)


def _remap_entries(index, mapping: dict[OID, OID]) -> int:
    """Delete/re-insert every ``(key, value)`` of ``index`` touched by the
    OID ``mapping``; works over any index exposing items/delete/insert."""
    stale = []
    for key, value in index.items():
        new_key = mapping.get(key, key) if isinstance(key, OID) else key
        new_value = (
            mapping.get(value, value) if isinstance(value, OID) else value
        )
        if new_key is not key or new_value is not value:
            stale.append((key, value, new_key, new_value))
    for key, value, new_key, new_value in stale:
        index.delete(key, value)
        index.insert(new_key, new_value)
    return len(stale)


def _ref_oids(value) -> list[OID]:
    if isinstance(value, OID):
        return [] if value.is_null else [value]
    if isinstance(value, (set, frozenset)):
        return [oid for oid in sorted(value) if isinstance(oid, OID)]
    if isinstance(value, list):
        return [oid for oid in value if isinstance(oid, OID)]
    return []
