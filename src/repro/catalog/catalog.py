"""The persistent catalog.

Section 2: *"The catalog contains the definition of classes, types, and
member functions in a structure similar to a compiler symbol table."*
Figure 2.2 shows it stored on ESM as system extents of MoodsType,
MoodsAttribute and MoodsFunction rows; this class persists exactly those
extents on the storage manager and keeps the in-memory symbol table
(:class:`~repro.catalog.schema.ClassHierarchy`) in sync.

Also managed here, because MOOD stores them through the same mechanism:
named objects (the algebra's ``Bind`` names), per-class extent files, and
secondary-index metadata that the optimizer consults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.entities import MoodsAttribute, MoodsFunction, MoodsType
from repro.catalog.schema import ClassDefinition, ClassHierarchy
from repro.catalog.typeparse import parse_type
from repro.core.errors import (
    CatalogError,
    SchemaError,
)
from repro.model.serde import decode, encode
from repro.model.types import MoodType, TupleType, TypeRegistry
from repro.storage.file import StorageFile
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


@dataclass(frozen=True)
class IndexInfo:
    """Metadata of one secondary index (the optimizer's view of it)."""

    name: str
    class_name: str
    attribute: str
    kind: str          # "btree" or "hash"
    unique: bool


class Catalog:
    """Persistent symbol table over the storage manager."""

    _TYPES = "_MoodsType"
    _ATTRS = "_MoodsAttribute"
    _FUNCS = "_MoodsFunction"
    _NAMES = "_NamedObjects"
    _INDEXES = "_Indexes"

    def __init__(self, storage: StorageManager):
        self.storage = storage
        #: Monotonic counter bumped by every schema mutation (class,
        #: attribute, function, index DDL and catalog reloads).  Compiled
        #: plans are stamped with it; the plan cache refuses any entry
        #: whose stamp no longer matches.
        self.schema_version = 0
        self.registry = TypeRegistry()
        self.hierarchy = ClassHierarchy()
        self._named: dict[str, OID] = {}
        self._indexes: dict[str, IndexInfo] = {}
        # Row OIDs so updates/deletes can address the stored records.
        self._type_rows: dict[str, OID] = {}
        self._attr_rows: dict[tuple[str, str], OID] = {}
        self._func_rows: dict[str, OID] = {}
        self._name_rows: dict[str, OID] = {}
        self._index_rows: dict[str, OID] = {}
        self._open_system_files()
        self.reload()

    def _open_system_files(self) -> None:
        from repro.core.errors import FileNotFoundStorageError

        for name in (self._TYPES, self._ATTRS, self._FUNCS, self._NAMES,
                     self._INDEXES):
            try:
                self.storage.file_by_name(name)
            except FileNotFoundStorageError:
                self.storage.create_file(name)

    def _system_file(self, name: str) -> StorageFile:
        return self.storage.file_by_name(name)

    def _schema_changed(self) -> None:
        self.schema_version += 1

    # -- loading -------------------------------------------------------------

    def reload(self) -> None:
        """Rebuild the in-memory symbol table from the stored extents."""
        self.registry = TypeRegistry()
        self.hierarchy = ClassHierarchy()
        self._named = {}
        self._indexes = {}
        self._type_rows = {}
        self._attr_rows = {}
        self._func_rows = {}
        self._name_rows = {}
        self._index_rows = {}

        attr_rows: dict[str, list[MoodsAttribute]] = {}
        for oid, payload in self._system_file(self._ATTRS).scan():
            attribute = MoodsAttribute.from_record(decode(payload))
            attr_rows.setdefault(attribute.owner, []).append(attribute)
            self._attr_rows[(attribute.owner, attribute.name)] = oid
        for attributes in attr_rows.values():
            attributes.sort(key=lambda a: a.position)

        func_rows: dict[str, list[MoodsFunction]] = {}
        for oid, payload in self._system_file(self._FUNCS).scan():
            function = MoodsFunction.from_record(decode(payload))
            func_rows.setdefault(function.owner, []).append(function)
            self._func_rows[function.signature] = oid

        pending: list[tuple[OID, MoodsType]] = []
        for oid, payload in self._system_file(self._TYPES).scan():
            pending.append((oid, MoodsType.from_record(decode(payload))))
        # Topological insertion: a class needs its superclasses first.
        progress = True
        while pending and progress:
            progress = False
            remaining = []
            for oid, row in pending:
                if all(s in self.hierarchy for s in row.superclasses):
                    self._install(row, attr_rows.get(row.name, []),
                                  func_rows.get(row.name, []))
                    self._type_rows[row.name] = oid
                    progress = True
                else:
                    remaining.append((oid, row))
            pending = remaining
        if pending:
            names = [row.name for _, row in pending]
            raise CatalogError(f"catalog is inconsistent; orphans: {names}")

        for oid, payload in self._system_file(self._NAMES).scan():
            record = decode(payload)
            self._named[record["name"]] = record["oid"]
            self._name_rows[record["name"]] = oid

        for oid, payload in self._system_file(self._INDEXES).scan():
            record = decode(payload)
            info = IndexInfo(
                name=record["name"],
                class_name=record["class_name"],
                attribute=record["attribute"],
                kind=record["kind"],
                unique=record["unique"],
            )
            self._indexes[info.name] = info
            self._index_rows[info.name] = oid
        self._schema_changed()

    def _install(
        self,
        row: MoodsType,
        attributes: list[MoodsAttribute],
        functions: list[MoodsFunction],
    ) -> None:
        definition = ClassDefinition(
            name=row.name,
            type_id=row.type_id,
            is_class=row.is_class,
            superclasses=list(row.superclasses),
            attributes=attributes,
            methods=functions,
            is_system=row.is_system,
        )
        self.hierarchy.add(definition)
        own_tuple = TupleType(
            tuple((a.name, parse_type(a.type_name)) for a in attributes)
        )
        self.registry.register(own_tuple, name=row.name)

    # -- class definition -------------------------------------------------------

    def define_class(
        self,
        name: str,
        attributes: list[tuple[str, str]] | None = None,
        superclasses: list[str] | None = None,
        methods: list[MoodsFunction] | None = None,
        is_class: bool = True,
        is_system: bool = False,
    ) -> ClassDefinition:
        """Define a class (with extent) or a plain type (without).

        ``attributes`` are ``(name, textual type)`` pairs in declaration
        order; ``methods`` carry signature info (+ optional source) exactly
        as the paper's catalog keeps them.
        """
        if name in self.hierarchy:
            raise SchemaError(f"class {name!r} already defined")
        attributes = attributes or []
        superclasses = superclasses or []
        methods = methods or []
        attr_entities = [
            MoodsAttribute(owner=name, name=attr_name, type_name=type_text,
                           position=position)
            for position, (attr_name, type_text) in enumerate(attributes)
        ]
        for attribute in attr_entities:
            parse_type(attribute.type_name)  # validate eagerly
        own_tuple = TupleType(
            tuple((a.name, parse_type(a.type_name)) for a in attr_entities)
        )
        type_id = self.registry.register(own_tuple, name=name)
        row = MoodsType(name=name, type_id=type_id, is_class=is_class,
                        superclasses=list(superclasses), is_system=is_system)
        definition = ClassDefinition(
            name=name,
            type_id=type_id,
            is_class=is_class,
            superclasses=list(superclasses),
            attributes=attr_entities,
            methods=list(methods),
            is_system=is_system,
        )
        self.hierarchy.add(definition)  # validates DAG + attribute conflicts
        # Persist.
        self._type_rows[name] = self._system_file(self._TYPES).insert(
            encode(row.to_record())
        )
        for attribute in attr_entities:
            self._attr_rows[(name, attribute.name)] = self._system_file(
                self._ATTRS
            ).insert(encode(attribute.to_record()))
        for method in methods:
            self._func_rows[method.signature] = self._system_file(
                self._FUNCS
            ).insert(encode(method.to_record()))
        if is_class:
            self.storage.create_file(self.extent_file_name(name))
        self._schema_changed()
        return definition

    def drop_class(self, name: str) -> None:
        definition = self.hierarchy.get(name)
        self.hierarchy.remove(name)  # refuses while subclasses exist
        types_file = self._system_file(self._TYPES)
        types_file.delete(self._type_rows.pop(name))
        attrs_file = self._system_file(self._ATTRS)
        for attribute in definition.attributes:
            attrs_file.delete(self._attr_rows.pop((name, attribute.name)))
        funcs_file = self._system_file(self._FUNCS)
        for method in definition.methods:
            funcs_file.delete(self._func_rows.pop(method.signature))
        if definition.is_class:
            extent = self.storage.file_by_name(self.extent_file_name(name))
            self.storage.drop_file(extent.file_id)
        for info in list(self._indexes.values()):
            if info.class_name == name:
                self.drop_index(info.name)
        self._schema_changed()

    # -- schema evolution (MoodView's class designer) ------------------------------

    def add_attribute(self, class_name: str, attr_name: str, type_text: str) -> None:
        definition = self.hierarchy.get(class_name)
        if self.hierarchy.has_attribute(class_name, attr_name):
            raise SchemaError(
                f"{class_name!r} already has attribute {attr_name!r}"
            )
        parse_type(type_text)
        attribute = MoodsAttribute(
            owner=class_name, name=attr_name, type_name=type_text,
            position=len(definition.attributes),
        )
        definition.attributes.append(attribute)
        self._attr_rows[(class_name, attr_name)] = self._system_file(
            self._ATTRS
        ).insert(encode(attribute.to_record()))
        self._schema_changed()

    def drop_attribute(self, class_name: str, attr_name: str) -> None:
        definition = self.hierarchy.get(class_name)
        attribute = definition.own_attribute(attr_name)
        if attribute is None:
            raise SchemaError(
                f"{class_name!r} has no own attribute {attr_name!r}"
            )
        definition.attributes.remove(attribute)
        self._system_file(self._ATTRS).delete(
            self._attr_rows.pop((class_name, attr_name))
        )
        self._schema_changed()

    def rename_attribute(self, class_name: str, old: str, new: str) -> None:
        definition = self.hierarchy.get(class_name)
        attribute = definition.own_attribute(old)
        if attribute is None:
            raise SchemaError(f"{class_name!r} has no own attribute {old!r}")
        if self.hierarchy.has_attribute(class_name, new):
            raise SchemaError(f"{class_name!r} already has attribute {new!r}")
        attribute.name = new
        oid = self._attr_rows.pop((class_name, old))
        self._system_file(self._ATTRS).update(oid, encode(attribute.to_record()))
        self._attr_rows[(class_name, new)] = oid
        self._schema_changed()

    def retype_attribute(self, class_name: str, attr_name: str, type_text: str) -> None:
        definition = self.hierarchy.get(class_name)
        attribute = definition.own_attribute(attr_name)
        if attribute is None:
            raise SchemaError(
                f"{class_name!r} has no own attribute {attr_name!r}"
            )
        parse_type(type_text)
        attribute.type_name = type_text
        oid = self._attr_rows[(class_name, attr_name)]
        self._system_file(self._ATTRS).update(oid, encode(attribute.to_record()))
        self._schema_changed()

    # -- member functions ---------------------------------------------------

    def define_function(self, function: MoodsFunction) -> None:
        self.hierarchy.get(function.owner)
        if function.signature in self._func_rows:
            raise SchemaError(f"function {function.signature} already defined")
        self.hierarchy.get(function.owner).methods.append(function)
        self._func_rows[function.signature] = self._system_file(
            self._FUNCS
        ).insert(encode(function.to_record()))
        self._schema_changed()

    def update_function(self, function: MoodsFunction) -> None:
        if function.signature not in self._func_rows:
            raise SchemaError(f"function {function.signature} not defined")
        definition = self.hierarchy.get(function.owner)
        existing = definition.own_method(function.name)
        if existing is not None:
            definition.methods.remove(existing)
        definition.methods.append(function)
        self._system_file(self._FUNCS).update(
            self._func_rows[function.signature], encode(function.to_record())
        )
        self._schema_changed()

    def drop_function(self, signature: str) -> None:
        if signature not in self._func_rows:
            raise SchemaError(f"function {signature} not defined")
        owner = signature.split("::", 1)[0]
        definition = self.hierarchy.get(owner)
        definition.methods = [
            m for m in definition.methods if m.signature != signature
        ]
        self._system_file(self._FUNCS).delete(self._func_rows.pop(signature))
        self._schema_changed()

    def function_by_signature(self, signature: str) -> MoodsFunction:
        """Locate a function row by the signature the interpreter builds
        (class + parameter types), searching up the hierarchy for
        inherited implementations."""
        owner, rest = signature.split("::", 1)
        for class_name in self.hierarchy.linearize(owner):
            candidate = f"{class_name}::{rest}"
            if candidate in self._func_rows:
                payload = self._system_file(self._FUNCS).read(
                    self._func_rows[candidate]
                )
                return MoodsFunction.from_record(decode(payload))
        raise CatalogError(f"no function with signature {signature!r}")

    # -- lookups ---------------------------------------------------------------

    def class_def(self, name: str) -> ClassDefinition:
        return self.hierarchy.get(name)

    def has_class(self, name: str) -> bool:
        return name in self.hierarchy

    def class_names(self, include_system: bool = False) -> list[str]:
        return [
            definition.name
            for definition in self.hierarchy.definitions()
            if include_system or not definition.is_system
        ]

    def attribute_type(self, class_name: str, attr_name: str) -> MoodType:
        return self.hierarchy.attribute_type(class_name, attr_name)

    def validator_for(self, class_name: str) -> TupleType:
        """Tuple type over *all* (inherited + own) attributes of a class."""
        return TupleType(
            tuple(
                (attribute.name, parse_type(attribute.type_name))
                for attribute in self.hierarchy.all_attributes(class_name)
            )
        )

    def type_id(self, type_name: str) -> int:
        return self.registry.type_id(type_name)

    def type_name(self, type_id: int) -> str:
        return self.registry.type_name(type_id)

    # -- extents ----------------------------------------------------------------

    @staticmethod
    def extent_file_name(class_name: str) -> str:
        return f"extent_{class_name}"

    def extent_file(self, class_name: str) -> StorageFile:
        definition = self.hierarchy.get(class_name)
        if not definition.is_class:
            raise CatalogError(f"{class_name!r} is a type; it has no extent")
        return self.storage.file_by_name(self.extent_file_name(class_name))

    # -- named objects -------------------------------------------------------------

    def bind_name(self, name: str, oid: OID) -> None:
        record = encode({"name": name, "oid": oid})
        if name in self._named:
            self._system_file(self._NAMES).update(self._name_rows[name], record)
        else:
            self._name_rows[name] = self._system_file(self._NAMES).insert(record)
        self._named[name] = oid

    def lookup_name(self, name: str) -> OID:
        try:
            return self._named[name]
        except KeyError:
            raise CatalogError(f"no named object {name!r}") from None

    def unbind_name(self, name: str) -> None:
        if name not in self._named:
            raise CatalogError(f"no named object {name!r}")
        self._system_file(self._NAMES).delete(self._name_rows.pop(name))
        del self._named[name]

    def named_objects(self) -> dict[str, OID]:
        return dict(self._named)

    def follow_moves(self, mapping: dict[OID, OID]) -> None:
        """Re-point in-memory name bindings at relocated objects; the
        stored binding records are rewritten like any other reference."""
        for name, oid in self._named.items():
            if oid in mapping:
                self._named[name] = mapping[oid]

    # -- index metadata ---------------------------------------------------------

    def define_index(
        self,
        name: str,
        class_name: str,
        attribute: str,
        kind: str = "btree",
        unique: bool = False,
    ) -> IndexInfo:
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already defined")
        if kind not in ("btree", "hash", "join", "path"):
            raise CatalogError(f"unknown index kind {kind!r}")
        if kind == "path":
            # The attribute is a dotted path (a1.a2...am); the index
            # manager validates the chain against the schema.
            if "." not in attribute:
                raise CatalogError(
                    "path indexes take a dotted path (e.g. "
                    "drivetrain.engine.cylinders)"
                )
        else:
            self.hierarchy.attribute(class_name, attribute)  # must exist
        info = IndexInfo(name, class_name, attribute, kind, unique)
        self._indexes[name] = info
        self._index_rows[name] = self._system_file(self._INDEXES).insert(
            encode(
                {
                    "name": name,
                    "class_name": class_name,
                    "attribute": attribute,
                    "kind": kind,
                    "unique": unique,
                }
            )
        )
        self._schema_changed()
        return info

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"no index {name!r}")
        self._system_file(self._INDEXES).delete(self._index_rows.pop(name))
        del self._indexes[name]
        self._schema_changed()

    def index_info(self, name: str) -> IndexInfo:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name!r}") from None

    def indexes_on(self, class_name: str, attribute: str | None = None) -> list[IndexInfo]:
        return sorted(
            (
                info
                for info in self._indexes.values()
                if info.class_name == class_name
                and (attribute is None or info.attribute == attribute)
            ),
            key=lambda info: info.name,
        )

    def all_indexes(self) -> list[IndexInfo]:
        return sorted(self._indexes.values(), key=lambda info: info.name)
