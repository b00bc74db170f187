"""Cost model parameters (Section 4, Tables 8-10).

:class:`DatabaseStats` is the statistics the optimizer consults -- the
paper's Table 8 parameters per class/attribute, with the derived quantities

.. math::

    totlinks(A,C,D) = fan(A,C,D) \\cdot |C|
    \\qquad
    hitprb(A,C,D) = totref(A,C,D) / |D|

Table 9 (B+-tree parameters) is carried by
:class:`repro.storage.btree.BTreeParams`; Table 10 (disk parameters) by
:class:`repro.storage.disk.DiskParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import OptimizerError
from repro.storage.file import StorageFile


@dataclass
class ClassCard:
    """Per-class statistics: |C|, nbpages(C), size(C).  A measured card
    keeps its extent file and reads |C| and nbpages(C) live from it."""

    count: int
    nbpages: int
    size: int
    extent: StorageFile | None = None


@dataclass
class AttrStats:
    """Per atomic attribute: dist, max, min, notnull (Table 8)."""

    dist: int
    max: float | None = None
    min: float | None = None
    notnull: float = 1.0


@dataclass
class RefStats:
    """Per reference attribute A of class C targeting class D."""

    target: str
    fan: float          # avg D instances referenced per C instance
    totref: int         # distinct D objects referenced by at least one C


@dataclass
class DatabaseStats:
    """The statistics catalog the cost model reads (Table 8 accessors)."""

    classes: dict[str, ClassCard] = field(default_factory=dict)
    attributes: dict[tuple[str, str], AttrStats] = field(default_factory=dict)
    references: dict[tuple[str, str], RefStats] = field(default_factory=dict)
    #: Statistics-version stamp: every collection (whole base or one
    #: class) gets a fresh monotonic version, and compiled plans carry the
    #: stamp they were costed under so the plan cache can refuse stale
    #: entries.
    version: int = 0

    # -- setters ----------------------------------------------------------

    def set_class(self, name: str, count: int, nbpages: int, size: int) -> None:
        self.classes[name] = ClassCard(count, nbpages, size)

    def set_attribute(self, class_name: str, attr: str, dist: int,
                      max_value: float | None = None,
                      min_value: float | None = None,
                      notnull: float = 1.0) -> None:
        self.attributes[(class_name, attr)] = AttrStats(
            dist, max_value, min_value, notnull
        )

    def set_reference(self, class_name: str, attr: str, target: str,
                      fan: float, totref: int) -> None:
        self.references[(class_name, attr)] = RefStats(target, fan, totref)

    # -- Table 8 accessors -----------------------------------------------------

    def card(self, class_name: str) -> int:
        """|C|: total number of instances of C."""
        card = self._class(class_name)
        return card.count if card.extent is None \
            else card.extent.record_count()

    def nbpages(self, class_name: str) -> int:
        card = self._class(class_name)
        return card.nbpages if card.extent is None else card.extent.nbpages()

    def size(self, class_name: str) -> int:
        return self._class(class_name).size

    def notnull(self, attr: str, class_name: str) -> float:
        return self._attr(class_name, attr).notnull

    def dist(self, attr: str, class_name: str) -> int:
        return self._attr(class_name, attr).dist

    def max(self, attr: str, class_name: str) -> float | None:
        return self._attr(class_name, attr).max

    def min(self, attr: str, class_name: str) -> float | None:
        return self._attr(class_name, attr).min

    def fan(self, attr: str, class_name: str, target: str | None = None) -> float:
        return self._ref(class_name, attr, target).fan

    def totref(self, attr: str, class_name: str, target: str | None = None) -> int:
        return self._ref(class_name, attr, target).totref

    def totlinks(self, attr: str, class_name: str,
                 target: str | None = None) -> float:
        """totlinks(A, C, D) = fan(A, C, D) * |C|."""
        return self.fan(attr, class_name, target) * self.card(class_name)

    def hitprb(self, attr: str, class_name: str,
               target: str | None = None) -> float:
        """hitprb(A, C, D) = totref(A, C, D) / |D|."""
        ref = self._ref(class_name, attr, target)
        target_count = self.card(ref.target)
        if target_count == 0:
            return 0.0
        return ref.totref / target_count

    def ref_target(self, attr: str, class_name: str) -> str:
        return self._ref(class_name, attr, None).target

    def has_attribute(self, class_name: str, attr: str) -> bool:
        return (class_name, attr) in self.attributes

    def has_class(self, class_name: str) -> bool:
        return class_name in self.classes

    # -- internals --------------------------------------------------------------

    def _class(self, class_name: str) -> ClassCard:
        try:
            return self.classes[class_name]
        except KeyError:
            raise OptimizerError(
                f"no statistics for class {class_name!r}; run ANALYZE"
            ) from None

    def _attr(self, class_name: str, attr: str) -> AttrStats:
        try:
            return self.attributes[(class_name, attr)]
        except KeyError:
            raise OptimizerError(
                f"no statistics for {class_name}.{attr}; run ANALYZE"
            ) from None

    def _ref(self, class_name: str, attr: str, target: str | None) -> RefStats:
        try:
            ref = self.references[(class_name, attr)]
        except KeyError:
            raise OptimizerError(
                f"no reference statistics for {class_name}.{attr}"
            ) from None
        if target is not None and ref.target != target:
            raise OptimizerError(
                f"{class_name}.{attr} references {ref.target!r}, "
                f"not {target!r}"
            )
        return ref
