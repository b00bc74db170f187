"""The optimizer's selection dictionaries (Section 7, Tables 11-12).

* ``ImmSelInfo``: immediate selections -- range variable, predicate,
  selectivity, indexed access cost, sequential access cost, access type.
* ``PathSelInfo``: path selections -- range variable, predicate,
  selectivity, forward traversal cost (plus the derived ``F/(1-s)`` rank
  the Table 16 example prints).
* ``OtherSelInfo``: methods and complex predicates, with the same columns
  as ImmSelInfo (the paper: "The data structure for this dictionary is also
  the same as that of ImmSelInfo").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sql.ast import Expr


@dataclass
class ImmSelEntry:
    """One row of ImmSelInfo (Table 11)."""

    range_var: str
    predicate: Expr
    selectivity: float
    indexed_access_cost: float | None = None   # None: no usable index
    sequential_access_cost: float = 0.0
    access_type: str = "sequential"             # "indexed" | "sequential"
    index_name: str | None = None
    index_kind: str | None = None

    def row(self) -> tuple:
        return (
            self.range_var,
            str(self.predicate),
            self.selectivity,
            self.indexed_access_cost,
            self.sequential_access_cost,
            self.access_type,
        )


@dataclass
class PathSelEntry:
    """One row of PathSelInfo (Table 12; Table 16 adds the rank column)."""

    range_var: str
    predicate: Expr
    selectivity: float
    forward_traversal_cost: float

    @property
    def rank(self) -> float:
        """F / (1 - s): the Algorithm 8.1 ordering key."""
        if self.selectivity >= 1.0:
            return float("inf")
        return self.forward_traversal_cost / (1.0 - self.selectivity)

    def row(self) -> tuple:
        return (
            self.range_var,
            str(self.predicate),
            self.selectivity,
            self.forward_traversal_cost,
            self.rank,
        )


@dataclass
class OtherSelEntry:
    """One row of OtherSelInfo: methods and complex predicates."""

    range_var: str
    predicate: Expr
    selectivity: float
    indexed_access_cost: float | None = None
    sequential_access_cost: float = 0.0
    access_type: str = "sequential"

    def row(self) -> tuple:
        return (
            self.range_var,
            str(self.predicate),
            self.selectivity,
            self.indexed_access_cost,
            self.sequential_access_cost,
            self.access_type,
        )


@dataclass
class SelectionDictionaries:
    """All three dictionaries for one AND-term."""

    imm: list[ImmSelEntry] = field(default_factory=list)
    path: list[PathSelEntry] = field(default_factory=list)
    other: list[OtherSelEntry] = field(default_factory=list)

    def path_for(self, range_var: str) -> list[PathSelEntry]:
        return [e for e in self.path if e.range_var == range_var]

    def other_for(self, range_var: str) -> list[OtherSelEntry]:
        return [e for e in self.other if e.range_var == range_var]


_IMM_HEADER = (
    "Range Variable", "Predicate", "Selectivity",
    "Indexed Access Cost", "Sequential Access Cost", "Access Type",
)
_PATH_HEADER = (
    "Range Variable", "Predicate", "Selectivity",
    "Forward Traversal Cost", "cost/(1-fs)",
)


def format_table(header: tuple[str, ...], rows: list[tuple]) -> str:
    """Plain-text table renderer used by the Table 11/12/16 benchmarks."""
    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            if 0 < abs(value) < 0.1:
                return f"{value:.2e}"  # the paper's 6.25e-2 style
            return f"{value:.3f}"
        return str(value)

    table = [list(header)] + [[cell(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if index == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def format_immselinfo(entries: list[ImmSelEntry]) -> str:
    return format_table(_IMM_HEADER, [e.row() for e in entries])


def format_pathselinfo(entries: list[PathSelEntry]) -> str:
    return format_table(_PATH_HEADER, [e.row() for e in entries])
