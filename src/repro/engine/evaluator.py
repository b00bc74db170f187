"""Run-time expression evaluation.

The MOODSQL interpreter evaluates arithmetic and Boolean expressions over
:class:`OperandDataType` operands (Section 2), traverses path expressions
by dereferencing stored references, and dispatches method calls through the
Function Manager (late binding).

Path semantics over set/list-valued steps are existential: a comparison is
true when *some* combination of reached values satisfies it -- the standard
OODB reading of ``v.children.age > 10``.  Null references prune the path;
comparisons against NULL are false.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

from repro.core.errors import ExecutionError, TypeMismatchError
from repro.engine.objects import ObjectManager
from repro.functions.manager import FunctionManager
from repro.model.objects import MoodObject
from repro.model.operand import OperandDataType
from repro.sql.ast import (
    Between,
    BinOp,
    BoolOp,
    COMPARISON_OPS,
    Expr,
    InList,
    Literal,
    MethodCall,
    Not,
    Path,
    UnaryMinus,
)
from repro.storage.oid import OID

Row = dict[str, MoodObject]


class ExpressionEvaluator:
    """Evaluates MOODSQL expressions against a row of variable bindings."""

    def __init__(self, objects: ObjectManager,
                 functions: FunctionManager | None = None):
        self.objects = objects
        self.functions = functions

    # -- public API ---------------------------------------------------------

    def values(self, expr: Expr, row: Row) -> list[Any]:
        """All values an expression denotes (paths may fan out over
        set-valued steps); scalars come back as one-element lists."""
        return self._eval(expr, row)

    def value(self, expr: Expr, row: Row) -> Any:
        """The single value of an expression; multi-valued results stay a
        list (for projections of set-valued paths)."""
        result = self._eval(expr, row)
        if len(result) == 1:
            return result[0]
        return result

    def predicate(self, expr: Expr, row: Row) -> bool:
        """Truth of a predicate (existential over multi-valued paths;
        NULL-involving comparisons are false)."""
        try:
            result = self._eval(expr, row)
        except TypeMismatchError as exc:
            raise ExecutionError(f"ill-typed predicate {expr}: {exc}") from exc
        return any(value is True for value in result) if result else False

    # -- batch API ----------------------------------------------------------

    def filter_batch(
        self, predicates: Iterable[Expr], rows: Sequence[Row],
    ) -> list[Row]:
        """Rows satisfying every predicate -- the batch form of SELECT.

        The paths the predicates chase are prefetched across the whole
        batch first (:meth:`prefetch`); evaluation itself stays per-row,
        so results are bit-identical to the one-at-a-time path.
        """
        predicates = tuple(predicates)
        if not predicates:
            return list(rows)
        self.prefetch(predicates, rows)
        return [
            row for row in rows
            if all(self.predicate(p, row) for p in predicates)
        ]

    def prefetch(
        self, exprs: Iterable[Expr], rows: Sequence[Row],
    ) -> None:
        """Warm every path of ``exprs`` across ``rows`` through
        :meth:`ObjectManager.warm`, which decides whether a prefetch pays
        (with the cache off it charges nothing)."""
        if len(rows) < 2:
            return
        paths: list[Path] = []
        for expr in exprs:
            _collect_paths(expr, paths)
        for path in paths:
            self.objects.warm(
                [row[path.var] for row in rows if path.var in row],
                path.attrs,
            )

    # -- dispatch ------------------------------------------------------------

    def _eval(self, expr: Expr, row: Row) -> list[Any]:
        if isinstance(expr, Literal):
            return [expr.value]
        if isinstance(expr, Path):
            return self._eval_path(expr, row)
        if isinstance(expr, MethodCall):
            return self._eval_method(expr, row)
        if isinstance(expr, BinOp):
            if expr.op in COMPARISON_OPS:
                return self._eval_comparison(expr, row)
            return self._eval_arithmetic(expr, row)
        if isinstance(expr, UnaryMinus):
            return [
                None if value is None
                else (-OperandDataType.of(value)).value
                for value in self._eval(expr.operand, row)
            ]
        if isinstance(expr, Not):
            return [not self.predicate(expr.operand, row)]
        if isinstance(expr, BoolOp):
            if expr.op == "AND":
                return [all(self.predicate(item, row) for item in expr.items)]
            return [any(self.predicate(item, row) for item in expr.items)]
        if isinstance(expr, Between):
            values = self._eval(expr.expr, row)
            lows = self._eval(expr.low, row)
            highs = self._eval(expr.high, row)
            return [
                any(
                    value is not None and low is not None and high is not None
                    and low <= value <= high
                    for low in lows
                    for high in highs
                )
                for value in values
            ]
        if isinstance(expr, InList):
            values = self._eval(expr.expr, row)
            members = [v for item in expr.items for v in self._eval(item, row)]
            return [
                any(self._equal(value, member) for member in members)
                for value in values
            ]
        raise ExecutionError(f"cannot evaluate {expr!r}")

    # -- paths -------------------------------------------------------------

    def _eval_path(self, path: Path, row: Row) -> list[Any]:
        if path.var not in row:
            raise ExecutionError(f"unbound range variable {path.var!r}")
        current: list[Any] = [row[path.var]]
        for attribute in path.attrs:
            resolved = self._resolve_references(current)
            next_values: list[Any] = []
            for value in current:
                obj = self._as_object(value, resolved)
                if obj is None:
                    continue
                attr_value = obj.state.get(attribute)
                if isinstance(attr_value, (set, frozenset)):
                    next_values.extend(sorted(attr_value, key=repr))
                elif isinstance(attr_value, list):
                    next_values.extend(attr_value)
                else:
                    next_values.append(attr_value)
            current = next_values
        return current

    def _resolve_references(self, values: list[Any]) -> dict | None:
        """Dereference one path step's OIDs with one ``deref_many`` when
        there are two or more; ``None`` means chase the single OID with
        ``deref`` (which records it as a single chase, not a frontier)."""
        oids = [v for v in values if isinstance(v, OID) and not v.is_null]
        if len(oids) < 2:
            return None
        return dict(zip(oids, self.objects.deref_many(oids)))

    def _as_object(self, value: Any,
                   resolved: dict | None = None) -> MoodObject | None:
        if isinstance(value, MoodObject):
            return value
        if isinstance(value, OID):
            if value.is_null:
                return None
            if resolved is not None:
                return resolved[value]
            return self.objects.deref(value)
        if value is None:
            return None
        raise ExecutionError(
            f"cannot traverse an attribute of non-object value {value!r}"
        )

    # -- methods ------------------------------------------------------------

    def _eval_method(self, call: MethodCall, row: Row) -> list[Any]:
        if self.functions is None:
            raise ExecutionError(
                f"no function manager available for {call.method!r}"
            )
        receivers = self._eval_path(call.receiver, row)
        args = [self.value(arg, row) for arg in call.args]
        results: list[Any] = []
        for receiver in receivers:
            obj = self._as_object(receiver)
            if obj is None:
                continue
            results.append(
                self.functions.invoke(obj, call.method, args,
                                      resolve=self.objects.deref)
            )
        return results

    # -- comparisons and arithmetic --------------------------------------------

    def _eval_comparison(self, expr: BinOp, row: Row) -> list[bool]:
        lefts = self._eval(expr.left, row)
        rights = self._eval(expr.right, row)
        return [
            self._compare(expr.op, left, right)
            for left in lefts
            for right in rights
        ]

    def _compare(self, op: str, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        left = self._comparable(left)
        right = self._comparable(right)
        if isinstance(left, OID) or isinstance(right, OID):
            if op == "=":
                return left == right
            if op == "<>":
                return left != right
            raise ExecutionError(f"references only compare with = and <> ")
        result = OperandDataType.of(left)._compare(
            OperandDataType.of(right), op
        )
        return bool(result.value)

    @staticmethod
    def _comparable(value: Any) -> Any:
        if isinstance(value, MoodObject):
            return value.oid
        return value

    def _equal(self, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        return self._comparable(left) == self._comparable(right)

    def _eval_arithmetic(self, expr: BinOp, row: Row) -> list[Any]:
        lefts = self._eval(expr.left, row)
        rights = self._eval(expr.right, row)
        results: list[Any] = []
        for left in lefts:
            for right in rights:
                if left is None or right is None:
                    results.append(None)
                    continue
                operand = OperandDataType.of(left)._arith(
                    OperandDataType.of(right), expr.op
                )
                results.append(operand.value)
        return results


def _collect_paths(node: Any, out: list[Path]) -> None:
    """Every :class:`Path` reachable in an expression tree (including
    method-call receivers and arguments), for batch prefetching."""
    if isinstance(node, Path):
        out.append(node)
        return
    if isinstance(node, (tuple, list)):
        for item in node:
            _collect_paths(item, out)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            _collect_paths(getattr(node, field.name), out)
