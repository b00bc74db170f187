"""The MOOD type system.

Section 2 / Section 3.1: *"the basic types are Integer, Float, LongInteger,
String, Char, and Boolean.  Any complex data type is defined using these
types and by the recursive application of the Tuple, Set, List and Reference
type constructors."*

Types are immutable descriptors.  Structural equality holds
(``SetType(INTEGER) == SetType(INTEGER)``), and the :class:`TypeRegistry`
assigns the paper's unique type identifiers, exposing the two kernel
functions ``typeId(typeName)`` and ``typeName(typeId)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import TypeMismatchError, UnknownTypeError
from repro.storage.oid import NULL_OID, OID


class MoodType:
    """Abstract base of all MOOD type descriptors."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    def validate(self, value):
        """Check (and canonicalise) a Python value against this type.

        Returns the canonical value or raises :class:`TypeMismatchError`.
        ``None`` is accepted everywhere: MOOD attributes may be null (the
        cost model's ``notnull(A, C)`` measures how often they are not).
        """
        raise NotImplementedError

    def default(self):
        """The default value instances start with."""
        return None

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<MoodType {self.name}>"


# --------------------------------------------------------------------------
# Basic types
# --------------------------------------------------------------------------

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class IntegerType(MoodType):
    """32-bit Integer."""

    @property
    def name(self) -> str:
        return "Integer"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"{value!r} is not an Integer")
        if not _INT32_MIN <= value <= _INT32_MAX:
            raise TypeMismatchError(f"{value} out of Integer range")
        return value

    def default(self):
        return 0


@dataclass(frozen=True)
class LongIntegerType(MoodType):
    """64-bit LongInteger."""

    @property
    def name(self) -> str:
        return "LongInteger"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatchError(f"{value!r} is not a LongInteger")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise TypeMismatchError(f"{value} out of LongInteger range")
        return value

    def default(self):
        return 0


@dataclass(frozen=True)
class FloatType(MoodType):
    @property
    def name(self) -> str:
        return "Float"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError("Boolean is not a Float")
        if isinstance(value, int):
            return float(value)
        if not isinstance(value, float):
            raise TypeMismatchError(f"{value!r} is not a Float")
        return value

    def default(self):
        return 0.0


@dataclass(frozen=True)
class StringType(MoodType):
    """String, optionally bounded as in the paper's ``String(32)``."""

    max_length: int | None = None

    @property
    def name(self) -> str:
        if self.max_length is None:
            return "String"
        return f"String({self.max_length})"

    def validate(self, value):
        if value is None:
            return None
        if not isinstance(value, str):
            raise TypeMismatchError(f"{value!r} is not a String")
        if self.max_length is not None and len(value) > self.max_length:
            raise TypeMismatchError(
                f"string of length {len(value)} exceeds String({self.max_length})"
            )
        return value

    def default(self):
        return ""


@dataclass(frozen=True)
class CharType(MoodType):
    @property
    def name(self) -> str:
        return "Char"

    def validate(self, value):
        if value is None:
            return None
        if not isinstance(value, str) or len(value) != 1:
            raise TypeMismatchError(f"{value!r} is not a Char")
        return value

    def default(self):
        return "\0"


@dataclass(frozen=True)
class BooleanType(MoodType):
    @property
    def name(self) -> str:
        return "Boolean"

    def validate(self, value):
        if value is None:
            return None
        if not isinstance(value, bool):
            raise TypeMismatchError(f"{value!r} is not a Boolean")
        return value

    def default(self):
        return False


#: Singleton instances of the six basic types.
INTEGER = IntegerType()
LONGINTEGER = LongIntegerType()
FLOAT = FloatType()
STRING = StringType()
CHAR = CharType()
BOOLEAN = BooleanType()

BASIC_TYPES: dict[str, MoodType] = {
    "Integer": INTEGER,
    "LongInteger": LONGINTEGER,
    "Float": FLOAT,
    "String": STRING,
    "Char": CHAR,
    "Boolean": BOOLEAN,
}


# --------------------------------------------------------------------------
# Type constructors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleType(MoodType):
    """Tuple constructor: an ordered sequence of named, typed fields."""

    fields: tuple[tuple[str, MoodType], ...]

    def __post_init__(self):
        names = [name for name, _ in self.fields]
        if len(names) != len(set(names)):
            raise TypeMismatchError(f"duplicate field names in Tuple: {names}")

    @property
    def name(self) -> str:
        inner = ", ".join(f"{n} {t.name}" for n, t in self.fields)
        return f"Tuple({inner})"

    def field_type(self, field_name: str) -> MoodType:
        for name, mood_type in self.fields:
            if name == field_name:
                return mood_type
        raise TypeMismatchError(f"Tuple has no field {field_name!r}")

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def validate(self, value):
        if value is None:
            return None
        if not isinstance(value, dict):
            raise TypeMismatchError(f"{value!r} is not a Tuple value")
        unknown = set(value) - set(self.field_names())
        if unknown:
            raise TypeMismatchError(f"unknown Tuple fields {sorted(unknown)}")
        return {
            name: mood_type.validate(value.get(name))
            for name, mood_type in self.fields
        }

    def default(self):
        return {name: mood_type.default() for name, mood_type in self.fields}


@dataclass(frozen=True)
class SetType(MoodType):
    element: MoodType

    @property
    def name(self) -> str:
        return f"Set({self.element.name})"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, (set, frozenset, list, tuple)):
            validated = {self.element.validate(v) for v in value}
            return validated
        raise TypeMismatchError(f"{value!r} is not a Set value")

    def default(self):
        return set()


@dataclass(frozen=True)
class ListType(MoodType):
    element: MoodType

    @property
    def name(self) -> str:
        return f"List({self.element.name})"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, (list, tuple)):
            return [self.element.validate(v) for v in value]
        raise TypeMismatchError(f"{value!r} is not a List value")

    def default(self):
        return []


@dataclass(frozen=True)
class RefType(MoodType):
    """Reference constructor; the target is a class *name* (late bound)."""

    target: str

    @property
    def name(self) -> str:
        return f"Reference({self.target})"

    def validate(self, value):
        if value is None:
            return None
        if isinstance(value, OID):
            return value
        raise TypeMismatchError(f"{value!r} is not an object reference")

    def default(self):
        return NULL_OID


def is_atomic(mood_type: MoodType) -> bool:
    """Atomic attribute in the cost model's sense (Section 4.1)."""
    return isinstance(
        mood_type,
        (IntegerType, LongIntegerType, FloatType, StringType, CharType, BooleanType),
    )


def is_reference_like(mood_type: MoodType) -> bool:
    """True for types a path expression may traverse (Section 4.1:
    attributes 'constructed using set and reference constructors')."""
    if isinstance(mood_type, RefType):
        return True
    if isinstance(mood_type, (SetType, ListType)):
        return is_reference_like(mood_type.element)
    return False


def referenced_class(mood_type: MoodType) -> str | None:
    """The class a reference-like attribute points at, if any."""
    if isinstance(mood_type, RefType):
        return mood_type.target
    if isinstance(mood_type, (SetType, ListType)):
        return referenced_class(mood_type.element)
    return None


# --------------------------------------------------------------------------
# The type registry: typeId / typeName
# --------------------------------------------------------------------------

@dataclass
class TypeRegistry:
    """Assigns unique type identifiers; implements the paper's
    ``typeId(char *typeName)`` and ``typeName(int typeId)`` functions.

    Basic types are pre-registered with stable low ids.
    """

    _by_name: dict[str, int] = field(default_factory=dict)
    _by_id: dict[int, MoodType] = field(default_factory=dict)
    _next_id: int = 1

    def __post_init__(self):
        for mood_type in BASIC_TYPES.values():
            self.register(mood_type)

    def register(self, mood_type: MoodType, name: str | None = None) -> int:
        """Register a type (idempotent per name); return its type id."""
        type_name = name if name is not None else mood_type.name
        if type_name in self._by_name:
            return self._by_name[type_name]
        type_id = self._next_id
        self._next_id += 1
        self._by_name[type_name] = type_id
        self._by_id[type_id] = mood_type
        return type_id

    def type_id(self, type_name: str) -> int:
        try:
            return self._by_name[type_name]
        except KeyError:
            raise UnknownTypeError(f"unknown type {type_name!r}") from None

    def type_name(self, type_id: int) -> str:
        mood_type = self.type_by_id(type_id)
        for name, tid in self._by_name.items():
            if tid == type_id:
                return name
        return mood_type.name

    def type_by_id(self, type_id: int) -> MoodType:
        try:
            return self._by_id[type_id]
        except KeyError:
            raise UnknownTypeError(f"unknown type id {type_id}") from None

    def type_by_name(self, type_name: str) -> MoodType:
        return self.type_by_id(self.type_id(type_name))
