"""The Function Manager: dynamic compilation and late binding of methods.

Section 2 describes the paper's central kernel idea: member-function bodies
are *not* interpreted.  They are separately compiled (by C++ in the paper;
by CPython's ``compile`` here, the direct analogue of ``.so`` + ``dld``),
stored per class -- *"every class has its own directory containing its
textual definition and function object files and a shared object"* -- and
dynamically linked at the moment the SQL interpreter first calls them:

* invocation builds a signature from the class name and parameter list and
  locates the function in the CATALOG (inherited implementations are found
  by walking the hierarchy);
* the owner class's *shared object* is loaded into memory on first call and
  *"kept in memory until the scope changes in the program"*
  (:meth:`FunctionManager.end_scope`);
* adding or updating a function preprocesses and recompiles only that
  class's shared object while holding a lock on it -- *"the shared library
  of the class will be unavailable only during the time it takes to write
  the new function.  We provide locking for this operation"*;
* run-time errors inside compiled functions are caught by the kernel's
  Exception class and surfaced *"as if they are interpreted"*
  (:class:`~repro.core.errors.FunctionRuntimeError`).

Method bodies are Python statement suites.  Inside a body, ``self`` is a
:class:`SelfProxy`: attribute reads return the object's state (references
are automatically dereferenced to further proxies, like ``->`` chains), and
method names resolve to bound callables, so methods can call methods with
full late binding.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.catalog.catalog import Catalog
from repro.catalog.entities import MoodsFunction
from repro.catalog.typeparse import parse_type
from repro.core.errors import (
    CatalogError,
    CompilationError,
    FunctionNotFoundError,
    FunctionRuntimeError,
    TypeMismatchError,
)
from repro.functions.signature import signature_for_call, types_compatible
from repro.model.types import (
    BooleanType,
    FloatType,
    IntegerType,
    LongIntegerType,
    StringType,
)
from repro.obs.metrics import ComponentMetrics, MetricsRegistry
from repro.storage.locks import LockMode
from repro.storage.oid import OID

Resolver = Callable[[OID], "Any"]  # OID -> MoodObject


class SelfProxy:
    """The ``self`` seen by method bodies.

    Attribute access returns object state; reference-valued attributes are
    dereferenced into further proxies; method names resolve to bound
    callables dispatched through the Function Manager (late binding).
    """

    def __init__(self, obj, manager: "FunctionManager", resolve: Resolver | None):
        object.__setattr__(self, "_obj", obj)
        object.__setattr__(self, "_manager", manager)
        object.__setattr__(self, "_resolve", resolve)

    @property
    def oid(self) -> OID:
        return self._obj.oid

    @property
    def class_name(self) -> str:
        return self._obj.class_name

    def __getattr__(self, name: str):
        obj = object.__getattribute__(self, "_obj")
        manager = object.__getattribute__(self, "_manager")
        resolve = object.__getattribute__(self, "_resolve")
        if name in obj.state:
            return manager._wrap_value(obj.state[name], resolve)
        methods = manager.catalog.hierarchy.all_methods(obj.class_name)
        if name in methods:
            def bound(*args):
                return manager.invoke(obj, name, list(args), resolve)
            return bound
        raise FunctionRuntimeError(
            f"{obj.class_name}::{name}",
            AttributeError(f"no attribute or method {name!r}"),
        )

    def __setattr__(self, name: str, value) -> None:
        obj = object.__getattribute__(self, "_obj")
        if name not in obj.state:
            raise FunctionRuntimeError(
                f"{obj.class_name}::{name}",
                AttributeError(f"no attribute {name!r} to assign"),
            )
        obj.state[name] = value

    def __repr__(self) -> str:
        obj = object.__getattribute__(self, "_obj")
        return f"<self {obj.class_name}[{obj.oid}]>"


@dataclass
class _SharedObject:
    """The compiled face of one class: its 'shared object file'."""

    class_name: str
    version: int = 0
    functions: dict[str, Any] = field(default_factory=dict)  # name -> code callable


class FunctionManager:
    """Adds, updates, deletes and invokes the member functions of classes."""

    def __init__(self, catalog: Catalog,
                 metrics: ComponentMetrics | None = None):
        self.catalog = catalog
        #: ``functions.*`` counters: ``binds`` counts late-binding
        #: signature resolutions, ``dispatches`` compiled-code calls
        #: (a private registry when built alone).
        self.metrics = metrics or MetricsRegistry().component("functions")
        self._binds = self.metrics.counter("binds")
        self._dispatches = self.metrics.counter("dispatches")
        self._compiles = self.metrics.counter("compiles")
        self._loads = self.metrics.counter("loads")
        self._cache_hits = self.metrics.counter("cache_hits")
        # The per-class directories of compiled shared objects.
        self._shared: dict[str, _SharedObject] = {}
        # Shared objects currently loaded "into memory" for this scope.
        self._loaded: set[str] = set()

    # -- compilation ------------------------------------------------------

    def _lock_name(self, class_name: str) -> tuple[str, str]:
        return ("shared_object", class_name)

    def _compile_one(self, function: MoodsFunction):
        """Preprocess and compile one member function into a callable."""
        params = ", ".join(name for name, _ in function.parameters)
        header = f"def {function.name}(self{', ' + params if params else ''}):\n"
        body = function.source if function.source.strip() else "pass"
        source = header + textwrap.indent(textwrap.dedent(body), "    ")
        try:
            code = compile(source, f"<{function.signature}>", "exec")
        except SyntaxError as exc:
            raise CompilationError(
                f"cannot compile {function.signature}: {exc}"
            ) from None
        namespace: dict[str, Any] = {}
        exec(code, namespace)
        self._compiles.inc()
        return namespace[function.name]

    def _rebuild_shared_object(self, class_name: str) -> None:
        """Recompile the class's shared object under its write lock."""
        locks = self.catalog.storage.locks
        owner = ("function_manager", class_name)
        locks.acquire(owner, self._lock_name(class_name), LockMode.X)
        try:
            shared = _SharedObject(class_name)
            definition = self.catalog.hierarchy.get(class_name)
            for function in definition.methods:
                shared.functions[function.name] = self._compile_one(function)
            shared.version = self._shared.get(class_name, shared).version + 1
            self._shared[class_name] = shared
            self._loaded.discard(class_name)  # stale load dropped
        finally:
            locks.release(owner, self._lock_name(class_name))

    # -- administration (add / update / delete) ---------------------------------

    def add_function(self, function: MoodsFunction) -> None:
        """Define and compile a new member function.

        *"At run-time, adding a new function to the system has no effect on
        the server program"* -- only the owning class's shared object is
        rebuilt.
        """
        self._compile_one(function)  # surface syntax errors before cataloguing
        self.catalog.define_function(function)
        self._rebuild_shared_object(function.owner)

    def update_function(self, function: MoodsFunction) -> None:
        self._compile_one(function)
        self.catalog.update_function(function)
        self._rebuild_shared_object(function.owner)

    def delete_function(self, signature: str) -> None:
        owner = signature.split("::", 1)[0]
        self.catalog.drop_function(signature)
        self._rebuild_shared_object(owner)

    # -- invocation ----------------------------------------------------------

    def _locate(self, class_name: str, function_name: str,
                arguments: list[Any]) -> MoodsFunction:
        """Find the function row: exact signature first, then a
        compatible-arity overload, walking the hierarchy."""
        self._binds.inc()
        signature = signature_for_call(class_name, function_name, arguments)
        try:
            return self.catalog.function_by_signature(signature)
        except CatalogError:
            pass
        for owner in self.catalog.hierarchy.linearize(class_name):
            definition = self.catalog.hierarchy.get(owner)
            for function in definition.methods:
                if function.name != function_name:
                    continue
                if len(function.parameters) != len(arguments):
                    continue
                from repro.functions.signature import infer_parameter_type

                if all(
                    types_compatible(ptype, infer_parameter_type(arg))
                    for (_, ptype), arg in zip(function.parameters, arguments)
                ):
                    return function
        raise FunctionNotFoundError(
            f"no member function matches {signature}"
        )

    def _ensure_loaded(self, class_name: str) -> _SharedObject:
        """Open the class's shared object file and load it into memory."""
        if class_name not in self._shared:
            self._rebuild_shared_object(class_name)
        if class_name in self._loaded:
            self._cache_hits.inc()
        else:
            # Opening the shared object requires it not being rewritten.
            locks = self.catalog.storage.locks
            owner = ("function_manager_load", class_name)
            locks.acquire(owner, self._lock_name(class_name), LockMode.S)
            try:
                self._loaded.add(class_name)
                self._loads.inc()
            finally:
                locks.release(owner, self._lock_name(class_name))
        return self._shared[class_name]

    def invoke(self, obj, function_name: str, arguments: list[Any] | None = None,
               resolve: Resolver | None = None) -> Any:
        """Invoke a member function on an object, with late binding.

        ``resolve`` dereferences OIDs so method bodies can chase
        references; errors raised by the compiled body surface as
        :class:`FunctionRuntimeError` (the paper's Exception class).
        """
        arguments = arguments or []
        self._dispatches.inc()
        function = self._locate(obj.class_name, function_name, arguments)
        shared = self._ensure_loaded(function.owner)
        callable_ = shared.functions.get(function.name)
        if callable_ is None:  # defined but not yet compiled (catalog reload)
            self._rebuild_shared_object(function.owner)
            shared = self._ensure_loaded(function.owner)
            callable_ = shared.functions[function.name]
        proxy = SelfProxy(obj, self, resolve)
        wrapped_args = [self._wrap_value(a, resolve) for a in arguments]
        try:
            result = callable_(proxy, *wrapped_args)
        except FunctionRuntimeError:
            raise
        except Exception as exc:  # the kernel's Exception class catches all
            raise FunctionRuntimeError(function.signature, exc) from exc
        return self._coerce_return(function, result)

    def _wrap_value(self, value: Any, resolve: Resolver | None) -> Any:
        if isinstance(value, OID) and resolve is not None and not value.is_null:
            return SelfProxy(resolve(value), self, resolve)
        if isinstance(value, list):
            return [self._wrap_value(v, resolve) for v in value]
        if isinstance(value, (set, frozenset)):
            return [self._wrap_value(v, resolve) for v in sorted(value, key=repr)]
        return value

    def _coerce_return(self, function: MoodsFunction, result: Any) -> Any:
        """Cast the result to the declared return type (C++ semantics)."""
        if result is None:
            return None
        if isinstance(result, SelfProxy):
            return object.__getattribute__(result, "_obj").oid
        declared = parse_type(function.return_type)
        if isinstance(declared, (IntegerType, LongIntegerType)):
            if isinstance(result, (int, float)):
                return int(result)
        elif isinstance(declared, FloatType):
            if isinstance(result, (int, float)):
                return float(result)
        elif isinstance(declared, BooleanType):
            return bool(result)
        elif isinstance(declared, StringType) and isinstance(result, str):
            return result
        try:
            return declared.validate(result)
        except TypeMismatchError as exc:
            raise FunctionRuntimeError(function.signature, exc) from None

    # -- scope management -------------------------------------------------------

    def end_scope(self) -> None:
        """Unload shared objects: *"Function is kept in memory until the
        scope changes in the program."*"""
        self._loaded.clear()

    def loaded_classes(self) -> list[str]:
        return sorted(self._loaded)

    def shared_object_version(self, class_name: str) -> int:
        shared = self._shared.get(class_name)
        return shared.version if shared else 0
