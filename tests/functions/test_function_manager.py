"""Tests for the Function Manager: compilation, late binding, scoping."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.entities import MoodsFunction
from repro.core.errors import (
    CompilationError,
    FunctionNotFoundError,
    FunctionRuntimeError,
)
from repro.functions.manager import FunctionManager
from repro.functions.signature import (
    build_signature,
    infer_parameter_type,
    signature_for_call,
    types_compatible,
)
from repro.model.objects import MoodObject
from repro.storage.manager import StorageManager
from repro.storage.oid import OID


@pytest.fixture
def setup():
    catalog = Catalog(StorageManager(buffer_capacity=64))
    catalog.define_class(
        "Vehicle",
        [("id", "Integer"), ("weight", "Integer"),
         ("drivetrain", "Reference(VehicleDriveTrain)")],
        methods=[
            MoodsFunction("Vehicle", "lbweight", "Integer", [],
                          source="return self.weight * 2.2075"),
            MoodsFunction("Vehicle", "heavier_than", "Boolean",
                          [("limit", "Integer")],
                          source="return self.weight > limit"),
        ],
    )
    catalog.define_class("Automobile", superclasses=["Vehicle"])
    catalog.define_class(
        "VehicleDriveTrain",
        [("transmission", "String(32)")],
        methods=[
            MoodsFunction("VehicleDriveTrain", "is_automatic", "Boolean", [],
                          source="return self.transmission == 'AUTOMATIC'"),
        ],
    )
    manager = FunctionManager(catalog)
    return catalog, manager


def make_vehicle(weight=1000, drivetrain=None):
    return MoodObject(OID(1, 0, 0), "Vehicle",
                      {"id": 1, "weight": weight, "drivetrain": drivetrain})


def test_signature_helpers():
    assert build_signature("Vehicle", "f", ["Integer", "Float"]) == \
        "Vehicle::f(Integer,Float)"
    assert infer_parameter_type(5) == "Integer"
    assert infer_parameter_type(2**40) == "LongInteger"
    assert infer_parameter_type(1.5) == "Float"
    assert infer_parameter_type(True) == "Boolean"
    assert infer_parameter_type("long string") == "String"
    assert infer_parameter_type("c") == "Char"
    assert infer_parameter_type(OID(1, 1, 1)) == "Reference"
    assert signature_for_call("C", "m", [1, "xx"]) == "C::m(Integer,String)"


def test_types_compatible():
    assert types_compatible("Integer", "Integer")
    assert types_compatible("Float", "Integer")       # widening
    assert not types_compatible("Integer", "Float")   # narrowing rejected
    assert types_compatible("String(32)", "String")
    assert types_compatible("Reference(Company)", "Reference")
    assert types_compatible("String", "Char")
    assert not types_compatible("Boolean", "Integer")


def test_invoke_parameterless(setup):
    _, manager = setup
    vehicle = make_vehicle(weight=1000)
    # int return type truncates, as the C++ declaration would.
    assert manager.invoke(vehicle, "lbweight") == 2207


def test_invoke_with_parameters(setup):
    _, manager = setup
    vehicle = make_vehicle(weight=1000)
    assert manager.invoke(vehicle, "heavier_than", [500]) is True
    assert manager.invoke(vehicle, "heavier_than", [1500]) is False


def test_inherited_method_late_binding(setup):
    _, manager = setup
    auto = MoodObject(OID(1, 0, 1), "Automobile",
                      {"id": 2, "weight": 2000, "drivetrain": None})
    assert manager.invoke(auto, "lbweight") == 4415


def test_method_resolves_references(setup):
    _, manager = setup
    drivetrain = MoodObject(OID(1, 9, 0), "VehicleDriveTrain",
                            {"transmission": "AUTOMATIC"})
    vehicle = make_vehicle(drivetrain=drivetrain.oid)
    resolver = {drivetrain.oid: drivetrain}.__getitem__

    fn = MoodsFunction("Vehicle", "is_auto", "Boolean", [],
                       source="return self.drivetrain.transmission == 'AUTOMATIC'")
    manager.add_function(fn)
    assert manager.invoke(vehicle, "is_auto", resolve=resolver) is True


def test_method_calls_method(setup):
    """Late binding inside bodies: methods dispatch through the manager."""
    _, manager = setup
    fn = MoodsFunction("Vehicle", "double_lbweight", "Integer", [],
                       source="return self.lbweight() * 2")
    manager.add_function(fn)
    vehicle = make_vehicle(weight=1000)
    assert manager.invoke(vehicle, "double_lbweight") == 4414


def test_add_function_requires_valid_syntax(setup):
    _, manager = setup
    bad = MoodsFunction("Vehicle", "broken", "Integer", [],
                        source="return ((")
    with pytest.raises(CompilationError):
        manager.add_function(bad)
    # Nothing was catalogued.
    with pytest.raises(FunctionNotFoundError):
        manager.invoke(make_vehicle(), "broken")


def test_update_function_takes_effect(setup):
    catalog, manager = setup
    vehicle = make_vehicle(weight=1000)
    assert manager.invoke(vehicle, "lbweight") == 2207
    manager.update_function(
        MoodsFunction("Vehicle", "lbweight", "Integer", [],
                      source="return self.weight * 2")
    )
    assert manager.invoke(vehicle, "lbweight") == 2000
    # The update bumped the shared object's version.
    assert manager.shared_object_version("Vehicle") >= 2


def test_delete_function(setup):
    _, manager = setup
    vehicle = make_vehicle()
    manager.invoke(vehicle, "lbweight")
    manager.delete_function("Vehicle::lbweight()")
    with pytest.raises(FunctionNotFoundError):
        manager.invoke(vehicle, "lbweight")


def test_runtime_errors_wrapped(setup):
    _, manager = setup
    fn = MoodsFunction("Vehicle", "crash", "Integer", [],
                       source="return 1 // 0")
    manager.add_function(fn)
    with pytest.raises(FunctionRuntimeError) as info:
        manager.invoke(make_vehicle(), "crash")
    assert "Vehicle::crash()" in str(info.value)
    assert isinstance(info.value.original, ZeroDivisionError)


def test_unknown_attribute_in_body(setup):
    _, manager = setup
    fn = MoodsFunction("Vehicle", "oops", "Integer", [],
                       source="return self.nonexistent")
    manager.add_function(fn)
    with pytest.raises(FunctionRuntimeError):
        manager.invoke(make_vehicle(), "oops")


def test_missing_function(setup):
    _, manager = setup
    with pytest.raises(FunctionNotFoundError):
        manager.invoke(make_vehicle(), "no_such_method")


def test_wrong_arity(setup):
    _, manager = setup
    with pytest.raises(FunctionNotFoundError):
        manager.invoke(make_vehicle(), "heavier_than", [1, 2])


def test_widening_argument_accepted(setup):
    catalog, manager = setup
    fn = MoodsFunction("Vehicle", "scaled", "Float", [("rate", "Float")],
                       source="return self.weight * rate")
    manager.add_function(fn)
    # Integer actual binds the Float formal.
    assert manager.invoke(make_vehicle(weight=10), "scaled", [2]) == 20.0


def test_scope_caching(setup):
    _, manager = setup
    vehicle = make_vehicle()
    counts = manager.metrics
    counts.registry.reset()
    manager.invoke(vehicle, "lbweight")
    manager.invoke(vehicle, "lbweight")
    manager.invoke(vehicle, "lbweight")
    assert counts.counter("loads").value == 1
    assert counts.counter("cache_hits").value == 2
    manager.end_scope()
    manager.invoke(vehicle, "lbweight")
    assert counts.counter("loads").value == 2


def test_self_attribute_assignment(setup):
    _, manager = setup
    fn = MoodsFunction("Vehicle", "gain", "Integer", [("extra", "Integer")],
                       source="self.weight = self.weight + extra\nreturn self.weight")
    manager.add_function(fn)
    vehicle = make_vehicle(weight=100)
    assert manager.invoke(vehicle, "gain", [20]) == 120
    assert vehicle.state["weight"] == 120


def test_return_type_coercions(setup):
    _, manager = setup
    cases = [
        ("as_float", "Float", "return 3", 3.0),
        ("as_bool", "Boolean", "return 1", True),
        ("as_int", "Integer", "return 3.99", 3),
    ]
    for name, rtype, body, expected in cases:
        manager.add_function(
            MoodsFunction("Vehicle", name, rtype, [], source=body)
        )
        result = manager.invoke(make_vehicle(), name)
        assert result == expected
        assert type(result) is type(expected)


def test_stats_counters(setup):
    _, manager = setup
    counts = manager.metrics
    counts.registry.reset()
    vehicle = make_vehicle()
    manager.invoke(vehicle, "lbweight")
    manager.invoke(vehicle, "heavier_than", [1])
    assert counts.counter("dispatches").value == 2
    assert counts.counter("compiles").value >= 2
