"""Function Manager: dynamic compilation and late binding of member functions."""

from repro.functions.manager import FunctionManager, SelfProxy
from repro.functions.signature import (
    build_signature,
    infer_parameter_type,
    signature_for_call,
    types_compatible,
)

__all__ = [
    "FunctionManager",
    "SelfProxy",
    "build_signature",
    "infer_parameter_type",
    "signature_for_call",
    "types_compatible",
]
