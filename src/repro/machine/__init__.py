"""The simulated machine: the sx64 declaration, loader, CPU interpreter,
runtime intrinsics.

The names below load on first use: the backend derives its view of the
instruction set from :mod:`repro.machine.semantics`, and the loader reads
the backend's machine IR, so importing this package must not import the
loader.
"""

from importlib import import_module

_EXPORTS = {
    "CPU": "cpu",
    "ExecutionResult": "cpu",
    "FaultPlan": "cpu",
    "FaultRecord": "cpu",
    "execute": "cpu",
    "DEFAULT_MEM_SIZE": "loader",
    "InstrInfo": "loader",
    "LoadedProgram": "loader",
    "NULL_GUARD": "loader",
    "load_binary": "loader",
    "INTRINSIC_TABLE": "intrinsics",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
