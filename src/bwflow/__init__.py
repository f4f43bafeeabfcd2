"""Diagonalization of quadratic boson Hamiltonians by a double-bracket flow.

The package integrates the matrix flow

    dOmega/dt = -16 B B~,   dB/dt = -2 (Omega B + B Omega^t),

tracks the scalar coefficient C alongside, recovers the diagonalizing
Bogoliubov (u, v) pair from the same B-path, and verifies the results
against closed-form block solutions and a dense truncated-Fock oracle.

The submodules and the names re-exported from flow and opcore load on
first access (PEP 562), so that importing the package, or one command of
the command line, loads only the modules it uses.
"""

import importlib

from .errors import (BlowupDetected, BwflowError, InsufficientData,
                     KernelOverlap, LogBranch, MapInvalid, NotConverged,
                     NotInRegime, NotOnManifold, NotPSD, NotReal,
                     OutOfRange, ParseError, PastBlowup, PathGap,
                     RoleViolation, SizeLimit, StepSizeUnderflow)

__version__ = "0.1.0"

__all__ = [
    "analytic", "bogoliubov", "conditions", "flow", "fock", "opcore",
    "BwflowError", "BlowupDetected", "InsufficientData", "KernelOverlap",
    "LogBranch", "MapInvalid", "NotConverged", "NotInRegime", "NotOnManifold",
    "NotPSD", "NotReal", "OutOfRange", "ParseError", "PastBlowup", "PathGap",
    "RoleViolation", "SizeLimit", "StepSizeUnderflow",
    "SCALAR_SIGN", "Controls", "FlowState", "Trajectory", "integrate",
    "OneParticleOperator", "QuadraticSpec",
    "__version__",
]

_SUBMODULES = ("analytic", "bogoliubov", "conditions", "flow", "fock", "opcore")
# re-exported name -> the submodule that defines it
_REEXPORTS = {
    "SCALAR_SIGN": "flow", "Controls": "flow", "FlowState": "flow",
    "Trajectory": "flow", "integrate": "flow",
    "OneParticleOperator": "opcore", "QuadraticSpec": "opcore",
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _REEXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_REEXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
