"""Executable laboratory for a ladder-encoded (n,n) quantum secret-sharing
scheme: sparse Pauli-expansion simulation of dealing, transversal Clifford
evaluation, magic-state Toffoli gadgets, and coalition security audits, with
a small dense simulator as the independent oracle.
"""

from .circuits import (
    Circuit,
    Gate,
    ShareLayout,
    expected_ladder_pauli,
    ladder_circuit,
    ladder_fanout_circuit,
    magic_state_circuit,
    toffoli_gadget,
    transversal_expand,
)
from .errors import ProtocolError, ResourceError, UnsupportedGateError, UsageError
from .paulis import PauliOperator, PauliString
from .protocol import (
    EvaluationScript,
    SchemeParams,
    SharedState,
    Transcript,
    deal,
    evaluate,
    load_secret,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "EvaluationScript",
    "Gate",
    "PauliOperator",
    "PauliString",
    "ProtocolError",
    "ResourceError",
    "SchemeParams",
    "ShareLayout",
    "SharedState",
    "Transcript",
    "UnsupportedGateError",
    "UsageError",
    "deal",
    "evaluate",
    "expected_ladder_pauli",
    "ladder_circuit",
    "ladder_fanout_circuit",
    "load_secret",
    "magic_state_circuit",
    "reconstruct",
    "toffoli_gadget",
    "transversal_expand",
    "__version__",
]
