"""Plain reference forms the tests hold the package's fast paths to.

Each helper builds its result entry by entry or factor by factor, with no
shared kernel, so a test can compare the package's output with it exactly.
The operator helpers stand in for constructors only the tests need,
is_column_local is the locality check the circuit tests hold expansions
to, and generic_secret is the input of the audit's enumeration oracle.
"""

import itertools
from functools import reduce

import numpy as np

from qsslab.dense import GATE_MATRICES
from qsslab.paulis import PauliOperator, PauliString


def embedded_unitary(num_qubits, kind, qubits):
    """The 2^n x 2^n matrix of a gate acting on the given qubits, filled one
    basis column at a time (qubit 0 is the most significant index bit)."""
    mat = GATE_MATRICES[kind]
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    k = len(qubits)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        sub = 0
        for q in qubits:
            sub = (sub << 1) | bits[q]
        for sub_out in range(2**k):
            amp = mat[sub_out, sub]
            if amp == 0:
                continue
            nb = bits[:]
            for j, q in enumerate(qubits):
                nb[q] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in nb:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def circuit_unitary(num_qubits, gates):
    """Product of the embedded gate matrices, first gate rightmost."""
    u = np.eye(2**num_qubits, dtype=complex)
    for kind, qubits in gates:
        u = embedded_unitary(num_qubits, kind, qubits) @ u
    return u


def kron_matrix(ps):
    """i^phase times the Kronecker product of the letter matrices."""
    mats = [GATE_MATRICES[ps.letter(q)] for q in range(ps.num_qubits)]
    return ps.phase_factor() * reduce(np.kron, mats, np.eye(1, dtype=complex))


def column_of(layout, qubit):
    """1-based column owning a flat qubit index (qubits are row-major)."""
    if not 0 <= qubit < layout.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return qubit % layout.columns + 1


def is_column_local(circuit, layout):
    """True iff no gate touches two different columns."""
    return all(len({column_of(layout, q) for q in g.qubits}) <= 1 for g in circuit.gates)


def pauli_operator(ps, coeff=1.0):
    """The one-term operator coeff * ps."""
    return PauliOperator.from_terms(ps.num_qubits, [(ps, coeff)])


def maximally_mixed(num_qubits):
    """I / 2^n as a one-term operator."""
    return pauli_operator(PauliString.identity(num_qubits), 2.0**-num_qubits)


# per-qubit factor (I + 0.30 X + 0.24 Y + 0.18 Z)/2 of the generic secret:
# positive (Bloch norm < 1), trace 1, and every product word in the s-qubit
# expansion gets a nonzero coefficient
_GENERIC_WEIGHTS = {"I": 0.5, "X": 0.15, "Y": 0.12, "Z": 0.09}


def generic_secret(s):
    """Full-support product secret: every s-qubit word has a coefficient."""
    entries = []
    for word in itertools.product("IXYZ", repeat=s):
        coeff = 1.0
        for letter in word:
            coeff *= _GENERIC_WEIGHTS[letter]
        entries.append((PauliString.from_letters("".join(word)), coeff))
    return PauliOperator.from_terms(s, entries)
