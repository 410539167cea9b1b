"""Plain reference forms the tests hold the package's fast paths to.

Each helper builds its result entry by entry or factor by factor, with no
shared kernel, so a test can compare the package's output with it exactly.
The operator helpers stand in for constructors only the tests need.
"""

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


def pauli_operator(ps, coeff=1.0):
    """The one-term operator coeff * ps."""
    return PauliOperator.from_terms(ps.num_qubits, [(ps, coeff)])


def maximally_mixed(num_qubits):
    """I / 2^n as a one-term operator."""
    return pauli_operator(PauliString.identity(num_qubits), 2.0**-num_qubits)
