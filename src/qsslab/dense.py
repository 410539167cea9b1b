"""Exact small-scale simulator: the brute-force oracle for everything else.

State vectors and density matrices up to a 12-qubit cap, partial trace,
trace distance, and exhaustive Z-measurement branching. One tensor-reshape
kernel applies every gate: to a state vector, to both sides of a density
matrix, and to the row axes of a circuit's running unitary, so a gate never
becomes a full 2^n x 2^n matrix. Qubit 0 is the leftmost tensor factor /
most significant index bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ResourceError, UsageError

if TYPE_CHECKING:  # pragma: no cover
    from .circuits import Circuit

#: dense materialization refuses above this many qubits
DENSE_CAP = 12

#: a measurement outcome of probability at or below this is dropped, by
#: this oracle, the sparse evaluation and the gadget fidelity alike
PROBABILITY_CUTOFF = 1e-14

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_TOF = np.eye(8, dtype=complex)
_TOF[6, 6] = _TOF[7, 7] = 0
_TOF[6, 7] = _TOF[7, 6] = 1

GATE_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "H": _H,
    "S": _S,
    "Sdg": _S.conj().T,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "TOFFOLI": _TOF,
}


def _check_cap(num_qubits: int, what: str) -> None:
    if num_qubits > DENSE_CAP:
        raise ResourceError(
            f"{what} refused above the dense cap ({num_qubits} > {DENSE_CAP} qubits)"
        )


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_cap(self.num_qubits, "StateVector")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.num_qubits:
            raise UsageError("amplitude vector has wrong length")
        if abs(np.vdot(amps, amps).real - 1.0) > 1e-10:
            raise UsageError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def basis(num_qubits: int, index: int) -> StateVector:
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return StateVector(num_qubits, amps)

    def amplitude(self, bits: str | int) -> complex:
        if isinstance(bits, str):
            bits = int(bits, 2)
        return complex(self.amplitudes[bits])

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_cap(self.num_qubits, "DensityMatrix")
        m = np.asarray(self.entries, dtype=complex)
        dim = 2**self.num_qubits
        if m.shape != (dim, dim):
            raise UsageError("density matrix has wrong shape")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise UsageError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise UsageError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < -1e-9:
            raise UsageError("density matrix is not positive semidefinite")
        object.__setattr__(self, "entries", m)


def _apply_unitary_vec(amps: np.ndarray, num_qubits: int, mat: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply mat on the given qubits of an amplitude tensor."""
    k = len(qubits)
    src = list(qubits)
    moved = np.moveaxis(amps.reshape((2,) * num_qubits), src, range(k))
    moved = mat @ moved.reshape(2**k, -1)
    moved = np.moveaxis(moved.reshape((2,) * num_qubits), range(k), src)
    return moved.reshape(-1)


def apply_gate(state: StateVector | DensityMatrix, gate: tuple[str, tuple[int, ...]]):
    """Apply a unitary ``(kind, qubits)`` gate; measurements and conditions
    belong to measure_z/run_circuit."""
    kind, qubits = gate
    if kind == "MEASURE_Z":
        raise UsageError("measurements are handled by measure_z, not apply_gate")
    try:
        mat = GATE_MATRICES[kind]
    except KeyError:
        raise UsageError(f"unknown gate kind {kind!r}") from None
    n = state.num_qubits
    for q in qubits:
        if not 0 <= q < n:
            raise UsageError(f"qubit {q} out of range")
    if len(set(qubits)) != len(qubits) or len(qubits) != int(np.log2(mat.shape[0])):
        raise UsageError(f"gate {kind} takes distinct qubits of matching arity")
    if isinstance(state, StateVector):
        return StateVector(n, _apply_unitary_vec(state.amplitudes, n, mat, tuple(qubits)))
    rho = state.entries.reshape(-1)
    # U rho U^dag: act on the row indices with U and column indices with U*
    rho = _apply_unitary_vec(rho, 2 * n, mat, tuple(qubits))
    rho = _apply_unitary_vec(rho, 2 * n, mat.conj(), tuple(q + n for q in qubits))
    return DensityMatrix(n, rho.reshape(2**n, 2**n))


def build_unitary(circuit: "Circuit") -> np.ndarray:
    """Ordered product of the circuit's gate matrices, first gate rightmost.

    Each gate acts on the running matrix as on a 2n-axis tensor whose first
    n axes are the row index, so U <- G U costs O(4^n) per gate and no gate
    is embedded into a full 2^n x 2^n matrix.
    """
    _check_cap(circuit.num_qubits, "build_unitary")
    n = circuit.num_qubits
    dim = 2**n
    u = np.eye(dim, dtype=complex).reshape(-1)
    for gate in circuit.gates:
        if gate.kind == "MEASURE_Z" or gate.condition is not None:
            raise UsageError("build_unitary requires a measurement-free circuit")
        u = _apply_unitary_vec(u, 2 * n, GATE_MATRICES[gate.kind], gate.qubits)
    return u.reshape(dim, dim)


def partial_trace_dense(rho: DensityMatrix | np.ndarray, traced: Iterable[int]) -> np.ndarray:
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    n = int(m.shape[0]).bit_length() - 1
    traced_sorted = sorted(set(traced), reverse=True)
    cur = m
    n_cur = n
    for q in traced_sorted:
        if not 0 <= q < n:
            raise UsageError(f"qubit {q} out of range")
        t = cur.reshape(2**q, 2, 2 ** (n_cur - q - 1), 2**q, 2, 2 ** (n_cur - q - 1))
        cur = np.einsum("aibcid->abcd", t).reshape(2 ** (n_cur - 1), 2 ** (n_cur - 1))
        n_cur -= 1
    return cur


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    ma = a.entries if isinstance(a, DensityMatrix) else np.asarray(a)
    mb = b.entries if isinstance(b, DensityMatrix) else np.asarray(b)
    if ma.shape != mb.shape:
        raise UsageError("trace_distance requires equal dimensions")
    diff = ma - mb
    # the difference of Hermitian matrices is Hermitian; 1/2 sum |eigenvalues|
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def measure_z(state: StateVector | DensityMatrix, qubit: int):
    """Exhaustive Z-measurement branches: [(outcome, probability, post-state)].

    Branches of probability at most PROBABILITY_CUTOFF are omitted;
    post-states are normalized.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise UsageError(f"qubit {qubit} out of range")
    branches = []
    if isinstance(state, StateVector):
        t = state.amplitudes.reshape((2,) * n)
        t = np.moveaxis(t, qubit, 0)
        for b in (0, 1):
            part = np.zeros_like(t)
            part[b] = t[b]
            p = float(np.sum(np.abs(part) ** 2))
            if p <= PROBABILITY_CUTOFF:
                continue
            post = np.moveaxis(part, 0, qubit).reshape(-1) / np.sqrt(p)
            branches.append((b, p, StateVector(n, post)))
    else:
        bit = (np.arange(2**n) >> (n - 1 - qubit)) & 1
        for b in (0, 1):
            post = state.entries * np.outer(bit == b, bit == b)
            p = float(np.trace(post).real)
            if p <= PROBABILITY_CUTOFF:
                continue
            branches.append((b, p, DensityMatrix(n, post / p)))
    return branches


def run_circuit(circuit: "Circuit", initial: StateVector) -> list[tuple[tuple[int, ...], float, StateVector]]:
    """Execute a circuit with measurements and conditioned gates, enumerating
    every measurement branch exactly.

    Returns [(bits, probability, post_state)] with bits indexed by classical
    slot; unwritten slots read 0. Probabilities sum to 1.
    """
    from .circuits import evaluate_condition

    if circuit.num_qubits != initial.num_qubits:
        raise UsageError("circuit/state qubit count mismatch")
    frontier: list[tuple[list[int], float, StateVector]] = [
        ([0] * circuit.num_classical_bits, 1.0, initial)
    ]
    for gate in circuit.gates:
        nxt: list[tuple[list[int], float, StateVector]] = []
        for bits, prob, state in frontier:
            if gate.condition is not None and not evaluate_condition(gate.condition, bits):
                nxt.append((bits, prob, state))
                continue
            if gate.kind == "MEASURE_Z":
                (q,) = gate.qubits
                for outcome, p, post in measure_z(state, q):
                    nb = list(bits)
                    nb[gate.classical_bit] = outcome
                    nxt.append((nb, prob * p, post))
            else:
                nxt.append((bits, prob, apply_gate(state, (gate.kind, gate.qubits))))
        frontier = nxt
    return [(tuple(bits), prob, state) for bits, prob, state in frontier]


def random_state_vector(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    _check_cap(num_qubits, "random_state_vector")
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def random_density_matrix(num_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state via the Ginibre construction G G^dag / tr."""
    _check_cap(num_qubits, "random_density_matrix")
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(num_qubits, rho / np.trace(rho).real)
