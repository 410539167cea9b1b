"""Exact small-scale simulator: the brute-force oracle for everything else.

State vectors up to a 12-qubit cap, circuit unitaries, trace distance,
and exhaustive Z-measurement branching. One tensor-reshape kernel applies
every gate: to a state vector and to the row axes of a circuit's running
unitary, so a gate never becomes a full 2^n x 2^n matrix. Branching runs
on bare amplitude arrays; a StateVector, whose construction checks length
and norm, is made only for the caller's input and each returned branch.
A circuit without H is a monomial matrix, one entry per column, built in
O(2^n) per gate.
Qubit 0 is the leftmost tensor factor / most significant index bit.
"""

from __future__ import annotations

from functools import cache
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


class StateVector:
    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        _check_cap(num_qubits, "StateVector")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**num_qubits:
            raise UsageError("amplitude vector has wrong length")
        if abs(np.vdot(amps, amps).real - 1.0) > 1e-10:
            raise UsageError("state vector is not normalized")
        self.num_qubits = num_qubits
        self.amplitudes = amps

    @staticmethod
    def basis(num_qubits: int, index: int) -> StateVector:
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return StateVector(num_qubits, amps)


def _one_entry_per_row(mat: np.ndarray) -> tuple[tuple[int, int, complex], ...] | None:
    """(row, column, entry) of each row's one nonzero entry; None when some
    row has another count."""
    rows, cols = np.nonzero(mat)
    if not np.array_equal(rows, np.arange(mat.shape[0])):
        return None
    return tuple((r, c, complex(mat[r, c])) for r, c in zip(rows.tolist(), cols.tolist()))


#: each gate kind's entries for the slab path of _apply_unitary_vec; None
#: for H, the one kind with more than one entry in a row
_SLAB_ENTRIES = {kind: _one_entry_per_row(mat) for kind, mat in GATE_MATRICES.items()}


@cache
def _slabs(num_qubits: int, qubits: tuple[int, ...]) -> tuple[tuple[slice, ...], ...]:
    """Index of each tensor slab whose gate axes read i, for i = 0..2^k-1,
    the gate's first qubit as its most significant bit. Each gate axis keeps
    length 1, so a slab is a view even when the gate spans every axis."""
    k = len(qubits)
    out = []
    for index in range(2**k):
        where = [slice(None)] * num_qubits
        for j, q in enumerate(qubits):
            bit = (index >> (k - 1 - j)) & 1
            where[q] = slice(bit, bit + 1)
        out.append(tuple(where))
    return tuple(out)


def _apply_unitary_vec(amps: np.ndarray, num_qubits: int, kind: str, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply the gate ``kind`` on the given qubits of an amplitude tensor.

    A gate with one nonzero entry per row (every kind but H) writes each
    output slab, the tensor with the gate's axes fixed to one row index, as
    one input slab times that entry; both slabs are strided views, so no
    axis is moved. The entries are all +-1 or +-i, so each product is exact
    and equals what the matrix product gives. H moves its axis to the front
    and multiplies.
    """
    tensor = amps.reshape((2,) * num_qubits)
    entries = _SLAB_ENTRIES[kind]
    if entries is not None:
        slabs = _slabs(num_qubits, qubits)
        out = np.empty_like(tensor)
        for row, col, value in entries:
            np.multiply(tensor[slabs[col]], value, out=out[slabs[row]])
        return out.reshape(-1)
    k = len(qubits)
    src = list(qubits)
    moved = np.moveaxis(tensor, src, range(k))
    moved = GATE_MATRICES[kind] @ moved.reshape(2**k, -1)
    moved = np.moveaxis(moved.reshape((2,) * num_qubits), range(k), src)
    return moved.reshape(-1)


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
        u = _apply_unitary_vec(u, 2 * n, gate.kind, gate.qubits)
    return u.reshape(dim, dim)


@cache
def _monomial_moves(num_qubits: int, kind: str, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """For each basis index: the XOR mask that takes it to the row the gate
    sends it to, and the gate's entry there (None if every entry is 1)."""
    index = np.arange(2**num_qubits).reshape((2,) * num_qubits)
    moved, value = np.empty_like(index), np.empty(index.shape, dtype=complex)
    slabs = _slabs(num_qubits, qubits)
    for row, col, entry in _SLAB_ENTRIES[kind]:
        moved[slabs[col]], value[slabs[col]] = index[slabs[row]], entry
    return (moved ^ index).reshape(-1), None if (value == 1).all() else value.reshape(-1)


def monomial_unitary(circuit: "Circuit") -> tuple[np.ndarray, np.ndarray]:
    """The circuit's unitary as (perm, phase): U[perm[c], c] = phase[c],
    every other entry 0. A product of gates with one entry per row (all but
    H) is a monomial matrix, so each gate costs O(2^n), not O(4^n).
    """
    _check_cap(circuit.num_qubits, "monomial_unitary")
    n = circuit.num_qubits
    perm, phase = np.arange(2**n), np.ones(2**n, dtype=complex)
    for gate in circuit.gates:
        if gate.condition is not None or _SLAB_ENTRIES.get(gate.kind) is None:
            raise UsageError("monomial_unitary requires unconditioned gates of one entry per row (no H)")
        flip, value = _monomial_moves(n, gate.kind, gate.qubits)
        if value is not None:
            phase *= value[perm]
        perm ^= flip[perm]
    return perm, phase


# stays for perfbench/tracing.py, which wraps it by name, until the tracer is retargeted
def partial_trace_dense(rho: np.ndarray, traced: Iterable[int]) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    ma, mb = np.asarray(a), np.asarray(b)
    if ma.shape != mb.shape:
        raise UsageError("trace_distance requires equal dimensions")
    diff = ma - mb
    # the difference of Hermitian matrices is Hermitian; 1/2 sum |eigenvalues|
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def run_circuit(circuit: "Circuit", initial: StateVector) -> list[tuple[tuple[int, ...], float, StateVector]]:
    """Execute a circuit with measurements and conditioned gates, enumerating
    every measurement branch exactly.

    Branches run on bare amplitude arrays: Gate and Circuit have checked
    every kind, arity and qubit, so each gate goes straight to the kernel,
    and a MEASURE_Z splits the array into its two outcomes, dropping one of
    probability at most PROBABILITY_CUTOFF and normalising the other. Only
    the returned post-states are made StateVectors.

    Returns [(bits, probability, post_state)] with bits indexed by classical
    slot; unwritten slots read 0. Probabilities sum to 1.
    """
    n = circuit.num_qubits
    if n != initial.num_qubits:
        raise UsageError("circuit/state qubit count mismatch")
    frontier = [([0] * circuit.num_classical_bits, 1.0, initial.amplitudes)]
    for gate in circuit.gates:
        nxt: list[tuple[list[int], float, np.ndarray]] = []
        for bits, prob, amps in frontier:
            if gate.condition is not None and not sum(bits[s] for s in gate.condition) & 1:
                nxt.append((bits, prob, amps))
            elif gate.kind != "MEASURE_Z":
                nxt.append((bits, prob, _apply_unitary_vec(amps, n, gate.kind, gate.qubits)))
            else:
                (q,) = gate.qubits
                t = np.moveaxis(amps.reshape((2,) * n), q, 0)
                for outcome in (0, 1):
                    part = np.zeros_like(t)
                    part[outcome] = t[outcome]
                    p = float(np.sum(np.abs(part) ** 2))
                    if p <= PROBABILITY_CUTOFF:
                        continue
                    nb = list(bits)
                    nb[gate.classical_bit] = outcome
                    nxt.append((nb, prob * p, np.moveaxis(part, 0, q).reshape(-1) / np.sqrt(p)))
        frontier = nxt
    return [(tuple(bits), prob, StateVector(n, amps)) for bits, prob, amps in frontier]


def random_state_vector(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish random pure state: normalized complex Gaussian vector."""
    _check_cap(num_qubits, "random_state_vector")
    v = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))
