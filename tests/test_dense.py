"""Dense state-vector reference simulator."""

import numpy as np
import pytest

from qsslab.circuits import Circuit, Gate, ladder_circuit
from qsslab.dense import (
    GATE_MATRICES,
    PROBABILITY_CUTOFF,
    StateVector,
    apply_gate,
    build_unitary,
    measure_z,
    partial_trace_dense,
    random_state_vector,
    run_circuit,
    trace_distance,
)
from qsslab.errors import ResourceError, UsageError

from reference import circuit_unitary, embedded_unitary, random_density_matrix

_SQRT_HALF = 2.0**-0.5


def _density(psi):
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


@pytest.mark.parametrize("kind", sorted(GATE_MATRICES))
def test_gate_matrices_are_unitary(kind):
    u = GATE_MATRICES[kind]
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))


def test_hadamard_makes_plus_state():
    out = apply_gate(StateVector.basis(1, 0), ("H", (0,)))
    assert np.allclose(out.amplitudes, [_SQRT_HALF, _SQRT_HALF])


def test_cnot_on_basis_states():
    # qubit 0 is the most significant bit of the basis index
    out = apply_gate(StateVector.basis(2, 0b10), ("CNOT", (0, 1)))
    assert out.amplitudes[0b11] == pytest.approx(1.0)
    out = apply_gate(StateVector.basis(2, 0b01), ("CNOT", (0, 1)))
    assert out.amplitudes[0b01] == pytest.approx(1.0)


def test_toffoli_flips_only_when_both_controls_set():
    out = apply_gate(StateVector.basis(3, 0b110), ("TOFFOLI", (0, 1, 2)))
    assert out.amplitudes[0b111] == pytest.approx(1.0)
    out = apply_gate(StateVector.basis(3, 0b100), ("TOFFOLI", (0, 1, 2)))
    assert out.amplitudes[0b100] == pytest.approx(1.0)


def test_apply_gate_rejects_measurement_and_bad_qubits():
    with pytest.raises(UsageError):
        apply_gate(StateVector.basis(1, 0), ("MEASURE_Z", (0,)))
    with pytest.raises(UsageError):
        apply_gate(StateVector.basis(1, 0), ("H", (1,)))
    with pytest.raises(UsageError):
        apply_gate(StateVector.basis(2, 0), ("CNOT", (0, 0)))


def test_embedded_unitary_matches_apply_gate():
    rng = np.random.default_rng(6)
    psi = random_state_vector(3, rng)
    u = embedded_unitary(3, "CNOT", (2, 0))
    assert np.allclose(u @ psi.amplitudes, apply_gate(psi, ("CNOT", (2, 0))).amplitudes)


def _placed(kind, n, rng):
    """The gate kind on distinct random qubits, in random (unsorted) order."""
    arity = GATE_MATRICES[kind].shape[0].bit_length() - 1
    return kind, tuple(int(q) for q in rng.permutation(n)[:arity])


@pytest.mark.parametrize("n", range(1, 7))
def test_build_unitary_equals_embedded_product_exactly(n):
    # every gate kind that fits, after a random prefix so the running matrix
    # is dense
    rng = np.random.default_rng(100 + n)
    kinds = [kind for kind, mat in sorted(GATE_MATRICES.items()) if mat.shape[0] <= 2**n]
    for kind in kinds:
        gates = [_placed(str(k), n, rng) for k in rng.choice(kinds, size=6)]
        gates.append(_placed(kind, n, rng))
        circuit = Circuit(n, 0, tuple(Gate(k, q) for k, q in gates))
        assert np.array_equal(build_unitary(circuit), circuit_unitary(n, gates)), gates


def test_build_unitary_of_empty_circuit():
    assert np.allclose(build_unitary(Circuit(2, 0, ())), np.eye(4))


def test_build_unitary_is_unitary():
    circuit = Circuit(3, 0, (Gate("H", (0,)), Gate("CNOT", (0, 2)), Gate("S", (1,))))
    u = build_unitary(circuit)
    assert np.allclose(u @ u.conj().T, np.eye(8))


def test_ladder_unitary_on_basis_state():
    # the two-rung ladder sends |10> to |01>
    u = build_unitary(ladder_circuit(2))
    assert np.allclose(u @ StateVector.basis(2, 0b10).amplitudes,
                       StateVector.basis(2, 0b01).amplitudes)


def test_partial_trace_of_bell_pair():
    bell = _density(
        apply_gate(apply_gate(StateVector.basis(2, 0), ("H", (0,))), ("CNOT", (0, 1)))
    )
    assert np.allclose(partial_trace_dense(bell, [0]), np.eye(2) / 2)
    assert np.allclose(partial_trace_dense(bell, [1]), np.eye(2) / 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(7)
    a = random_density_matrix(1, rng)
    b = random_density_matrix(2, rng)
    assert np.allclose(partial_trace_dense(np.kron(a, b), [1, 2]), a)


@pytest.mark.parametrize(
    "pair,expected",
    [
        ((0, 0), 0.0),
        ((0, 1), 1.0),
    ],
)
def test_trace_distance_of_basis_states(pair, expected):
    a = _density(StateVector.basis(1, pair[0]))
    b = _density(StateVector.basis(1, pair[1]))
    assert trace_distance(a, b) == pytest.approx(expected)


def test_trace_distance_zero_plus():
    zero = StateVector.basis(1, 0)
    plus = apply_gate(zero, ("H", (0,)))
    got = trace_distance(_density(zero), _density(plus))
    assert got == pytest.approx(0.7071067811865476)


def test_measure_z_branches_are_complete():
    rng = np.random.default_rng(8)
    psi = random_state_vector(3, rng)
    branches = measure_z(psi, 1)
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0)
    for outcome, _, post in branches:
        again = measure_z(post, 1)
        assert len(again) == 1 and again[0][0] == outcome


def test_measure_z_skips_impossible_outcome():
    branches = measure_z(StateVector.basis(2, 0b00), 0)
    assert [b for b, _, _ in branches] == [0]


def _amplitudes_at_cutoff():
    """Two amplitudes whose squares sum, in measure_z's order, to
    PROBABILITY_CUTOFF exactly. No float squares to 1e-14 itself, so the
    first is the square root of the cutoff, rounded below it, and the second
    is searched among the np.nextafter neighbours of the square root of what
    the first leaves."""
    a = np.sqrt(PROBABILITY_CUTOFF)
    while a * a >= PROBABILITY_CUTOFF:
        a = np.nextafter(a, 0.0)
    below = above = np.sqrt(PROBABILITY_CUTOFF - a * a)
    for _ in range(64):
        for b in (below, above):
            if a * a + b * b == PROBABILITY_CUTOFF:
                return a, b
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
    raise AssertionError("no amplitudes reach the cutoff")


def test_measure_z_drops_an_outcome_at_the_cutoff_exactly():
    a, b = _amplitudes_at_cutoff()
    psi = StateVector(2, np.array([np.sqrt(1.0 - PROBABILITY_CUTOFF), 0.0, a, b]))
    assert [outcome for outcome, _, _ in measure_z(psi, 0)] == [0]


def test_run_circuit_without_measurements():
    circuit = Circuit(2, 0, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    branches = run_circuit(circuit, StateVector.basis(2, 0))
    ((bits, prob, state),) = branches
    assert bits == ()
    assert prob == pytest.approx(1.0)
    assert state.amplitudes[0b00] == pytest.approx(_SQRT_HALF)
    assert state.amplitudes[0b11] == pytest.approx(_SQRT_HALF)


def test_run_circuit_conditioned_correction():
    # measure a plus state, then flip conditioned on the outcome: both
    # branches land back on |0>
    circuit = Circuit(
        1,
        1,
        (
            Gate("H", (0,)),
            Gate("MEASURE_Z", (0,), classical_bit=0),
            Gate("X", (0,), condition="b0"),
        ),
    )
    branches = run_circuit(circuit, StateVector.basis(1, 0))
    assert len(branches) == 2
    assert sorted(bits[0] for bits, _, _ in branches) == [0, 1]
    for bits, prob, state in branches:
        assert prob == pytest.approx(0.5)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0)


def test_run_circuit_xor_condition():
    circuit = Circuit(
        2,
        2,
        (
            Gate("H", (0,)),
            Gate("H", (1,)),
            Gate("MEASURE_Z", (0,), classical_bit=0),
            Gate("MEASURE_Z", (1,), classical_bit=1),
            Gate("X", (0,), condition="b0^b1"),
        ),
    )
    branches = run_circuit(circuit, StateVector.basis(2, 0))
    assert len(branches) == 4
    for bits, prob, state in branches:
        assert prob == pytest.approx(0.25)
        flipped = bits[0] ^ bits[1]
        top = bits[0] ^ flipped
        assert abs(state.amplitudes[2 * top + bits[1]]) == pytest.approx(1.0)


def test_state_vector_validation():
    with pytest.raises(UsageError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(UsageError):
        StateVector(2, np.array([1.0, 0.0]))


def test_dense_cap_guard():
    with pytest.raises(ResourceError):
        StateVector.basis(13, 0)


def test_random_state_vector_is_normalized():
    rng = np.random.default_rng(9)
    for _ in range(5):
        psi = random_state_vector(4, rng)
        assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0)


def test_random_density_matrix_is_a_state():
    rng = np.random.default_rng(10)
    rho = random_density_matrix(3, rng)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
