"""Dense state-vector reference simulator."""

from types import SimpleNamespace

import numpy as np
import pytest

from qsslab.circuits import GATE_ARITY, Circuit, Gate, ladder_circuit
from qsslab.dense import (
    GATE_MATRICES,
    PROBABILITY_CUTOFF,
    _SLAB_ENTRIES,
    StateVector,
    _apply_unitary_vec,
    build_unitary,
    monomial_unitary,
    partial_trace_dense,
    random_state_vector,
    run_circuit,
    trace_distance,
)
from qsslab.errors import ResourceError, UsageError

from reference import (
    branches,
    circuit_unitary,
    embedded_unitary,
    monomial_matrix,
    random_density_matrix,
)

_SQRT_HALF = 2.0**-0.5


def _density(psi):
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


@pytest.mark.parametrize("kind", sorted(GATE_MATRICES))
def test_gate_matrices_are_unitary(kind):
    u = GATE_MATRICES[kind]
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))


def _run_gate(kind, qubits, state):
    """The amplitudes after one gate, run as a one-gate circuit."""
    circuit = Circuit(state.num_qubits, 0, (Gate(kind, qubits),))
    ((_, _, out),) = run_circuit(circuit, state)
    return out.amplitudes


def _measure(state, qubit):
    """[(outcome, probability, post-state)] of one Z measurement."""
    circuit = Circuit(state.num_qubits, 1, (Gate("MEASURE_Z", (qubit,), classical_bit=0),))
    return [(bits[0], p, post) for bits, p, post in run_circuit(circuit, state)]


def test_hadamard_makes_plus_state():
    out = _run_gate("H", (0,), StateVector.basis(1, 0))
    assert np.allclose(out, [_SQRT_HALF, _SQRT_HALF])


def test_cnot_on_basis_states():
    # qubit 0 is the most significant bit of the basis index
    out = _run_gate("CNOT", (0, 1), StateVector.basis(2, 0b10))
    assert out[0b11] == pytest.approx(1.0)
    out = _run_gate("CNOT", (0, 1), StateVector.basis(2, 0b01))
    assert out[0b01] == pytest.approx(1.0)


def test_toffoli_flips_only_when_both_controls_set():
    out = _run_gate("TOFFOLI", (0, 1, 2), StateVector.basis(3, 0b110))
    assert out[0b111] == pytest.approx(1.0)
    out = _run_gate("TOFFOLI", (0, 1, 2), StateVector.basis(3, 0b100))
    assert out[0b100] == pytest.approx(1.0)


def test_run_circuit_inputs_are_checked_by_gate_and_circuit():
    # run_circuit applies each gate unchecked: Gate refuses a bad kind,
    # arity or repeated qubit, and Circuit an out-of-range qubit or slot
    with pytest.raises(UsageError):
        Gate("MEASURE_Z", (0,))
    with pytest.raises(UsageError):
        Gate("CNOT", (0, 0))
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("H", (1,)),))
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("MEASURE_Z", (0,), classical_bit=0),))
    with pytest.raises(UsageError, match="qubit count mismatch"):
        run_circuit(Circuit(2, 0, ()), StateVector.basis(1, 0))


def test_embedded_unitary_matches_run_circuit():
    rng = np.random.default_rng(6)
    psi = random_state_vector(3, rng)
    u = embedded_unitary(3, "CNOT", (2, 0))
    assert np.allclose(u @ psi.amplitudes, _run_gate("CNOT", (2, 0), psi))


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


_ONE_ENTRY_PER_ROW = [
    kind
    for kind, mat in sorted(GATE_MATRICES.items())
    if (np.count_nonzero(mat, axis=1) == 1).all()
]


def test_every_kind_but_h_takes_the_slab_path():
    assert [kind for kind, entries in _SLAB_ENTRIES.items() if entries is None] == ["H"]
    assert sorted(kind for kind in _SLAB_ENTRIES if kind != "H") == _ONE_ENTRY_PER_ROW


@pytest.mark.parametrize("kind", _ONE_ENTRY_PER_ROW)
def test_slab_path_equals_embedded_reference_exactly(kind, monkeypatch):
    # n = 8 with the gate's qubits far apart and out of order, on a random
    # state and on the row axes of a random matrix; no axis is moved
    n = 8
    arity = GATE_MATRICES[kind].shape[0].bit_length() - 1
    qubits = {1: (6,), 2: (7, 0), 3: (6, 0, 3)}[arity]
    rng = np.random.default_rng(8)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    mat = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    ref = embedded_unitary(n, kind, qubits)

    def no_moveaxis(*args, **kwargs):
        raise AssertionError("the slab path moved an axis")

    kept = vec.copy()
    monkeypatch.setattr(np, "moveaxis", no_moveaxis)
    got_vec = _apply_unitary_vec(vec, n, kind, qubits)
    got_mat = _apply_unitary_vec(mat.reshape(-1), 2 * n, kind, qubits)
    assert np.array_equal(got_vec, ref @ vec)
    assert np.array_equal(got_mat.reshape(2**n, 2**n), ref @ mat)
    assert np.array_equal(vec, kept)  # the input is not written


@pytest.mark.parametrize("n", range(1, 9))
def test_monomial_unitary_equals_build_unitary_exactly(n):
    # every kind with one entry per row that fits, last after a random
    # prefix of them, on distinct qubits in random order
    rng = np.random.default_rng(300 + n)
    kinds = [kind for kind in _ONE_ENTRY_PER_ROW if GATE_MATRICES[kind].shape[0] <= 2**n]
    for kind in kinds:
        gates = [_placed(str(k), n, rng) for k in rng.choice(kinds, size=12)]
        gates.append(_placed(kind, n, rng))
        circuit = Circuit(n, 0, tuple(Gate(k, q) for k, q in gates))
        perm, phase = monomial_unitary(circuit)
        assert np.array_equal(monomial_matrix(perm, phase), build_unitary(circuit)), gates


def test_monomial_unitary_of_empty_circuit_is_the_identity():
    perm, phase = monomial_unitary(Circuit(3, 0, ()))
    assert np.array_equal(perm, np.arange(8))
    assert np.array_equal(phase, np.ones(8))


@pytest.mark.parametrize(
    "gates",
    [
        (Gate("CNOT", (0, 1)), Gate("H", (1,))),
        (Gate("MEASURE_Z", (0,), classical_bit=0), Gate("X", (1,), condition=(0,))),
        # a valid Circuit measures before it conditions, so this one is a bare stand-in
        (Gate("X", (1,), condition=(0,)),),
    ],
    ids=["H", "measured", "conditioned"],
)
def test_monomial_unitary_refuses_h_and_classical_gates(gates):
    circuit = SimpleNamespace(num_qubits=2, gates=gates)
    with pytest.raises(UsageError, match="one entry per row"):
        monomial_unitary(circuit)


def test_monomial_unitary_guards_the_dense_cap():
    with pytest.raises(ResourceError):
        monomial_unitary(Circuit(13, 0, ()))


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
    circuit = Circuit(2, 0, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    ((_, _, pair),) = run_circuit(circuit, StateVector.basis(2, 0))
    bell = _density(pair)
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
    plus = StateVector(1, _run_gate("H", (0,), zero))
    got = trace_distance(_density(zero), _density(plus))
    assert got == pytest.approx(0.7071067811865476)


def test_measure_z_branches_are_complete():
    rng = np.random.default_rng(8)
    psi = random_state_vector(3, rng)
    outcomes = _measure(psi, 1)
    assert sum(p for _, p, _ in outcomes) == pytest.approx(1.0)
    for outcome, _, post in outcomes:
        again = _measure(post, 1)
        assert len(again) == 1 and again[0][0] == outcome


def test_measure_z_skips_impossible_outcome():
    assert [b for b, _, _ in _measure(StateVector.basis(2, 0b00), 0)] == [0]


def _amplitudes_at_cutoff():
    """Two amplitudes whose squares sum, in run_circuit's order, to
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
    assert [outcome for outcome, _, _ in _measure(psi, 0)] == [0]


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
            Gate("X", (0,), condition=(0,)),
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
            Gate("X", (0,), condition=(0, 1)),
        ),
    )
    branches = run_circuit(circuit, StateVector.basis(2, 0))
    assert len(branches) == 4
    for bits, prob, state in branches:
        assert prob == pytest.approx(0.25)
        flipped = bits[0] ^ bits[1]
        top = bits[0] ^ flipped
        assert abs(state.amplitudes[2 * top + bits[1]]) == pytest.approx(1.0)


def _classical_circuit(n, rng):
    """Every gate kind that fits n qubits, four Z measurements each writing
    its own slot, and 16 more gates or measurements, shuffled; each gate
    after the first measurement is conditioned, half the time, on a random
    set of the slots written so far."""
    kinds = [kind for kind, mat in sorted(GATE_MATRICES.items()) if mat.shape[0] <= 2**n]
    order = kinds + ["MEASURE_Z"] * 4 + list(rng.choice(kinds + ["MEASURE_Z"], size=16))
    gates, written = [], 0
    for kind in map(str, rng.permutation(order)):
        arity = GATE_ARITY[kind]
        qubits = tuple(int(q) for q in rng.permutation(n)[:arity])
        if kind == "MEASURE_Z":
            gates.append(Gate(kind, qubits, classical_bit=written))
            written += 1
        elif written and rng.random() < 0.5:
            size = int(rng.integers(1, written + 1))
            slots = tuple(sorted(int(b) for b in rng.choice(written, size=size, replace=False)))
            gates.append(Gate(kind, qubits, condition=slots))
        else:
            gates.append(Gate(kind, qubits))
    return Circuit(n, written, tuple(gates))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_run_circuit_equals_projector_reference(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        circuit = _classical_circuit(n, rng)
        psi = random_state_vector(n, rng)
        got = run_circuit(circuit, psi)
        want = branches(circuit, psi.amplitudes)
        assert [bits for bits, _, _ in got] == [bits for bits, _, _ in want]
        for (_, p, post), (_, q, ref) in zip(got, want):
            assert abs(p - q) <= 1e-12
            assert np.max(np.abs(post.amplitudes - ref)) <= 1e-12


def test_run_circuit_builds_one_state_vector_per_returned_branch(monkeypatch):
    rng = np.random.default_rng(12)
    circuit = _classical_circuit(4, rng)
    psi = random_state_vector(4, rng)
    built = []
    check = StateVector.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        check(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "__init__", counting)
    got = run_circuit(circuit, psi)
    assert len(got) > 1
    assert [id(state) for _, _, state in got] == [id(state) for state in built]


def test_state_vector_validation():
    with pytest.raises(UsageError, match="^state vector is not normalized$"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(UsageError, match="^amplitude vector has wrong length$"):
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
