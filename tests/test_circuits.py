"""Gate/circuit model, ladder construction, share layout, gadget wiring."""

import numpy as np
import pytest

from qsslab.circuits import (
    Circuit,
    Gate,
    ShareLayout,
    evaluate_condition,
    expected_ladder_pauli,
    gates_from_lines,
    ladder_circuit,
    ladder_fanout_circuit,
    magic_state_circuit,
    parse_condition,
    toffoli_gadget,
    transversal_expand,
)
from qsslab.dense import StateVector, build_unitary, run_circuit
from qsslab.errors import UnsupportedGateError, UsageError
from qsslab.paulis import PauliString

from reference import is_column_local, kron_matrix, pauli_operator


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


def test_parse_condition():
    assert parse_condition("b0") == (0,)
    assert parse_condition("b3^b0^b12") == (3, 0, 12)


@pytest.mark.parametrize("bad", ["", "b", "0", "b1^", "b1 ^ b2", "b1&b2", "c1"])
def test_parse_condition_rejects_malformed(bad):
    with pytest.raises(UsageError):
        parse_condition(bad)


def test_evaluate_condition_is_xor():
    bits = [1, 0, 1]
    assert evaluate_condition("b0", bits) is True
    assert evaluate_condition("b0^b2", bits) is False
    assert evaluate_condition("b0^b1^b2", bits) is False
    assert evaluate_condition("b1^b2", bits) is True


# ---------------------------------------------------------------------------
# gates and circuits
# ---------------------------------------------------------------------------


def test_gate_validation():
    with pytest.raises(UsageError):
        Gate("ROTATE", (0,))
    with pytest.raises(UsageError):
        Gate("H", (0, 1))
    with pytest.raises(UsageError):
        Gate("CNOT", (1, 1))
    with pytest.raises(UsageError):
        Gate("MEASURE_Z", (0,))  # no classical slot
    with pytest.raises(UsageError):
        Gate("H", (0,), classical_bit=0)
    with pytest.raises(UsageError):
        Gate("MEASURE_Z", (0,), classical_bit=0, condition="b0")


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("CNOT", (0, 1)),))


def test_circuit_rejects_bit_read_before_write():
    gates = (Gate("X", (0,), condition="b0"),)
    with pytest.raises(UsageError):
        Circuit(1, 1, gates)
    ok = Circuit(
        1, 1, (Gate("MEASURE_Z", (0,), classical_bit=0), Gate("X", (0,), condition="b0"))
    )
    assert len(ok) == 2


def test_circuit_rejects_classical_bit_out_of_range():
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("MEASURE_Z", (0,), classical_bit=0),))


def test_inverse_undoes_circuit():
    circuit = Circuit(2, 0, (Gate("H", (0,)), Gate("S", (1,)), Gate("CNOT", (0, 1))))
    u = build_unitary(circuit)
    v = build_unitary(circuit.inverse())
    assert np.allclose(v @ u, np.eye(4))
    assert [g.kind for g in circuit.inverse()] == ["CNOT", "Sdg", "H"]


def test_inverse_rejects_measurements():
    circuit = Circuit(1, 1, (Gate("MEASURE_Z", (0,), classical_bit=0),))
    with pytest.raises(UsageError):
        circuit.inverse()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_gate_lines_skip_comments_and_blanks():
    text = (
        '# header\n\n{"g": "H", "q": [0]}\n  \n{"g": "CNOT", "q": [0, 1]}\n'
        '{"g": "MEASURE_Z", "q": [1], "c": 0}\n{"g": "Z", "q": [0], "cond": "b0"}\n'
    )
    assert gates_from_lines(text) == [
        Gate("H", (0,)),
        Gate("CNOT", (0, 1)),
        Gate("MEASURE_Z", (1,), classical_bit=0),
        Gate("Z", (0,), condition="b0"),
    ]


def test_gate_lines_reject_garbage():
    with pytest.raises(UsageError):
        gates_from_lines('{"g": "H"}')
    with pytest.raises(UsageError):
        gates_from_lines("not json")


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------


def test_ladder_structure():
    gates = ladder_circuit(4).gates
    assert [g.qubits for g in gates] == [
        (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0),
    ]
    assert all(g.kind == "CNOT" for g in gates)


@pytest.mark.parametrize("m", range(2, 12))
def test_ladder_gate_count(m):
    assert len(ladder_circuit(m)) == 2 * (m - 1)
    assert len(ladder_fanout_circuit(m)) == m - 1


def test_ladder_rejects_single_column():
    with pytest.raises(UsageError):
        ladder_circuit(1)


# frozen closed form of the ladder's conjugation action; the sign on the
# Y image alternates with period four in the column count
EXPECTED_LADDER = {
    (2, "X"): ("IX", 0),
    (2, "Y"): ("ZY", 0),
    (2, "Z"): ("ZZ", 0),
    (3, "X"): ("XXX", 0),
    (3, "Y"): ("YYY", 2),
    (3, "Z"): ("ZZZ", 0),
    (4, "X"): ("IXXX", 0),
    (4, "Y"): ("ZYYY", 2),
    (4, "Z"): ("ZZZZ", 0),
    (5, "X"): ("XXXXX", 0),
    (5, "Y"): ("YYYYY", 0),
    (5, "Z"): ("ZZZZZ", 0),
    (6, "Y"): ("ZYYYYY", 0),
    (7, "Y"): ("YYYYYYY", 2),
}


@pytest.mark.parametrize("m,sigma", sorted(EXPECTED_LADDER))
def test_expected_ladder_pauli_frozen_table(m, sigma):
    letters, phase = EXPECTED_LADDER[(m, sigma)]
    got = expected_ladder_pauli(m, sigma)
    assert got.letters() == letters
    assert got.phase == phase


@pytest.mark.parametrize("m", range(2, 34))
def test_ladder_conjugation_matches_closed_form(m):
    for sigma in "IXYZ":
        op = pauli_operator(PauliString.from_letters(sigma + "I" * (m - 1)))
        ((ps, coeff),) = op.conjugate_circuit(ladder_circuit(m).gates).items()
        expected = expected_ladder_pauli(m, sigma)
        assert (ps.x, ps.z) == (expected.x, expected.z)
        assert coeff == expected.phase_factor()


@pytest.mark.parametrize("m", range(2, 7))
def test_ladder_conjugation_matches_dense(m):
    u = build_unitary(ladder_circuit(m))
    for sigma in "XYZ":
        lhs = u @ kron_matrix(PauliString.from_letters(sigma + "I" * (m - 1))) @ u.conj().T
        assert np.allclose(lhs, kron_matrix(expected_ladder_pauli(m, sigma)), atol=1e-12)


@pytest.mark.parametrize("m", range(2, 7))
def test_fanout_half_action(m):
    # the fan-out rungs alone copy X down the row, leave the top Z alone,
    # and extend Y with X letters
    a = build_unitary(ladder_fanout_circuit(m))
    images = {"X": "X" * m, "Y": "Y" + "X" * (m - 1), "Z": "Z" + "I" * (m - 1)}
    for sigma, word in images.items():
        lhs = a @ kron_matrix(PauliString.from_letters(sigma + "I" * (m - 1))) @ a.conj().T
        assert np.allclose(lhs, kron_matrix(PauliString.from_letters(word)), atol=1e-12)


def test_magic_state_amplitudes():
    ((bits, prob, state),) = run_circuit(magic_state_circuit(), StateVector.basis(3, 0))
    target = np.zeros(8)
    target[[0b000, 0b010, 0b100, 0b111]] = 0.5
    assert np.allclose(state.amplitudes, target)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_layout_indexing():
    layout = ShareLayout(s=3, t=3, n=2)
    assert layout.rows == 6
    assert layout.columns == 3
    assert layout.num_qubits == 18
    assert layout.index_of(1, 1) == 0
    assert layout.index_of(2, 1) == 3
    assert layout.index_of(2, 3) == 5
    assert layout.row_qubits(2) == (3, 4, 5)
    assert layout.column_qubits(1) == (0, 3, 6, 9, 12, 15)


def test_layout_owner_names():
    layout = ShareLayout(s=1, t=0, n=3)
    assert layout.owner(1) == "alice"
    assert layout.owner(2) == "p1"
    assert layout.owner(4) == "p3"
    with pytest.raises(UsageError):
        layout.owner(5)


def test_layout_ancilla_triples():
    layout = ShareLayout(s=3, t=6, n=1)
    assert layout.ancilla_triple_rows(0) == (4, 5, 6)
    assert layout.ancilla_triple_rows(1) == (7, 8, 9)
    with pytest.raises(UsageError):
        layout.ancilla_triple_rows(2)


def test_layout_validation():
    with pytest.raises(UsageError):
        ShareLayout(s=0, t=0, n=1)
    with pytest.raises(UsageError):
        ShareLayout(s=1, t=-3, n=1)
    # the single-column layout is the degenerate plaintext case
    assert ShareLayout(s=3, t=3, n=0).num_qubits == 6


def test_layout_index_bounds():
    layout = ShareLayout(s=2, t=0, n=1)
    with pytest.raises(UsageError):
        layout.index_of(0, 1)
    with pytest.raises(UsageError):
        layout.index_of(1, 3)


# ---------------------------------------------------------------------------
# transversal expansion
# ---------------------------------------------------------------------------


def _odd_layout():
    return ShareLayout(s=3, t=0, n=2)  # three columns


def _even_layout():
    return ShareLayout(s=3, t=0, n=3)  # four columns


def test_expand_cnot_is_columnwise():
    layout = _odd_layout()
    circuit = transversal_expand(Gate("CNOT", (1, 2)), layout)
    assert len(circuit) == layout.columns
    assert is_column_local(circuit, layout)
    assert [g.qubits for g in circuit] == [(0, 3), (1, 4), (2, 5)]


def test_expand_cnot_works_at_even_width():
    layout = _even_layout()
    circuit = transversal_expand(Gate("CNOT", (3, 1)), layout)
    assert len(circuit) == 4
    assert is_column_local(circuit, layout)


def test_expand_hadamard_odd_only():
    circuit = transversal_expand(Gate("H", (2,)), _odd_layout())
    assert [g.kind for g in circuit] == ["H", "H", "H"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("H", (2,)), _even_layout())


def test_expand_cz_odd_only():
    circuit = transversal_expand(Gate("CZ", (1, 3)), _odd_layout())
    assert [g.kind for g in circuit] == ["CZ", "CZ", "CZ"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("CZ", (1, 3)), _even_layout())


def test_expand_phase_gate_twists_with_column_count():
    # 3 columns: logical S is realised by Sdg on every copy; 5 columns: by S
    three = transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=2))
    assert [g.kind for g in three] == ["Sdg", "Sdg", "Sdg"]
    five = transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=4))
    assert [g.kind for g in five] == ["S", "S", "S", "S", "S"]
    three_dagger = transversal_expand(Gate("Sdg", (1,)), ShareLayout(s=1, t=0, n=2))
    assert [g.kind for g in three_dagger] == ["S", "S", "S"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=3))


def test_expand_paulis_at_even_width():
    layout = ShareLayout(s=1, t=0, n=3)
    x = transversal_expand(Gate("X", (1,)), layout)
    assert [(g.kind, g.qubits) for g in x] == [("X", (1,)), ("X", (2,)), ("X", (3,))]
    y = transversal_expand(Gate("Y", (1,)), layout)
    assert [(g.kind, g.qubits) for g in y] == [
        ("Z", (0,)), ("Y", (1,)), ("Y", (2,)), ("Y", (3,)),
    ]
    z = transversal_expand(Gate("Z", (1,)), layout)
    assert [g.kind for g in z] == ["Z", "Z", "Z", "Z"]


def test_expand_paulis_at_odd_width():
    layout = ShareLayout(s=1, t=0, n=2)
    for kind in "XYZ":
        circuit = transversal_expand(Gate(kind, (1,)), layout)
        assert [g.kind for g in circuit] == [kind] * 3


def test_expand_rejects_toffoli_and_bad_rows():
    layout = _odd_layout()
    with pytest.raises(UsageError):
        transversal_expand(Gate("TOFFOLI", (1, 2, 3)), layout)
    with pytest.raises(UsageError):
        transversal_expand(Gate("H", (4,)), layout)


# ---------------------------------------------------------------------------
# the gadget circuit
# ---------------------------------------------------------------------------


def test_gadget_shape():
    layout = ShareLayout(s=3, t=3, n=2)
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    assert gadget.num_qubits == layout.num_qubits
    assert gadget.num_classical_bits == 3 * layout.columns
    measures = [g for g in gadget if g.kind == "MEASURE_Z"]
    assert len(measures) == 3 * layout.columns
    assert is_column_local(gadget, layout)


def test_gadget_measures_data_rows_row_major():
    layout = ShareLayout(s=3, t=3, n=2)
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    measured = [g.qubits[0] for g in gadget if g.kind == "MEASURE_Z"]
    expected = [layout.index_of(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]
    assert measured == expected
    slots = [g.classical_bit for g in gadget if g.kind == "MEASURE_Z"]
    assert slots == list(range(9))


def test_gadget_refuses_even_width():
    layout = ShareLayout(s=3, t=3, n=3)
    with pytest.raises(UnsupportedGateError):
        toffoli_gadget((1, 2, 3), (4, 5, 6), layout)


def test_gadget_rejects_overlapping_rows():
    layout = ShareLayout(s=3, t=3, n=2)
    with pytest.raises(UsageError):
        toffoli_gadget((1, 2, 4), (4, 5, 6), layout)
    with pytest.raises(UsageError):
        toffoli_gadget((1, 2, 3), (4, 5, 7), layout)


def test_gadget_works_on_single_column():
    layout = ShareLayout(s=3, t=3, n=0)
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    assert gadget.num_classical_bits == 3
