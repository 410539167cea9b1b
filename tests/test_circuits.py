"""Gate/circuit model, ladder construction, share layout, gadget wiring."""

import json

import numpy as np
import pytest

from qsslab.circuits import (
    Circuit,
    Gate,
    ShareLayout,
    expected_ladder_pauli,
    gates_from_lines,
    ladder_circuit,
    ladder_fanout_circuit,
    ladder_gates,
    magic_state_circuit,
    toffoli_gadget,
    transversal_expand,
)
from qsslab.dense import StateVector, build_unitary, run_circuit
from qsslab.errors import UnsupportedGateError, UsageError
from qsslab.paulis import PauliString

from reference import condition_slots, is_column_local, kron_matrix, ladder_word, pauli_operator


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


# Scripts measure nothing, so a script line never carries classical control:
# its reader refuses a 'c' or 'cond' key, or a MEASURE_Z, before reading the
# condition text or building the gate
_NO_CLASSICAL_CONTROL = "scripts hold unitary gates only, not MEASURE_Z, 'c' or 'cond'"


def test_parse_condition():
    lines = [
        {"g": "X", "q": [0], "cond": "b0"},
        {"g": "X", "q": [0], "cond": "b3^b0^b12"},
        {"g": "X", "q": [0], "cond": 0},
        {"g": "X", "q": [0], "c": 0},
        {"g": "MEASURE_Z", "q": [0], "c": 0},
        {"g": "MEASURE_Z", "q": [0], "c": "0"},
        {"g": "MEASURE_Z", "q": [0]},
    ]
    for line in lines:
        text = '{"g": "H", "q": [0]}\n' + json.dumps(line)
        with pytest.raises(UsageError) as caught:
            gates_from_lines(text)
        assert str(caught.value) == f"line 2: {_NO_CLASSICAL_CONTROL}", line


@pytest.mark.parametrize("bad", ["", "b", "0", "b1^", "b1 ^ b2", "b1&b2", "c1", "b0\n", "b0 ", "b\u0661"])
def test_parse_condition_rejects_malformed(bad):
    line = json.dumps({"g": "X", "q": [0], "cond": bad})
    with pytest.raises(UsageError, match=f"^line 1: {_NO_CLASSICAL_CONTROL}$"):
        gates_from_lines(line)


def test_condition_is_xor():
    # bits 1, 0, 1 are written, then each condition flips its own qubit
    flips = {(0,): True, (0, 2): False, (0, 1, 2): False, (1, 2): True, (): False}
    gates = [Gate("X", (0,)), Gate("X", (2,))]
    gates += [Gate("MEASURE_Z", (q,), classical_bit=q) for q in range(3)]
    gates += [Gate("X", (3 + j,), condition=c) for j, c in enumerate(flips)]
    ((bits, prob, state),) = run_circuit(Circuit(8, 3, gates), StateVector.basis(8, 0))
    assert bits == (1, 0, 1) and prob == pytest.approx(1.0)
    expected = 0b10100000 | sum(1 << (4 - j) for j, fires in enumerate(flips.values()) if fires)
    assert abs(state.amplitudes[expected]) == pytest.approx(1.0)


def test_gate_refuses_a_text_condition():
    with pytest.raises(UsageError, match="slot tuple"):
        Gate("X", (0,), condition="b0")


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
        Gate("MEASURE_Z", (0,), classical_bit=0, condition=(0,))


def test_circuit_rejects_out_of_range_qubit():
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("CNOT", (0, 1)),))


def test_circuit_rejects_bit_read_before_write():
    gates = (Gate("X", (0,), condition=(0,)),)
    with pytest.raises(UsageError):
        Circuit(1, 1, gates)
    ok = Circuit(
        1, 1, (Gate("MEASURE_Z", (0,), classical_bit=0), Gate("X", (0,), condition=(0,)))
    )
    assert len(ok.gates) == 2


def test_circuit_checks_a_shared_condition_once_it_is_written():
    # one tuple object on two gates: read before the write at the first
    cond = (0,)
    later = (Gate("MEASURE_Z", (0,), classical_bit=0), Gate("X", (0,), condition=cond))
    with pytest.raises(UsageError, match="before it is written"):
        Circuit(1, 1, (Gate("X", (0,), condition=cond),) + later)
    with pytest.raises(UsageError, match="repeats a bit slot"):
        Circuit(1, 1, later[:1] + (Gate("X", (0,), condition=(0, 0)),))


def test_circuit_rejects_classical_bit_out_of_range():
    with pytest.raises(UsageError):
        Circuit(1, 0, (Gate("MEASURE_Z", (0,), classical_bit=0),))


def test_inverse_undoes_circuit():
    circuit = Circuit(2, 0, (Gate("H", (0,)), Gate("S", (1,)), Gate("CNOT", (0, 1))))
    u = build_unitary(circuit)
    v = build_unitary(circuit.inverse())
    assert np.allclose(v @ u, np.eye(4))
    assert [g.kind for g in circuit.inverse().gates] == ["CNOT", "Sdg", "H"]


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
        '# {"g": "MEASURE_Z", "q": [1], "c": 0}\n'
    )
    assert gates_from_lines(text) == [Gate("H", (0,)), Gate("CNOT", (0, 1))]


@pytest.mark.parametrize(
    "second, message",
    [
        ({"g": "ROTATE", "q": [1]}, "line 2: unknown gate kind 'ROTATE'"),
        ({"g": "X", "q": [1], "cond": "b0^"}, "line 2: scripts hold"),
        ({"g": "CNOT", "q": [1]}, "line 2: CNOT takes 2 qubits, got 1"),
    ],
)
def test_gate_lines_name_the_line_of_a_gate_error(second, message):
    text = '{"g": "H", "q": [0]}\n' + json.dumps(second)
    with pytest.raises(UsageError) as caught:
        gates_from_lines(text)
    assert str(caught.value).startswith(message)


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
    assert len(ladder_circuit(m).gates) == 2 * (m - 1)
    assert len(ladder_fanout_circuit(m).gates) == m - 1


def test_ladder_rejects_single_column():
    with pytest.raises(UsageError):
        ladder_circuit(1)
    with pytest.raises(UsageError):
        ladder_gates(1)


def test_ladder_circuit_holds_the_ladder_gates_themselves():
    # the symbolic ladder sweep conjugates ladder_gates(m) with no Circuit
    # built; the cached circuit must hold those very Gate objects
    for m in range(2, 102):
        assert all(a is b for a, b in zip(ladder_circuit(m).gates, ladder_gates(m), strict=True))


def test_ladders_nest():
    # verify-ladder checks every width of a chunk against one run of its
    # widest ladder: ladder_gates(m) must be exactly the gates of
    # ladder_gates(hi) on qubits below m, in the same order
    for hi in range(2, 201):
        gates = ladder_gates(hi)
        tops = [max(g.qubits) for g in gates]
        for m in range(2, hi + 1):
            assert ladder_gates(m) == tuple(g for g, j in zip(gates, tops) if j < m)


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


def test_expected_ladder_pauli_masks_match_the_letter_words():
    # past m = 64 the x and z masks span two 64-bit words
    for m in range(1, 102):
        for sigma in "IXYZ":
            got, want = expected_ladder_pauli(m, sigma), ladder_word(m, sigma)
            assert (got.x, got.z, got.phase) == (want.x, want.z, want.phase), (m, sigma)


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


_LAYOUT_BOUNDS = "layout needs s >= 1, t >= 0, n >= 0"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gate("ROTATE", (0,)), "unknown gate kind 'ROTATE'"),
        (lambda: Gate("H", (0, 1)), "H takes 1 qubits, got 2"),
        (lambda: Gate("CNOT", [1, 1]), "CNOT qubits must be distinct"),
        (lambda: Gate("MEASURE_Z", (0,)), "MEASURE_Z needs a classical bit slot"),
        (lambda: Gate("MEASURE_Z", (0,), 0, (0,)), "measurements cannot be conditioned"),
        (lambda: Gate("H", (0,), classical_bit=0), "only MEASURE_Z writes a classical bit"),
        (lambda: Gate("X", (0,), condition=[0]), "a condition is a slot tuple, not list"),
        (lambda: ShareLayout(s=0, t=0, n=1), _LAYOUT_BOUNDS),
        (lambda: ShareLayout(s=1, t=-3, n=1), _LAYOUT_BOUNDS),
        (lambda: ShareLayout(s=1, t=0, n=-1), _LAYOUT_BOUNDS),
        (lambda: Circuit(2, 0, [Gate("H", (2,))]), "gate H touches qubit 2, out of range"),
        (
            lambda: Circuit(1, 1, (Gate("MEASURE_Z", (0,), 0), Gate("X", (0,), condition=(0, 0)))),
            "condition (0, 0) repeats a bit slot",
        ),
        (
            lambda: Circuit(1, 2, (Gate("X", (0,), condition=(1,)),)),
            "condition (1,) reads bit b1 before it is written",
        ),
        (lambda: Circuit(1, 1, (Gate("MEASURE_Z", (0,), 1),)), "classical bit b1 out of range"),
    ],
    ids=[
        "gate-kind", "gate-arity", "gate-repeated-qubit", "gate-measure-without-slot",
        "gate-conditioned-measure", "gate-slot-without-measure", "gate-list-condition",
        "layout-s", "layout-t", "layout-n", "circuit-qubit", "circuit-repeated-slot",
        "circuit-unwritten-slot", "circuit-slot-range",
    ],
)
def test_records_refuse_bad_fields_with_their_messages(build, message):
    with pytest.raises(UsageError) as refused:
        build()
    assert str(refused.value) == message


def test_gate_and_layout_take_keywords_and_defaults():
    gate = Gate(kind="CNOT", qubits=[0, 1])
    assert gate == Gate("CNOT", (0, 1), None, None)
    assert (gate.kind, gate.qubits, gate.classical_bit, gate.condition) == ("CNOT", (0, 1), None, None)
    measure = Gate("MEASURE_Z", (0,), classical_bit=2)
    assert (measure.classical_bit, measure.condition) == (2, None)
    assert Gate("X", (0,), condition=(2,)).condition == (2,)
    layout = ShareLayout(t=3, n=2, s=1)
    assert layout == ShareLayout(1, 3, 2) and (layout.s, layout.t, layout.n) == (1, 3, 2)


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
    assert len(circuit.gates) == layout.columns
    assert is_column_local(circuit, layout)
    assert [g.qubits for g in circuit.gates] == [(0, 3), (1, 4), (2, 5)]


def test_expand_cnot_works_at_even_width():
    layout = _even_layout()
    circuit = transversal_expand(Gate("CNOT", (3, 1)), layout)
    assert len(circuit.gates) == 4
    assert is_column_local(circuit, layout)


def test_expand_hadamard_odd_only():
    circuit = transversal_expand(Gate("H", (2,)), _odd_layout())
    assert [g.kind for g in circuit.gates] == ["H", "H", "H"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("H", (2,)), _even_layout())


def test_expand_cz_odd_only():
    circuit = transversal_expand(Gate("CZ", (1, 3)), _odd_layout())
    assert [g.kind for g in circuit.gates] == ["CZ", "CZ", "CZ"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("CZ", (1, 3)), _even_layout())


def test_expand_phase_gate_twists_with_column_count():
    # 3 columns: logical S is realised by Sdg on every copy; 5 columns: by S
    three = transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=2))
    assert [g.kind for g in three.gates] == ["Sdg", "Sdg", "Sdg"]
    five = transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=4))
    assert [g.kind for g in five.gates] == ["S", "S", "S", "S", "S"]
    three_dagger = transversal_expand(Gate("Sdg", (1,)), ShareLayout(s=1, t=0, n=2))
    assert [g.kind for g in three_dagger.gates] == ["S", "S", "S"]
    with pytest.raises(UnsupportedGateError):
        transversal_expand(Gate("S", (1,)), ShareLayout(s=1, t=0, n=3))


def test_expand_paulis_at_even_width():
    layout = ShareLayout(s=1, t=0, n=3)
    x = transversal_expand(Gate("X", (1,)), layout)
    assert [(g.kind, g.qubits) for g in x.gates] == [("X", (1,)), ("X", (2,)), ("X", (3,))]
    y = transversal_expand(Gate("Y", (1,)), layout)
    assert [(g.kind, g.qubits) for g in y.gates] == [
        ("Z", (0,)), ("Y", (1,)), ("Y", (2,)), ("Y", (3,)),
    ]
    z = transversal_expand(Gate("Z", (1,)), layout)
    assert [g.kind for g in z.gates] == ["Z", "Z", "Z", "Z"]


def test_expand_paulis_at_odd_width():
    layout = ShareLayout(s=1, t=0, n=2)
    for kind in "XYZ":
        circuit = transversal_expand(Gate(kind, (1,)), layout)
        assert [g.kind for g in circuit.gates] == [kind] * 3


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
    measures = [g for g in gadget.gates if g.kind == "MEASURE_Z"]
    assert len(measures) == 3 * layout.columns
    assert is_column_local(gadget, layout)


def test_gadget_measures_data_rows_row_major():
    layout = ShareLayout(s=3, t=3, n=2)
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    measured = [g.qubits[0] for g in gadget.gates if g.kind == "MEASURE_Z"]
    expected = [layout.index_of(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]
    assert measured == expected
    slots = [g.classical_bit for g in gadget.gates if g.kind == "MEASURE_Z"]
    assert slots == list(range(9))


def test_gadget_conditions_are_row_parities_at_n_1000():
    # each correction reads the XOR of its row's m bits: c1's bits first,
    # then c2's, then t's (the text form was "b0^b1^...^b1000" for c1)
    layout = ShareLayout(s=3, t=3, n=1000)
    m = layout.columns
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    texts = ["^".join(f"b{b}" for b in range(i * m, (i + 1) * m)) for i in range(3)]
    # the corrected gate's kind and first row name the measured row it reads
    row_of = {("X", 4): 0, ("CNOT", 5): 0, ("X", 5): 1, ("CNOT", 4): 1, ("Z", 6): 2, ("CZ", 4): 2}
    shared = {0: set(), 1: set(), 2: set()}
    counts = [0, 0, 0]
    for g in gadget.gates:
        if g.condition is None:
            continue
        i = row_of[g.kind, g.qubits[0] // m + 1]
        assert g.condition == condition_slots(texts[i])
        shared[i].add(id(g.condition))
        counts[i] += 1
    assert counts == [2 * m] * 3
    assert all(len(ids) == 1 for ids in shared.values())


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
