"""Deal / evaluate / reconstruct over the share grid."""

import warnings
from functools import reduce

import numpy as np
import pytest

from qsslab import protocol
from qsslab.audit import AuditReport, Coalition, ParityRegimeReport
from qsslab.circuits import (
    GATE_ARITY,
    Circuit,
    Gate,
    ShareLayout,
    ladder_circuit,
    toffoli_gadget,
    transversal_expand,
)
from qsslab.dense import trace_distance
from qsslab.errors import ProtocolError, ResourceError, UsageError
from qsslab.paulis import PauliOperator, PauliString
from qsslab.protocol import (
    DEFAULT_BRANCH_CAP,
    PROBABILITY_CUTOFF,
    EvaluationScript,
    SchemeParams,
    _Group,
    _run_gadget,
    canonical_secret_family,
    deal,
    encoding_circuit,
    evaluate,
    load_secret,
    logical_unitary,
    magic_state_operator,
    parse_secret,
    reconstruct,
)

from reference import (
    coeff,
    announce_distribution,
    basis_secret,
    dense_plus_secret,
    flat_deal,
    generic_secret,
    joint_distribution,
    maximally_mixed,
    parity,
    pauli_operator,
    random_clifford_script,
    random_density_matrix,
    supported_logical_kinds,
)


def _operator_distance(a, b):
    diff = a.add(b.scaled(-1.0))
    if diff.num_terms == 0:
        return 0.0
    return max(abs(c) for _, c in diff.items())


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_strict_params():
    params = SchemeParams.strict(n=2, k=1, kprime=2)
    assert (params.s, params.t) == (3, 6)
    assert params.budget == 2
    assert params.strict_mode


def test_relaxed_params():
    params = SchemeParams(n=3, s=2, t=3)
    assert (params.s, params.t) == (2, 3)
    assert not params.strict_mode
    assert params.budget == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: SchemeParams.strict(n=0, k=1, kprime=1),
        lambda: SchemeParams.strict(n=2, k=0, kprime=1),
        lambda: SchemeParams.strict(n=2, k=2, kprime=3),  # k'/k not an integer
        lambda: SchemeParams(n=2, s=0, t=0),
        lambda: SchemeParams(n=2, s=1, t=-3),
        lambda: SchemeParams(n=2, s=3, t=4),  # partial triple
        lambda: SchemeParams(n=2, s=2, t=3, strict_mode=True),  # s not 3k
        lambda: SchemeParams(n=2, s=3, t=0, strict_mode=True),  # no triple
    ],
)
def test_invalid_params_rejected(build):
    with pytest.raises(UsageError):
        build()


def test_layout_matches_params():
    layout = SchemeParams.strict(n=2, k=1, kprime=1).layout()
    assert (layout.s, layout.t, layout.n) == (3, 3, 2)


_TRIPLES = "ancilla rows must come in triples"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SchemeParams(n=0, s=1, t=0), "need at least one participant besides the dealer"),
        (lambda: SchemeParams(n=2, s=0, t=0), "need at least one secret row"),
        (lambda: SchemeParams(n=2, s=1, t=-3), _TRIPLES),
        (lambda: SchemeParams(n=2, s=3, t=4), _TRIPLES),
        (lambda: SchemeParams(n=2, s=2, t=3, strict_mode=True), "strict mode requires s = 3k"),
        (lambda: SchemeParams(n=2, s=3, t=0, strict_mode=True), "strict mode requires k' >= 1"),
        (
            lambda: SchemeParams(2, 6, 3, True),
            "strict mode requires k'/k to be a positive integer",
        ),
        (lambda: EvaluationScript(3, [Gate("MEASURE_Z", (1,), 0)]), "MEASURE_Z is not a logical script gate"),
        (
            lambda: EvaluationScript(3, (Gate("X", (1,), condition=(0,)),)),
            "script gates carry no conditions or bits",
        ),
        (lambda: EvaluationScript(3, (Gate("H", (4,)),)), "logical row 4 out of range 1..3"),
        (
            lambda: protocol.SharedState(SchemeParams(2, 1, 0).layout(), PauliOperator.zero(4), frozenset()),
            "core size does not match the layout's secret rows",
        ),
        (
            lambda: protocol.SharedState(SchemeParams(2, 1, 3).layout(), PauliOperator.zero(3), frozenset({1})),
            "unconsumed triples outside the layout",
        ),
    ],
    ids=[
        "params-n", "params-s", "params-negative-t", "params-partial-triple", "params-strict-s",
        "params-strict-no-triple", "params-strict-ratio", "script-kind", "script-condition",
        "script-row", "state-core", "state-triples",
    ],
)
def test_records_refuse_bad_fields_with_their_messages(build, message):
    with pytest.raises(UsageError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "build, other, field",
    [
        (lambda: Gate("MEASURE_Z", [2], classical_bit=1), lambda: Gate("MEASURE_Z", (2,), 0), "qubits"),
        (lambda: Gate("X", (0,), condition=(1, 2)), lambda: Gate("X", (0,), condition=(2, 1)), "condition"),
        (lambda: ShareLayout(s=3, t=3, n=2), lambda: ShareLayout(s=3, t=3, n=4), "n"),
        (lambda: SchemeParams(n=2, s=3, t=3), lambda: SchemeParams(2, 3, 3, True), "strict_mode"),
        (lambda: PauliString(3, 0b101, 0b110, 2), lambda: PauliString(3, 0b101, 0b110), "phase"),
        (lambda: Coalition(n=3, columns=(1, 3)), lambda: Coalition(3, (1, 4)), "columns"),
        (
            lambda: protocol.BitOrigin(slot=4, gadget_id=0, triple=0, row=2, column=2, participant="p1"),
            lambda: protocol.BitOrigin(4, 0, 0, 2, 3, "p2"),
            "participant",
        ),
        (
            lambda: AuditReport(SchemeParams(2, 1, 0), Coalition(2, (1, 2)), "odd", 0, 0.0, "pass", ()),
            lambda: AuditReport(SchemeParams(2, 1, 0), Coalition(2, (1, 3)), "odd", 0, 0.0, "pass", ()),
            "coalition",
        ),
        (
            lambda: ParityRegimeReport("odd", ("II",), "pass", ()),
            lambda: ParityRegimeReport("odd", ("II",), "fail", ()),
            "verdict",
        ),
    ],
    ids=[
        "Gate", "Gate-condition", "ShareLayout", "SchemeParams", "PauliString", "Coalition",
        "BitOrigin", "AuditReport", "ParityRegimeReport",
    ],
)
def test_value_records_compare_and_hash_by_value(build, other, field):
    # layouts and gate tuples are @cache keys, so equal records must hash alike
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other()
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.spare = "one more field"


def test_params_and_bit_origins_take_keywords_and_defaults():
    params = SchemeParams(t=3, s=3, n=2)
    assert params == SchemeParams(2, 3, 3, False) and params.strict_mode is False
    assert SchemeParams(n=2, s=3, t=3, strict_mode=True) == SchemeParams.strict(n=2, k=1, kprime=1)
    origin = protocol.BitOrigin(participant="alice", column=1, row=1, triple=0, gadget_id=0, slot=0)
    assert origin == protocol.BitOrigin(0, 0, 0, 1, 1, "alice")
    assert (origin.slot, origin.row, origin.column, origin.participant) == (0, 1, 1, "alice")


def test_states_with_equal_contents_stay_two_keys():
    # states hash by identity, and each caches its flat operator
    params = SchemeParams(n=2, s=1, t=3)
    first, second = deal(params, basis_secret(1, 0)), deal(params, basis_secret(1, 0))
    assert first.core == second.core and first.state == second.state
    assert first != second and len(dict.fromkeys([first, second, first])) == 2
    assert first.state is first.state and vars(first)["state"] is first.state


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------


def test_script_validation():
    EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)), Gate("H", (2,))))
    with pytest.raises(UsageError):
        EvaluationScript(3, (Gate("H", (4,)),))
    with pytest.raises(UsageError):
        EvaluationScript(3, (Gate("H", (0,)),))
    with pytest.raises(UsageError):
        EvaluationScript(3, (Gate("MEASURE_Z", (1,), classical_bit=0),))
    with pytest.raises(UsageError):
        EvaluationScript(3, (Gate("MEASURE_Z", (1,), classical_bit=0), Gate("X", (1,), condition=(0,))))


def test_script_from_lines():
    text = '{"g": "TOFFOLI", "q": [1, 2, 3]}\n{"g": "CZ", "q": [1, 3]}\n'
    script = EvaluationScript.from_lines(text, 3)
    assert script.toffoli_count == 1
    assert [g.kind for g in script.gates] == ["TOFFOLI", "CZ"]


def test_supported_logical_kinds_by_parity():
    assert "H" in supported_logical_kinds(3)
    assert "CZ" in supported_logical_kinds(5)
    assert supported_logical_kinds(4) == ("X", "Y", "Z", "CNOT")


def test_random_clifford_script_respects_parity():
    rng = np.random.default_rng(0)
    script = random_clifford_script(4, num_rows=3, length=20, rng=rng)
    assert len(script.gates) == 20
    assert {g.kind for g in script.gates} <= set(supported_logical_kinds(4))
    assert script.toffoli_count == 0


@pytest.mark.parametrize("m", range(2, 8))
def test_every_supported_kind_acts_logically(m):
    """Each kind supported at m, alone on a random mixed 2-row secret,
    reconstructs to its logical action: both even classes, and odd m on
    both sides of the S/Sdg swap (m = 1 and 3 mod 4)."""
    params = SchemeParams(n=m - 1, s=2, t=0)
    rng = np.random.default_rng(800 + m)
    secret = random_density_matrix(2, rng)
    shared = deal(params, secret)
    for kind in supported_logical_kinds(m):
        script = EvaluationScript(2, (Gate(kind, (2, 1)[: GATE_ARITY[kind]]),))
        (branch,), _ = evaluate(shared, script)
        u = logical_unitary(script)
        got = reconstruct(branch).to_dense()
        assert trace_distance(got, u @ secret @ u.conj().T) < 1e-10, kind


def test_logical_unitary_row_order():
    script = EvaluationScript(2, (Gate("H", (1,)),))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(logical_unitary(script), np.kron(h, np.eye(2)))


# ---------------------------------------------------------------------------
# dealing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoding_circuit_is_the_ladder_on_every_row(n):
    layout = SchemeParams(n=n, s=2, t=3).layout()
    ladder = ladder_circuit(n + 1).gates
    gates = encoding_circuit(layout).gates
    assert len(gates) == layout.rows * len(ladder)
    for x in range(1, layout.rows + 1):
        row = layout.row_qubits(x)
        block = gates[(x - 1) * len(ladder) : x * len(ladder)]
        assert block == tuple(Gate(g.kind, tuple(row[q] for q in g.qubits)) for g in ladder)


def test_deal_produces_trace_one_grid_state():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0))
    assert shared.state.num_qubits == 18
    assert shared.state.trace() == pytest.approx(1.0)
    assert shared.available_triples == (0,)


def _dealt_word(params, word, coeff):
    """Deal the secret with <I> = 1 and <word> = coeff (a state for
    |coeff| <= 1) and return the one non-identity dealt term."""
    s = len(word)
    secret = PauliOperator.from_terms(
        s, [(PauliString.identity(s), 1.0), (PauliString.from_letters(word), coeff)]
    )
    shared = deal(params, secret)
    assert shared.state.num_terms == 2
    ((ps, c),) = [(ps, c) for ps, c in shared.state.items() if ps.x | ps.z]
    return ps, c


def test_deal_worked_example_odd_width():
    # five columns: every letter of the secret word is copied down its row
    params = SchemeParams(n=4, s=3, t=0)
    ps, coeff = _dealt_word(params, "XYZ", 0.30 * 0.24 * 0.18)
    assert ps.letters() == "XXXXX" + "YYYYY" + "ZZZZZ"
    expected = 0.30 * 0.24 * 0.18
    assert coeff == pytest.approx(expected)


def test_deal_worked_example_even_width():
    # six columns: X keeps the dealer column clear, Y and Z mark it with Z
    params = SchemeParams(n=5, s=3, t=0)
    ps, coeff = _dealt_word(params, "XYZ", 0.30 * 0.24 * 0.18)
    assert ps.letters() == "IXXXXX" + "ZYYYYY" + "ZZZZZZ"
    expected = 0.30 * 0.24 * 0.18
    assert coeff == pytest.approx(expected)


def test_deal_worked_example_negative_y_sign():
    # four columns sit in the sign-flipping half of the period-four cycle
    params = SchemeParams(n=3, s=1, t=0)
    ps, coeff = _dealt_word(params, "Y", 0.24)
    assert ps.letters() == "ZYYY"
    assert coeff == pytest.approx(-0.24)


def test_deal_of_maximally_mixed_secret_is_trivial():
    params = SchemeParams(n=3, s=2, t=0)
    shared = deal(params, maximally_mixed(2))
    assert shared.state.num_terms == 1
    ((ps, _),) = shared.state.items()
    assert ps == PauliString.identity(8)


def test_deal_validates_secret():
    params = SchemeParams(n=2, s=2, t=0)
    with pytest.raises(UsageError):
        deal(params, basis_secret(3, 0))  # wrong size
    with pytest.raises(UsageError):
        deal(params, maximally_mixed(2).scaled(2.0))  # trace 2
    with pytest.raises(UsageError):
        deal(params, pauli_operator(PauliString.from_letters("XI"), 1j))


def test_deal_at_the_last_normal_float64_scale_round_trips():
    # 1,022 qubits: a coefficient scaled by 2^-N would be 2^-1022 on the
    # identity, float64's smallest normal number; <I> is 1 at any size
    secret = basis_secret(1, 0)
    shared = deal(SchemeParams(n=1021, s=1, t=0), secret)
    assert shared.state.num_qubits == 1022
    assert shared.state.num_terms == 2
    assert reconstruct(shared).trace_distance(secret) <= 1e-10


@pytest.mark.parametrize("s, t", [(3, 9), (11, 0)])
def test_deal_past_the_normal_float64_range_round_trips(s, t):
    # 1,212 and 1,111 qubits, where 2^-N leaves float64's range (2^-1111
    # is 0.0); a basis secret has 2^s words, each triple brings R's 29
    secret = reduce(PauliOperator.tensor, [basis_secret(1, 1)] * s)
    shared = deal(SchemeParams(n=100, s=s, t=t), secret)
    assert shared.state.num_qubits == 101 * (s + t)
    assert shared.state.num_terms == 2**s * 29 ** (t // 3)
    assert reconstruct(shared).trace_distance(secret) <= 1e-10


@pytest.mark.parametrize("case", ["basis", "generic"])
@pytest.mark.parametrize("n, s, kprime", [(2, 3, 1), (4, 4, 1), (2, 1, 3), (4, 1, 2)])
def test_flat_state_is_the_one_block_deal(n, s, kprime, case):
    # the encoded core tensored with the cached R per triple gives the same
    # words in the same order, with equal coefficients, as encoding the
    # whole grid at once; up to 97,556 terms at (2, 1, 3)
    params = SchemeParams(n=n, s=s, t=3 * kprime)
    secret = basis_secret(s, 2**s - 1) if case == "basis" else generic_secret(s)
    flat = deal(params, secret).state
    want = flat_deal(params, secret)
    assert flat.num_terms == want.num_terms == secret.num_terms * 29**kprime
    assert np.array_equal(flat.x, want.x) and np.array_equal(flat.z, want.z)
    assert np.array_equal(flat.coeffs, want.coeffs)


def test_deal_cost_does_not_grow_with_the_triples(monkeypatch):
    # a deal encodes the secret rows alone, and every triple shares one
    # cached block: after a first deal has built the circuits, k' = 1 and
    # k' = 4 make the same conjugate_circuit calls on the same term counts
    deal(SchemeParams(n=2, s=3, t=3), generic_secret(3))
    calls = []
    real = PauliOperator.conjugate_circuit

    def counting(self, gates):
        gates = list(gates)
        calls.append((self.num_qubits, self.num_terms, len(gates)))
        return real(self, gates)

    monkeypatch.setattr(PauliOperator, "conjugate_circuit", counting)
    seen = []
    for kprime in (1, 4):
        calls.clear()
        shared = deal(SchemeParams(n=2, s=3, t=3 * kprime), generic_secret(3))
        assert shared.core.num_terms == 64
        assert shared.available_triples == tuple(range(kprime))
        seen.append(list(calls))
    assert seen[0] == seen[1] == [(9, 64, 12)]


@pytest.mark.parametrize("mode, seed", [("exact", None), ("sampled", 8)])
def test_a_gadget_leaves_the_unconsumed_triple_intact(mode, seed):
    # one of two triples consumed: on the grid, the first triple's rows are
    # I/2 and the second's still hold the dealt magic state
    params = SchemeParams.strict(n=2, k=1, kprime=2)
    layout = params.layout()
    secret = generic_secret(3)
    script = EvaluationScript(3, (Gate("H", (1,)), Gate("TOFFOLI", (1, 2, 3))))
    states, _ = evaluate(deal(params, secret), script, mode=mode, seed=seed)
    dealt = flat_deal(params, secret)
    u = logical_unitary(script)
    target = u @ secret.to_dense() @ u.conj().T

    def view(op, triple):
        rows = layout.ancilla_triple_rows(triple)
        kept = {q for x in rows for q in layout.row_qubits(x)}
        return op.partial_trace([q for q in range(layout.num_qubits) if q not in kept])

    for branch in dict.fromkeys(states):
        assert branch.unconsumed == frozenset({1})
        assert branch.consumed_ancillas == frozenset({0})
        assert view(branch.state, 1).approx_equal(view(dealt, 1))
        mixed = view(branch.state, 0)
        assert mixed.num_terms == 1 and coeff(mixed, "I" * 9) == pytest.approx(1.0)
        assert trace_distance(reconstruct(branch).to_dense(), target) < 1e-9


def test_a_letter_left_on_a_consumed_row_raises():
    # nine core qubits, then one consumed triple of three 3-column rows
    # holding X on its first qubit
    core = generic_secret(3).embedded(9, range(0, 9, 3))
    stray = PauliOperator.from_terms(
        9, [(PauliString.identity(9), 1.0), (PauliString.from_letters("X" + "I" * 8), 1.0)]
    )
    with pytest.raises(ProtocolError, match="consumed ancilla triple"):
        protocol._settled(core.tensor(stray), (), 9)
    released = protocol._settled(core.tensor(maximally_mixed(9)), (), 9)
    assert released == core


def test_a_gadget_without_its_swap_back_raises(monkeypatch):
    # dropping the trailing CNOTs leaves the teleported rows on the triple
    gadget = protocol.toffoli_gadget

    def no_swap_back(data_rows, ancilla_rows, layout):
        full = gadget(data_rows, ancilla_rows, layout)
        return Circuit(full.num_qubits, full.num_classical_bits, full.gates[: -9 * layout.columns])

    monkeypatch.setattr(protocol, "toffoli_gadget", no_swap_back)
    shared = deal(SchemeParams.strict(n=2, k=1, kprime=1), basis_secret(3, 0b110))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    with pytest.raises(ProtocolError, match="consumed ancilla triple"):
        evaluate(shared, script, mode="sampled", seed=1)


def test_magic_state_operator_shape():
    op = magic_state_operator()
    assert op.num_qubits == 3
    assert op.num_terms == 29
    assert op.trace() == pytest.approx(1.0)
    assert coeff(op, "III") == pytest.approx(1.0)
    assert coeff(op, "IXX") == pytest.approx(0.5)
    # purity: sum of squared expectation values over the dimension is 1
    purity = sum(abs(c) ** 2 for _, c in op.items()) / 8
    assert purity == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_random_secret(n):
    rng = np.random.default_rng(100 + n)
    params = SchemeParams(n=n, s=2, t=0)
    secret = PauliOperator.from_dense(random_density_matrix(2, rng))
    assert _operator_distance(reconstruct(deal(params, secret)), secret) < 1e-12


def test_round_trip_with_ancillas():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    secret = basis_secret(3, 5)
    assert _operator_distance(reconstruct(deal(params, secret)), secret) < 1e-12


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_empty_script_is_identity():
    params = SchemeParams(n=2, s=2, t=0)
    shared = deal(params, basis_secret(2, 1))
    branches, transcript = evaluate(shared, EvaluationScript(2, ()))
    assert len(branches) == 1
    assert branches[0].state == shared.state
    assert transcript.bit_origins == ()
    assert transcript.total_probability() == pytest.approx(1.0)


def test_evaluate_checks_script_and_mode():
    params = SchemeParams(n=2, s=2, t=0)
    shared = deal(params, basis_secret(2, 0))
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(3, ()))
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(2, ()), mode="sampled")  # no seed
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(2, ()), mode="montecarlo")


def test_single_clifford_matches_logical_action():
    params = SchemeParams(n=2, s=3, t=0)
    secret = basis_secret(3, 0)
    script = EvaluationScript(3, (Gate("H", (1,)),))
    (branch,), _ = evaluate(deal(params, secret), script)
    got = reconstruct(branch).to_dense()
    u = logical_unitary(script)
    assert trace_distance(got, u @ secret.to_dense() @ u.conj().T) < 1e-12


def test_cnot_at_even_width():
    params = SchemeParams(n=3, s=2, t=0)
    script = EvaluationScript(2, (Gate("CNOT", (1, 2)),))
    (branch,), _ = evaluate(deal(params, basis_secret(2, 0b10)), script)
    assert _operator_distance(reconstruct(branch), basis_secret(2, 0b11)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_clifford_scripts_compose(n):
    rng = np.random.default_rng(7 * n)
    params = SchemeParams(n=n, s=3, t=0)
    secret = PauliOperator.from_dense(random_density_matrix(3, rng))
    script = random_clifford_script(params.n + 1, 3, 5, rng)
    (branch,), _ = evaluate(deal(params, secret), script)
    u = logical_unitary(script)
    target = u @ secret.to_dense() @ u.conj().T
    assert trace_distance(reconstruct(branch).to_dense(), target) < 1e-10


def test_toffoli_on_basis_input():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0b110))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    branches, transcript = evaluate(shared, script)
    assert len(branches) == 512
    target = basis_secret(3, 0b111)
    assert np.allclose(transcript.probabilities, 1 / 512)
    for branch in branches:
        assert branch.consumed_ancillas == frozenset({0})
        assert branch.available_triples == ()
        assert _operator_distance(reconstruct(branch), target) < 1e-9
    assert transcript.total_probability() == pytest.approx(1.0)
    assert len(transcript.bit_origins) == 9


def test_transcript_bit_origins_follow_the_grid():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    _, transcript = evaluate(shared, script)
    origins = transcript.bit_origins
    assert [o.row for o in origins] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert [o.participant for o in origins[:3]] == ["alice", "p1", "p2"]
    assert all(o.gadget_id == 0 and o.triple == 0 for o in origins)


def test_transcript_joint_distribution():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0))
    _, transcript = evaluate(shared, EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)))
    joint = joint_distribution(transcript)
    assert sum(joint.values()) == pytest.approx(1.0)
    assert len(joint) == 512


def test_toffoli_budget_is_consumed():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0))
    double = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)), Gate("TOFFOLI", (1, 2, 3))))
    with pytest.raises(ProtocolError):
        evaluate(shared, double)
    branches, _ = evaluate(shared, EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)))
    with pytest.raises(ProtocolError):
        evaluate(branches[0], EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)))


def test_second_triple_is_available_after_the_first():
    params = SchemeParams.strict(n=2, k=1, kprime=2)
    shared = deal(params, basis_secret(3, 0))
    assert shared.available_triples == (0, 1)
    branches, _ = evaluate(
        shared, EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)), mode="sampled", seed=4
    )
    assert branches[0].consumed_ancillas == frozenset({0})
    assert branches[0].available_triples == (1,)


def test_exact_branch_cap_raises():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0))
    script = EvaluationScript(3, (Gate("H", (1,)), Gate("TOFFOLI", (1, 2, 3))))
    with pytest.raises(ResourceError, match=r"reached 512 bit histories.* cap of 256.* script gate 1"):
        evaluate(shared, script, branch_cap=256)


def test_sampled_mode_refuses_a_negative_seed():
    shared = deal(SchemeParams(n=2, s=1, t=0), basis_secret(1, 0))
    with pytest.raises(UsageError, match="seed must be non-negative"):
        evaluate(shared, EvaluationScript(1, ()), mode="sampled", seed=-1)


def test_sampled_mode_is_reproducible():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0b101))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)), Gate("H", (2,))))
    first, tr1 = evaluate(shared, script, mode="sampled", seed=123)
    second, tr2 = evaluate(shared, script, mode="sampled", seed=123)
    assert len(first) == len(second) == 1
    assert tr1.branches == tr2.branches
    assert first[0].state == second[0].state
    assert tr1.probabilities[0] == pytest.approx(1 / 512)
    # the draws this seed has always made: merging must not change how the
    # generator is consumed
    ((bits, prob),) = tr1.branches
    assert bits == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert prob == pytest.approx(0.0019531249999999991, rel=1e-15)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sampled_branch_matches_logical_action(n):
    params = SchemeParams.strict(n=n, k=1, kprime=2)
    secret = basis_secret(3, 0b011)
    script = EvaluationScript(
        3, (Gate("H", (1,)), Gate("TOFFOLI", (1, 2, 3)), Gate("TOFFOLI", (3, 2, 1)))
    )
    (branch,), _ = evaluate(deal(params, secret), script, mode="sampled", seed=11)
    assert branch.consumed_ancillas == frozenset({0, 1})
    u = logical_unitary(script)
    target = u @ secret.to_dense() @ u.conj().T
    assert trace_distance(reconstruct(branch).to_dense(), target) < 1e-9


def _per_history_evaluate(shared, script):
    """Exact-mode reference without merging: one full simulation per bit
    history, as (bits, probability, operator) in lexicographic bit order."""
    layout = shared.layout
    available = list(shared.available_triples)
    branches = [((), 1.0, shared.state)]
    for gate in script.gates:
        if gate.kind != "TOFFOLI":
            gates = transversal_expand(gate, layout).gates
            branches = [(bits, p, op.conjugate_circuit(gates)) for bits, p, op in branches]
            continue
        gadget = toffoli_gadget(gate.qubits, layout.ancilla_triple_rows(available.pop(0)), layout)
        base = len(branches[0][0])
        branches = [(bits + (0,) * gadget.num_classical_bits, p, op) for bits, p, op in branches]
        for g in gadget.gates:
            if g.kind == "MEASURE_Z":
                (q,) = g.qubits
                slot = base + g.classical_bit
                nxt = []
                for bits, p, op in branches:
                    for b in (0, 1):
                        pb, post = op.project_z(q, b)
                        if pb > PROBABILITY_CUTOFF:
                            new_bits = bits[:slot] + (b,) + bits[slot + 1 :]
                            nxt.append((new_bits, p * pb, post.scaled(1 / pb).reset_to_mixed((q,))))
                branches = nxt
            else:
                branches = [
                    (bits, p, op)
                    if g.condition is not None and not parity(g.condition, bits[base:])
                    else (bits, p, op.conjugate_clifford(g))
                    for bits, p, op in branches
                ]
    return branches


@pytest.mark.parametrize("case", ["basis", "mixed"])
def test_merged_evaluate_matches_per_history_oracle(case):
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    if case == "basis":
        secret = basis_secret(3, 0b110)
        script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    else:
        rng = np.random.default_rng(5)
        secret = PauliOperator.from_dense(random_density_matrix(3, rng))
        assert secret.num_terms == 64
        script = EvaluationScript(
            3,
            (
                Gate("H", (1,)),
                Gate("CNOT", (2, 3)),
                Gate("TOFFOLI", (3, 1, 2)),
                Gate("S", (3,)),
                Gate("CZ", (1, 2)),
            ),
        )
    shared = deal(params, secret)
    states, transcript = evaluate(shared, script)
    oracle = _per_history_evaluate(shared, script)
    assert [bits for bits, _ in transcript.branches] == [bits for bits, _, _ in oracle]
    for (_, p), (_, q, op), state in zip(transcript.branches, oracle, states):
        assert abs(p - q) <= 1e-15
        assert state.state.approx_equal(op)


def test_equal_operators_with_different_corrections_stay_apart():
    # |+>|0>: both outcomes of qubit 0 leave the same stored operator, but
    # only outcome 1 flips qubit 1, so the two histories must not merge early
    vec = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    plus_zero = PauliOperator.from_dense(np.outer(vec, vec))
    circuit = Circuit(
        2,
        1,
        (
            Gate("MEASURE_Z", (0,), classical_bit=0),
            Gate("X", (1,), condition=(0,)),
        ),
    )
    start = _Group(plus_zero, np.zeros((1, 0), dtype=np.uint8), np.ones(1))
    groups, _, _ = _run_gadget(circuit, [start], None)
    assert len(groups) == 2
    for grp in groups:
        ((bits, prob),) = zip(map(tuple, grp.outcomes.tolist()), grp.probs.tolist())
        assert prob == pytest.approx(0.5)
        assert coeff(grp.op, "IZ") == pytest.approx(1.0 if bits == (0,) else -1.0)


@pytest.mark.parametrize(
    "n, kprime, gates",
    [
        (4, 1, (Gate("H", (1,)), Gate("TOFFOLI", (1, 2, 3)))),
        (
            2,
            2,
            (
                Gate("H", (1,)),
                Gate("TOFFOLI", (1, 2, 3)),
                Gate("CZ", (1, 3)),
                Gate("TOFFOLI", (3, 2, 1)),
            ),
        ),
    ],
)
def test_exact_histories_at_scale(n, kprime, gates):
    # 2^(3m T) histories: 32,768 at n = 4, 262,144 at n = 2 with two gadgets
    params = SchemeParams.strict(n=n, k=1, kprime=kprime)
    secret = PauliOperator.from_dense(random_density_matrix(3, np.random.default_rng(17)))
    script = EvaluationScript(3, gates)
    m, toffolis = n + 1, script.toffoli_count
    count = 2 ** (3 * m * toffolis)
    states, transcript = evaluate(deal(params, secret), script, branch_cap=count)
    assert len(states) == transcript.bits.shape[0] == count
    want = 2.0 ** -(3 * m * toffolis)
    assert np.max(np.abs(transcript.probabilities / want - 1.0)) <= 1e-15
    assert transcript.total_probability() == pytest.approx(1.0, abs=1e-12)
    # every bit string once, in lexicographic order: row i reads i in binary
    width = transcript.bits.shape[1]
    values = transcript.bits.astype(np.int64) @ (1 << np.arange(width - 1, -1, -1))
    assert np.array_equal(values, np.arange(count))
    u = logical_unitary(script)
    target = u @ secret.to_dense() @ u.conj().T
    for branch in dict.fromkeys(states):
        assert trace_distance(reconstruct(branch).to_dense(), target) < 1e-9


@pytest.mark.parametrize(
    "n, mode",
    [
        pytest.param(n, mode, id=str(n) if mode == "exact" else f"{n}-{mode}")
        for mode in ("exact", "sampled")
        for n in (2, 4, 6)
    ],
)
def test_gadget_simulates_at_most_eight_outcomes_per_group(n, mode, monkeypatch):
    # one parity measurement per incoming group, and one correction run per
    # surviving parity outcome: at most 8, whatever m = n + 1 is; sampled
    # mode corrects only the drawn outcome
    params = SchemeParams.strict(n=n, k=1, kprime=1)
    layout = params.layout()
    shared = deal(params, generic_secret(3))
    gadget = toffoli_gadget((1, 2, 3), layout.ancilla_triple_rows(0), layout)
    calls = {"measure_z": 0, "conjugate_circuit": 0}
    for name in calls:
        real = getattr(PauliOperator, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(PauliOperator, name, counting)
    start = _Group(shared.state, np.zeros((1, 0), dtype=np.uint8), np.ones(1))
    rng = np.random.default_rng(n) if mode == "sampled" else None
    groups, sets, _ = _run_gadget(gadget, [start], rng)
    assert calls["measure_z"] == 1
    # one batch before the measurement, then one per simulated outcome
    if mode == "sampled":
        assert calls["conjugate_circuit"] == 2
        assert sets == [[slot] for slot in range(3 * (n + 1))]
        assert [len(grp.probs) for grp in groups] == [1]
    else:
        assert 1 <= calls["conjugate_circuit"] - 1 <= 8
        assert [len(st) for st in sets] == [n + 1] * 3
        assert sum(len(grp.probs) for grp in groups) <= 8


@pytest.mark.parametrize("n, branch_cap", [(2, DEFAULT_BRANCH_CAP), (4, 2**15)])
def test_sampled_history_is_an_exact_history(n, branch_cap):
    # each drawn path is one row of the exact transcript, with that row's
    # probability and state
    params = SchemeParams.strict(n=n, k=1, kprime=1)
    shared = deal(params, generic_secret(3))
    script = EvaluationScript(3, (Gate("H", (1,)), Gate("TOFFOLI", (1, 2, 3))))
    states, transcript = evaluate(shared, script, branch_cap=branch_cap)
    for seed in range(1, 6):
        (drawn,), sampled = evaluate(shared, script, mode="sampled", seed=seed)
        (row,) = np.flatnonzero((transcript.bits == sampled.bits).all(axis=1))
        assert sampled.probabilities[0] == pytest.approx(transcript.probabilities[row], rel=1e-12)
        assert drawn.state.approx_equal(states[row].state)


def test_parity_outside_the_row_span_raises():
    # |00> measured as one parity set: its Z-only part holds ZI and IZ,
    # which tell 00 from 11 although both have parity 0
    zero_zero = PauliOperator.from_dense(np.diag([1.0, 0.0, 0.0, 0.0]))
    circuit = Circuit(
        2,
        2,
        (
            Gate("MEASURE_Z", (0,), classical_bit=0),
            Gate("MEASURE_Z", (1,), classical_bit=1),
            Gate("X", (0,), condition=(0, 1)),
        ),
    )
    start = _Group(zero_zero, np.zeros((1, 0), dtype=np.uint8), np.ones(1))
    with pytest.raises(ProtocolError, match="outside the span"):
        _run_gadget(circuit, [start], None)
    # sampled mode draws from the same parity measurement
    with pytest.raises(ProtocolError, match="outside the span"):
        _run_gadget(circuit, [start], np.random.default_rng(0))


def test_sampled_draw_of_a_certain_outcome_takes_one_uniform_per_bit():
    # |00> with b0 and b1 read separately: two one-qubit sets, each parity
    # certain, so the impossible outcome of each bit falls under the cutoff
    zero_zero = PauliOperator.from_dense(np.diag([1.0, 0.0, 0.0, 0.0]))
    circuit = Circuit(
        2,
        2,
        (
            Gate("MEASURE_Z", (0,), classical_bit=0),
            Gate("MEASURE_Z", (1,), classical_bit=1),
            Gate("X", (0,), condition=(0,)),
            Gate("X", (1,), condition=(1,)),
        ),
    )
    start = _Group(zero_zero, np.zeros((1, 0), dtype=np.uint8), np.ones(1))
    rng = np.random.default_rng(0)
    groups, sets, _ = _run_gadget(circuit, [start], rng)
    assert sets == [[0], [1]]
    ((grp,),) = [groups]
    assert grp.outcomes.tolist() == [[0, 0]]
    assert grp.probs.tolist() == [1.0]
    fresh = np.random.default_rng(0)
    fresh.random(2)
    assert rng.random() == fresh.random()


def test_histories_share_one_operator_for_a_generic_secret():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, generic_secret(3))
    states, transcript = evaluate(shared, EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)))
    assert len(states) == 512
    assert len({id(st.state) for st in states}) == 1
    # one SharedState object, referenced by every history
    assert all(st is states[0] for st in states)
    bits = [b for b, _ in transcript.branches]
    assert bits == sorted(bits) and len(set(bits)) == 512


def test_evaluating_an_evaluated_branch_records_only_the_new_bits():
    params = SchemeParams.strict(n=2, k=1, kprime=2)
    shared = deal(params, basis_secret(3, 0b110))
    toffoli = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    states, _ = evaluate(shared, toffoli)
    again, transcript = evaluate(states[0], toffoli)
    # the second transcript starts at slot 0, conditional on states[0]
    assert [o.slot for o in transcript.bit_origins] == list(range(9))
    assert transcript.bits.shape == (512, 9)
    assert transcript.total_probability() == pytest.approx(1.0)
    assert again[0].consumed_ancillas == frozenset({0, 1})
    # TOFFOLI twice is the identity on the logical rows
    assert _operator_distance(reconstruct(again[0]), basis_secret(3, 0b110)) < 1e-9


# ---------------------------------------------------------------------------
# announcements
# ---------------------------------------------------------------------------


def test_clifford_only_script_announces_nothing():
    params = SchemeParams(n=2, s=3, t=0)
    report = announce_distribution(
        params, EvaluationScript(3, (Gate("H", (1,)),)), basis_secret(3, 0)
    )
    assert report.marginals == ()
    assert report.secrets_compared == ()


def test_announcement_bits_are_uniform_and_secret_blind():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    report = announce_distribution(params, script, basis_secret(3, 0))
    assert len(report.marginals) == 9
    assert report.max_half_deviation < 1e-12
    assert report.max_marginal_variation < 1e-12
    assert report.max_joint_variation < 1e-12
    # the all-zero family member coincides with the secret and is skipped
    assert report.secrets_compared == ("secret", "|111>", "|+++>")


def test_canonical_secret_family_refuses_above_the_dense_cap(monkeypatch):
    def no_outer(*args, **kwargs):
        raise AssertionError("np.outer called above the dense cap")

    monkeypatch.setattr(np, "outer", no_outer)
    with pytest.raises(ResourceError, match="dense cap"):
        canonical_secret_family(13)


def test_canonical_secret_family():
    family = canonical_secret_family(2)
    assert [label for label, _ in family] == ["|00>", "|11>", "|++>"]
    for _, op in family:
        assert op.trace() == pytest.approx(1.0)
        assert op.num_qubits == 2


@pytest.mark.parametrize("s", range(1, 7))
def test_all_plus_secret_is_exact(s):
    # built from its words, |+...+> has <P> = 1 on each word of {I, X}^s
    # with no 2^(-s/2) rounding, and it is the dense outer product's state
    _, plus = canonical_secret_family(s)[2]
    assert plus.num_terms == 2**s
    assert np.all(plus.coeffs == 1.0)
    assert plus.trace() == 1.0
    assert plus.approx_equal(dense_plus_secret(s))


# ---------------------------------------------------------------------------
# secret files
# ---------------------------------------------------------------------------


def test_parse_secret_amplitudes():
    op = parse_secret({"amplitudes": [1, 0, 0, 0]}, s=2)
    assert op.num_terms == 4
    for word in ("II", "IZ", "ZI", "ZZ"):
        assert coeff(op, word) == pytest.approx(1.0)


def test_parse_secret_amplitudes_normalize_and_accept_pairs():
    op = parse_secret({"amplitudes": [[3, 0], [0, 3]]})
    assert coeff(op, "Y") == pytest.approx(1.0)
    assert op.trace() == pytest.approx(1.0)


def test_parse_secret_pauli_form():
    op = parse_secret({"pauli": {"I": 0.5, "Z": 0.5}}, s=1)
    assert np.allclose(op.to_dense(), np.diag([1.0, 0.0]))


def test_parse_secret_pauli_words_match_one_string_at_a_time():
    # 70 letters: two mask words; the file's c_P are stored as <P> = 2^70 c_P
    rng = np.random.default_rng(5)
    words = ["I" * 70] + ["".join(rng.choice(list("IXYZ"), size=70)) for _ in range(20)]
    values = [2.0**-70] + [float(v) * 2.0**-72 for v in rng.normal(size=20)]
    op = parse_secret({"pauli": dict(zip(words, values))})
    want = PauliOperator.from_terms(
        70, [(PauliString.from_letters(w), v * 2.0**70) for w, v in zip(words, values)]
    )
    assert op == want and op.trace() == 1.0


@pytest.mark.parametrize(
    "words, bad",
    [({"XI": 0.5, "IQ": 0.5, "Z_": 0.5}, "'Q'"), ({"II": 0.5, "X\u00e9": 0.5}, "'\u00e9'")],
)
def test_parse_secret_names_the_first_bad_letter(words, bad):
    with pytest.raises(UsageError, match=f"unknown Pauli letter {bad}"):
        parse_secret({"pauli": words})


def test_deal_refuses_a_pauli_secret_past_float64_without_a_warning():
    # c_I = 1 on 1,030 qubits is <I> = 2^1030, past float64's range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = parse_secret({"pauli": {"I" * 1030: 1.0}})
    with pytest.raises(UsageError, match="trace 1"):
        deal(SchemeParams(n=1, s=1030, t=0), op)


def test_deal_refuses_a_non_hermitian_secret_on_many_qubits():
    # <X^40> = 0.5i; read as Tr(rho P) / 2^40 its imaginary part would fall
    # under an absolute bound of 1e-12
    op = parse_secret({"pauli": {"I" * 40: 2.0**-40, "X" * 40: [0, 2.0**-41]}})
    assert not op.is_hermitian
    with pytest.raises(UsageError, match="secret must be Hermitian"):
        deal(SchemeParams(n=1, s=40, t=0), op)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"amplitudes": [1, 0, 0]},
        {"amplitudes": [0, 0]},
        {"pauli": {}},
        {"pauli": {"I": 0.5, "ZZ": 0.5}},
        {"pauli": {"Q": 1.0}},
        {"amplitudes": 5},
        {"amplitudes": [True, False]},
        {"amplitudes": [["1", 0], 0]},
        {"amplitudes": [[1, False], 0]},
        {"amplitudes": ["0.5", "0.5"]},
        {"pauli": {"I": True}},
        {"pauli": {"I": [0.5, "0"]}},
    ],
)
def test_parse_secret_rejects_malformed(obj):
    with pytest.raises(UsageError):
        parse_secret(obj)


def test_parse_secret_size_mismatch():
    with pytest.raises(UsageError):
        parse_secret({"amplitudes": [1, 0]}, s=2)


def test_load_secret(tmp_path):
    path = tmp_path / "secret.json"
    path.write_text('{"amplitudes": [0, 1]}')
    assert np.allclose(load_secret(path, s=1).to_dense(), np.diag([0.0, 1.0]))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(UsageError):
        load_secret(bad)
