"""Deal / evaluate / reconstruct over the share grid."""

import numpy as np
import pytest

from qsslab.circuits import (
    GATE_ARITY,
    Circuit,
    Gate,
    evaluate_condition,
    ladder_circuit,
    toffoli_gadget,
    transversal_expand,
)
from qsslab.dense import trace_distance
from qsslab.errors import ProtocolError, ResourceError, UsageError
from qsslab.paulis import PauliOperator, PauliString
from qsslab.protocol import (
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
    announce_distribution,
    basis_secret,
    generic_secret,
    joint_distribution,
    maximally_mixed,
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
    assert params.k == 1 and params.kprime == 2 and params.budget == 2
    assert params.strict_mode


def test_relaxed_params():
    params = SchemeParams.relaxed(n=3, s=2, budget=1)
    assert (params.s, params.t) == (2, 3)
    assert params.k is None and params.kprime is None
    assert params.budget == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: SchemeParams.strict(n=0, k=1, kprime=1),
        lambda: SchemeParams.strict(n=2, k=0, kprime=1),
        lambda: SchemeParams.strict(n=2, k=2, kprime=3),  # k'/k not an integer
        lambda: SchemeParams.relaxed(n=2, s=0),
        lambda: SchemeParams.relaxed(n=2, s=1, budget=-1),
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
        EvaluationScript(3, (Gate("MEASURE_Z", (1,), classical_bit=0), Gate("X", (1,), condition="b0")))


def test_script_from_lines():
    text = '{"g": "TOFFOLI", "q": [1, 2, 3]}\n{"g": "CZ", "q": [1, 3]}\n'
    script = EvaluationScript.from_lines(text, 3)
    assert script.toffoli_count == 1
    assert [g.kind for g in script] == ["TOFFOLI", "CZ"]


def test_supported_logical_kinds_by_parity():
    assert "H" in supported_logical_kinds(3)
    assert "CZ" in supported_logical_kinds(5)
    assert supported_logical_kinds(4) == ("X", "Y", "Z", "CNOT")


def test_random_clifford_script_respects_parity():
    rng = np.random.default_rng(0)
    script = random_clifford_script(4, num_rows=3, length=20, rng=rng)
    assert len(script) == 20
    assert {g.kind for g in script} <= set(supported_logical_kinds(4))
    assert script.toffoli_count == 0


@pytest.mark.parametrize("m", range(2, 8))
def test_every_supported_kind_acts_logically(m):
    """Each kind supported at m, alone on a random mixed 2-row secret,
    reconstructs to its logical action: both even classes, and odd m on
    both sides of the S/Sdg swap (m = 1 and 3 mod 4)."""
    params = SchemeParams.relaxed(n=m - 1, s=2)
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
    layout = SchemeParams.relaxed(n=n, s=2, budget=1).layout()
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
    assert shared.classical_transcript == ()


def _dealt_word(params, word, coeff):
    """Deal I/2^s + coeff * word (a state for |coeff| <= 2^-s) and return
    the one non-identity dealt term."""
    s = len(word)
    secret = PauliOperator.from_terms(
        s, [(PauliString.identity(s), 2.0**-s), (PauliString.from_letters(word), coeff)]
    )
    shared = deal(params, secret)
    assert shared.state.num_terms == 2
    ((ps, c),) = [(ps, c) for ps, c in shared.state.items() if ps.x | ps.z]
    return ps, c


def test_deal_worked_example_odd_width():
    # five columns: every letter of the secret word is copied down its row
    params = SchemeParams.relaxed(n=4, s=3)
    ps, coeff = _dealt_word(params, "XYZ", 0.15 * 0.12 * 0.09)
    assert ps.letters() == "XXXXX" + "YYYYY" + "ZZZZZ"
    expected = 0.15 * 0.12 * 0.09 * 2.0**-12
    assert coeff == pytest.approx(expected)


def test_deal_worked_example_even_width():
    # six columns: X keeps the dealer column clear, Y and Z mark it with Z
    params = SchemeParams.relaxed(n=5, s=3)
    ps, coeff = _dealt_word(params, "XYZ", 0.15 * 0.12 * 0.09)
    assert ps.letters() == "IXXXXX" + "ZYYYYY" + "ZZZZZZ"
    expected = 0.15 * 0.12 * 0.09 * 2.0**-15
    assert coeff == pytest.approx(expected)


def test_deal_worked_example_negative_y_sign():
    # four columns sit in the sign-flipping half of the period-four cycle
    params = SchemeParams.relaxed(n=3, s=1)
    ps, coeff = _dealt_word(params, "Y", 0.12)
    assert ps.letters() == "ZYYY"
    assert coeff == pytest.approx(-0.12 * 2.0**-3)


def test_deal_of_maximally_mixed_secret_is_trivial():
    params = SchemeParams.relaxed(n=3, s=2)
    shared = deal(params, maximally_mixed(2))
    assert shared.state.num_terms == 1
    ((ps, _),) = shared.state.items()
    assert ps == PauliString.identity(8)


def test_deal_validates_secret():
    params = SchemeParams.relaxed(n=2, s=2)
    with pytest.raises(UsageError):
        deal(params, basis_secret(3, 0))  # wrong size
    with pytest.raises(UsageError):
        deal(params, maximally_mixed(2).scaled(2.0))  # trace 2
    with pytest.raises(UsageError):
        deal(params, pauli_operator(PauliString.from_letters("XI"), 1j))


def test_magic_state_operator_shape():
    op = magic_state_operator()
    assert op.num_qubits == 3
    assert op.num_terms == 29
    assert op.trace() == pytest.approx(1.0)
    assert op.coeff("III") == pytest.approx(0.125)
    assert op.coeff("IXX") == pytest.approx(0.0625)
    # purity: sum of squared coefficients times the dimension is 1
    purity = sum(abs(c) ** 2 for _, c in op.items()) * 8
    assert purity == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_random_secret(n):
    rng = np.random.default_rng(100 + n)
    params = SchemeParams.relaxed(n=n, s=2)
    secret = PauliOperator.from_dense(random_density_matrix(2, rng))
    assert _operator_distance(reconstruct(deal(params, secret)), secret) < 1e-12


def test_round_trip_with_ancillas():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    secret = basis_secret(3, 5)
    assert _operator_distance(reconstruct(deal(params, secret)), secret) < 1e-12


def test_reconstruct_requires_every_column():
    params = SchemeParams.relaxed(n=2, s=1)
    shared = deal(params, basis_secret(1, 0))
    assert reconstruct(shared, columns=[1, 2, 3]).num_qubits == 1
    with pytest.raises(ProtocolError):
        reconstruct(shared, columns=[1, 2])
    with pytest.raises(ProtocolError):
        reconstruct(shared, columns=[2, 3])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_empty_script_is_identity():
    params = SchemeParams.relaxed(n=2, s=2)
    shared = deal(params, basis_secret(2, 1))
    branches, transcript = evaluate(shared, EvaluationScript(2, ()))
    assert len(branches) == 1
    assert branches[0].state == shared.state
    assert transcript.bit_origins == ()
    assert transcript.total_probability() == pytest.approx(1.0)


def test_evaluate_checks_script_and_mode():
    params = SchemeParams.relaxed(n=2, s=2)
    shared = deal(params, basis_secret(2, 0))
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(3, ()))
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(2, ()), mode="sampled")  # no seed
    with pytest.raises(UsageError):
        evaluate(shared, EvaluationScript(2, ()), mode="montecarlo")


def test_single_clifford_matches_logical_action():
    params = SchemeParams.relaxed(n=2, s=3)
    secret = basis_secret(3, 0)
    script = EvaluationScript(3, (Gate("H", (1,)),))
    (branch,), _ = evaluate(deal(params, secret), script)
    got = reconstruct(branch).to_dense()
    u = logical_unitary(script)
    assert trace_distance(got, u @ secret.to_dense() @ u.conj().T) < 1e-12


def test_cnot_at_even_width():
    params = SchemeParams.relaxed(n=3, s=2)
    script = EvaluationScript(2, (Gate("CNOT", (1, 2)),))
    (branch,), _ = evaluate(deal(params, basis_secret(2, 0b10)), script)
    assert _operator_distance(reconstruct(branch), basis_secret(2, 0b11)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_clifford_scripts_compose(n):
    rng = np.random.default_rng(7 * n)
    params = SchemeParams.relaxed(n=n, s=3)
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
    for branch in branches:
        assert branch.branch_probability == pytest.approx(1 / 512)
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


def test_sampled_mode_is_reproducible():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0b101))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)), Gate("H", (2,))))
    first, tr1 = evaluate(shared, script, mode="sampled", seed=123)
    second, tr2 = evaluate(shared, script, mode="sampled", seed=123)
    assert len(first) == len(second) == 1
    assert tr1.branches == tr2.branches
    assert first[0].state == second[0].state
    assert first[0].branch_probability == pytest.approx(1 / 512)
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
    branches = [(shared.classical_transcript, 1.0, shared.state)]
    for gate in script:
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
                    if g.condition is not None and not evaluate_condition(g.condition, bits[base:])
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
            Gate("X", (1,), condition="b0"),
        ),
    )
    groups = _run_gadget(circuit, [_Group(plus_zero, [((), 1.0)])], "exact", None, 16, 0)
    assert len(groups) == 2
    for grp in groups:
        ((bits, prob),) = grp.histories
        assert prob == pytest.approx(0.5)
        assert grp.op.coeff("IZ") == pytest.approx(0.25 if bits == (0,) else -0.25)


def test_histories_share_one_operator_for_a_generic_secret():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, generic_secret(3))
    states, transcript = evaluate(shared, EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),)))
    assert len(states) == 512
    assert len({id(st.state) for st in states}) == 1
    bits = [b for b, _ in transcript.branches]
    assert bits == sorted(bits) and len(set(bits)) == 512


# ---------------------------------------------------------------------------
# announcements
# ---------------------------------------------------------------------------


def test_clifford_only_script_announces_nothing():
    params = SchemeParams.relaxed(n=2, s=3)
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


# ---------------------------------------------------------------------------
# secret files
# ---------------------------------------------------------------------------


def test_parse_secret_amplitudes():
    op = parse_secret({"amplitudes": [1, 0, 0, 0]}, s=2)
    assert op.num_terms == 4
    for word in ("II", "IZ", "ZI", "ZZ"):
        assert op.coeff(word) == pytest.approx(0.25)


def test_parse_secret_amplitudes_normalize_and_accept_pairs():
    op = parse_secret({"amplitudes": [[3, 0], [0, 3]]})
    assert op.coeff("Y") == pytest.approx(0.5)
    assert op.trace() == pytest.approx(1.0)


def test_parse_secret_pauli_form():
    op = parse_secret({"pauli": {"I": 0.5, "Z": 0.5}}, s=1)
    assert np.allclose(op.to_dense(), np.diag([1.0, 0.0]))


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"amplitudes": [1, 0, 0]},
        {"amplitudes": [0, 0]},
        {"pauli": {}},
        {"pauli": {"I": 0.5, "ZZ": 0.5}},
        {"pauli": {"Q": 1.0}},
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
