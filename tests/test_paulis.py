"""Symbolic Pauli algebra against dense-matrix oracles."""

import itertools

import numpy as np
import pytest

from qsslab.circuits import Gate
from qsslab.errors import ProtocolError, ResourceError, UsageError
from qsslab.paulis import (
    PRUNE_TOL,
    SINGLE_QUBIT_CLIFFORDS,
    TWO_QUBIT_CLIFFORDS,
    PauliOperator,
    PauliString,
)

from reference import (
    embedded_unitary,
    kron_matrix,
    maximally_mixed,
    pauli_operator,
    random_density_matrix,
)


def _random_operator(num_qubits, seed):
    rng = np.random.default_rng(seed)
    return PauliOperator.from_dense(random_density_matrix(num_qubits, rng))


def _words(masks, width):
    return np.array(
        [[(m >> (64 * w)) & (2**64 - 1) for w in range(width)] for m in masks], dtype=np.uint64
    ).reshape(-1, width)


def _operator(num_qubits, terms):
    """The operator with exactly these {(x, z): coeff} terms, in this order,
    nothing merged or pruned."""
    width = max(1, -(-num_qubits // 64))
    return PauliOperator(
        num_qubits,
        _words([x for x, _ in terms], width),
        _words([z for _, z in terms], width),
        np.array(list(terms.values()), dtype=complex),
    )


# ---------------------------------------------------------------------------
# PauliString
# ---------------------------------------------------------------------------


def test_letters_round_trip():
    ps = PauliString.from_letters("XIZY")
    assert ps.letters() == "XIZY"
    assert ps.letter(0) == "X"
    assert ps.letter(3) == "Y"


def test_unknown_letter_rejected():
    with pytest.raises(UsageError):
        PauliString.from_letters("XQ")


def test_phase_wraps_mod_four():
    assert PauliString.from_letters("X", phase=5).phase == 1
    assert PauliString.from_letters("X", phase=2).phase_factor() == -1


def _to_matrix(ps):
    """The matrix the CLI's dense ladder check reads as a signed permutation."""
    rows, cols, vals = ps._signed_permutation()
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[rows, cols] = vals
    return out


@pytest.mark.parametrize("n", range(5))
def test_to_matrix_equals_kron_reference_exactly(n):
    for letters in itertools.product("IXYZ", repeat=n):
        for phase in range(4):
            ps = PauliString.from_letters("".join(letters), phase)
            assert np.array_equal(_to_matrix(ps), kron_matrix(ps)), (letters, phase)


def test_dense_cap_enforced():
    with pytest.raises(ResourceError):
        PauliString.identity(13)._signed_permutation()


# ---------------------------------------------------------------------------
# PauliOperator basics
# ---------------------------------------------------------------------------


def test_maximally_mixed():
    op = maximally_mixed(3)
    assert op.num_terms == 1
    assert op.trace() == pytest.approx(1.0)
    assert np.allclose(op.to_dense(), np.eye(8) / 8)


def test_from_terms_accumulates_and_prunes():
    x = PauliString.from_letters("X")
    op = PauliOperator.from_terms(1, [(x, 0.5), (x, -0.5)])
    assert op.num_terms == 0
    op = PauliOperator.from_terms(1, [(x, 0.5), (x, 0.25)])
    assert op.coeff("X") == pytest.approx(0.75)


def test_phase_folds_into_coefficient():
    ps = PauliString.from_letters("Z", phase=2)
    op = pauli_operator(ps, 1.0)
    assert op.coeff("Z") == pytest.approx(-1.0)


def test_is_hermitian():
    rho = _random_operator(2, seed=7)
    assert rho.is_hermitian
    assert not rho.scaled(1j).is_hermitian


def test_add_scale_tensor_match_dense():
    a = _random_operator(2, seed=1)
    b = _random_operator(2, seed=2)
    assert np.allclose(a.add(b).to_dense(), a.to_dense() + b.to_dense())
    assert np.allclose(a.scaled(0.5 - 2j).to_dense(), (0.5 - 2j) * a.to_dense())
    assert np.allclose(
        a.tensor(b).to_dense(), np.kron(a.to_dense(), b.to_dense())
    )


def test_dense_round_trip():
    rho = random_density_matrix(3, np.random.default_rng(11))
    assert np.allclose(PauliOperator.from_dense(rho).to_dense(), rho)


def test_embedded_places_each_qubit_at_its_position():
    op = PauliOperator.from_terms(
        2, [(PauliString.from_letters("XZ"), 0.5), (PauliString.from_letters("YI"), 0.25)]
    )

    def spread(letters):
        word = ["I"] * 70
        word[66], word[3] = letters
        return PauliString.from_letters("".join(word))

    want = PauliOperator.from_terms(70, [(spread("XZ"), 0.5), (spread("YI"), 0.25)])
    assert op.embedded(70, [66, 3]) == want
    with pytest.raises(UsageError):
        op.embedded(70, [3, 3])
    with pytest.raises(UsageError):
        op.embedded(70, [3, 70])


def test_from_dense_rejects_bad_shapes():
    with pytest.raises(UsageError):
        PauliOperator.from_dense(np.eye(3))


# ---------------------------------------------------------------------------
# Clifford conjugation vs dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SINGLE_QUBIT_CLIFFORDS)
@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_single_qubit_conjugation_matches_dense(kind, qubit):
    rho = _random_operator(3, seed=hash((kind, qubit)) % 997)
    got = rho.conjugate_clifford(Gate(kind, (qubit,)))
    u = embedded_unitary(3, kind, (qubit,))
    assert np.allclose(got.to_dense(), u @ rho.to_dense() @ u.conj().T, atol=1e-12)


@pytest.mark.parametrize("kind", TWO_QUBIT_CLIFFORDS)
@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 1)])
def test_two_qubit_conjugation_matches_dense(kind, qubits):
    rho = _random_operator(3, seed=hash((kind, qubits)) % 997)
    got = rho.conjugate_clifford(Gate(kind, qubits))
    u = embedded_unitary(3, kind, qubits)
    assert np.allclose(got.to_dense(), u @ rho.to_dense() @ u.conj().T, atol=1e-12)


@pytest.mark.parametrize("kind", ["H", "X", "Y", "Z", "CNOT", "CZ"])
def test_self_inverse_conjugations(kind):
    rho = _random_operator(2, seed=5)
    qubits = (0,) if kind in SINGLE_QUBIT_CLIFFORDS else (0, 1)
    twice = rho.conjugate_clifford(Gate(kind, qubits)).conjugate_clifford(
        Gate(kind, qubits)
    )
    assert np.allclose(twice.to_dense(), rho.to_dense(), atol=1e-12)


def test_s_then_sdg_is_identity():
    rho = _random_operator(1, seed=3)
    back = rho.conjugate_clifford(Gate("S", (0,))).conjugate_clifford(Gate("Sdg", (0,)))
    assert np.allclose(back.to_dense(), rho.to_dense(), atol=1e-12)


def test_conjugation_keeps_term_count_and_trace():
    rho = _random_operator(3, seed=9)
    got = rho.conjugate_clifford(Gate("CNOT", (0, 2)))
    assert got.num_terms == rho.num_terms
    assert got.trace() == pytest.approx(rho.trace())


# ---------------------------------------------------------------------------
# bit-plane kernel vs per-term reference rules
# ---------------------------------------------------------------------------

# Per-term rules on packed integers, stated on input bits: each returns
# (x', z', sign_flip). They are the reference the bit-plane kernel must match.


def _bit(mask, q):
    return (mask >> q) & 1


def _rule_h(x, z, qs):
    (q,) = qs
    b = 1 << q
    xb, zb = x & b, z & b
    return (x & ~b) | (zb and b), (z & ~b) | (xb and b), bool(xb and zb)


def _rule_s(x, z, qs):
    (q,) = qs
    b = 1 << q
    return x, z ^ (x & b), bool(x & z & b)


def _rule_sdg(x, z, qs):
    (q,) = qs
    b = 1 << q
    return x, z ^ (x & b), bool(x & ~z & b)


def _rule_x(x, z, qs):
    (q,) = qs
    return x, z, bool(z & (1 << q))


def _rule_y(x, z, qs):
    (q,) = qs
    return x, z, bool((x ^ z) & (1 << q))


def _rule_z(x, z, qs):
    (q,) = qs
    return x, z, bool(x & (1 << q))


def _rule_cnot(x, z, qs):
    c, t = qs
    xc, zc, xt, zt = _bit(x, c), _bit(z, c), _bit(x, t), _bit(z, t)
    nx = x ^ ((1 << t) if xc else 0)
    nz = z ^ ((1 << c) if zt else 0)
    return nx, nz, bool(xc and zt and not (xt ^ zc))


def _rule_cz(x, z, qs):
    a, b = qs
    xa, za, xb, zb = _bit(x, a), _bit(z, a), _bit(x, b), _bit(z, b)
    nz = z ^ ((1 << a) if xb else 0) ^ ((1 << b) if xa else 0)
    return x, nz, bool(xa and xb and (za ^ zb))


REFERENCE_RULES = {
    "H": _rule_h,
    "S": _rule_s,
    "Sdg": _rule_sdg,
    "X": _rule_x,
    "Y": _rule_y,
    "Z": _rule_z,
    "CNOT": _rule_cnot,
    "CZ": _rule_cz,
}


def _reference_conjugate(op, gate):
    rule = REFERENCE_RULES[gate.kind]
    terms = {}
    for (x, z), c in op.terms.items():
        nx, nz, flip = rule(x, z, gate.qubits)
        terms[(nx, nz)] = -c if flip else c
    return _operator(op.num_qubits, terms)


def _reference_circuit(op, gates):
    for g in gates:
        op = _reference_conjugate(op, g)
    return op


def _assert_identical(got, want):
    """Same keys in the same order, exactly equal coefficients."""
    assert got.num_qubits == want.num_qubits
    assert list(got.terms.items()) == list(want.terms.items())


def _random_sparse_operator(num_qubits, num_terms, seed):
    """Random distinct words with complex (and some real) coefficients."""
    rng = np.random.default_rng(seed)
    num_terms = min(num_terms, 4**num_qubits)
    terms = {}
    while len(terms) < num_terms:
        key = tuple(int.from_bytes(rng.bytes(16), "little") % (1 << num_qubits) for _ in "xz")
        if key in terms:
            continue
        re, im = rng.normal(size=2)
        terms[key] = float(re) if rng.random() < 0.2 else complex(re, im)
    return _operator(num_qubits, terms)


def _random_gates(num_qubits, count, rng, kinds=tuple(REFERENCE_RULES)):
    gates = []
    for _ in range(count):
        kind = str(rng.choice([k for k in kinds if num_qubits > 1 or k in SINGLE_QUBIT_CLIFFORDS]))
        arity = 2 if kind in TWO_QUBIT_CLIFFORDS else 1
        qubits = rng.choice(num_qubits, size=arity, replace=False)
        gates.append(Gate(kind, tuple(int(q) for q in qubits)))
    return gates


KERNEL_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 101]


@pytest.mark.parametrize(
    "kind,num_qubits",
    [
        (kind, n)
        for kind in SINGLE_QUBIT_CLIFFORDS + TWO_QUBIT_CLIFFORDS
        for n in KERNEL_WIDTHS
        if n > 1 or kind in SINGLE_QUBIT_CLIFFORDS
    ],
)
def test_kernel_matches_reference_rules(kind, num_qubits):
    op = _random_sparse_operator(num_qubits, 200, seed=num_qubits)
    # the first and last qubit and the byte and word boundaries
    edges = sorted({min(q, num_qubits - 1) for q in (0, 7, 8, 63, 64, num_qubits - 1)})
    if kind in TWO_QUBIT_CLIFFORDS:
        placements = [(a, b) for a in edges for b in edges if a != b]
    else:
        placements = [(q,) for q in edges]
    for qubits in placements:
        gate = Gate(kind, qubits)
        _assert_identical(op.conjugate_clifford(gate), _reference_conjugate(op, gate))


@pytest.mark.parametrize("num_qubits", KERNEL_WIDTHS)
def test_kernel_runs_match_gate_by_gate(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    op = _random_sparse_operator(num_qubits, 300, seed=200 + num_qubits)
    gates = _random_gates(num_qubits, 60, rng)
    _assert_identical(op.conjugate_circuit(gates), _reference_circuit(op, gates))


def test_empty_operator_and_empty_gate_list_come_back_unchanged():
    op = _random_sparse_operator(9, 40, seed=3)
    _assert_identical(op.conjugate_circuit([]), op)
    empty = PauliOperator.zero(9)
    _assert_identical(empty.conjugate_circuit([Gate("H", (3,)), Gate("CNOT", (0, 8))]), empty)
    _assert_identical(empty.conjugate_clifford(Gate("CZ", (2, 5))), empty)


class _Untouchable:
    """Word or coefficient storage that fails the test if the kernel reads it."""

    def __getattr__(self, name):
        raise AssertionError("terms read before validation")

    def __getitem__(self, key):
        raise AssertionError("terms read before validation")

    def __len__(self):
        raise AssertionError("terms read before validation")

    def __array__(self, *args, **kwargs):
        raise AssertionError("terms read before validation")


@pytest.mark.parametrize(
    "bad,match",
    [
        (Gate("H", (4,)), "qubit 4 out of range"),
        (Gate("CNOT", (1, 7)), "qubit 7 out of range"),
        (Gate("I", (0,)), "unsupported Clifford kind 'I'"),
        (Gate("MEASURE_Z", (0,), classical_bit=0), "unsupported Clifford kind 'MEASURE_Z'"),
        (Gate("TOFFOLI", (0, 1, 2)), "not Clifford"),
    ],
)
def test_bad_gate_raises_before_any_work(bad, match):
    op = PauliOperator(4, _Untouchable(), _Untouchable(), _Untouchable())
    with pytest.raises(UsageError, match=match):
        op.conjugate_circuit([Gate("H", (0,)), Gate("CZ", (1, 2)), bad])
    with pytest.raises(UsageError, match=match):
        op.conjugate_clifford(bad)


def test_conjugate_clifford_rejects_toffoli():
    with pytest.raises(UsageError, match="not Clifford"):
        maximally_mixed(3).conjugate_clifford(Gate("TOFFOLI", (0, 1, 2)))


# ---------------------------------------------------------------------------
# partial trace, reset, projection
# ---------------------------------------------------------------------------


def _bell_pair():
    entries = [
        (PauliString.from_letters(w), c / 4.0)
        for w, c in [("II", 1), ("XX", 1), ("YY", -1), ("ZZ", 1)]
    ]
    return PauliOperator.from_terms(2, entries)


def _assert_words(op, expected):
    """Exactly the words of ``expected`` (all nonzero), with its coefficients."""
    assert op.num_terms == len(expected)
    for letters, coeff in expected.items():
        assert op.coeff(letters) == pytest.approx(coeff)


def test_partial_trace_of_bell_pair():
    reduced = _bell_pair().partial_trace([1])
    assert reduced.num_qubits == 1
    _assert_words(reduced, {"I": 0.5})


def test_partial_trace_keeps_qubit_order():
    zero = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5), (PauliString.from_letters("Z"), 0.5)]
    )
    plus = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5), (PauliString.from_letters("X"), 0.5)]
    )
    op = zero.tensor(plus).tensor(maximally_mixed(1))
    reduced = op.partial_trace([1])
    _assert_words(reduced, {"II": 0.25, "ZI": 0.25})


def test_partial_trace_matches_dense():
    from qsslab.dense import partial_trace_dense

    rho = _random_operator(3, seed=31)
    assert np.allclose(
        rho.partial_trace([0, 2]).to_dense(),
        partial_trace_dense(rho.to_dense(), [0, 2]),
        atol=1e-12,
    )


def test_reset_to_mixed_replaces_marginal():
    plus = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5), (PauliString.from_letters("X"), 0.5)]
    )
    op = plus.tensor(plus)
    reset = op.reset_to_mixed((0,))
    _assert_words(reset, {"II": 0.25, "IX": 0.25})
    assert reset.trace() == pytest.approx(1.0)
    assert np.allclose(
        reset.partial_trace([1]).to_dense(), np.eye(2) / 2
    )


def test_reset_to_mixed_rejects_bad_qubit():
    with pytest.raises(UsageError):
        maximally_mixed(2).reset_to_mixed((2,))


@pytest.mark.parametrize(
    "letters,outcome,prob",
    [("I", 0, 0.5), ("I", 1, 0.5)],
)
def test_project_z_on_plus_state(letters, outcome, prob):
    plus = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5), (PauliString.from_letters("X"), 0.5)]
    )
    p, post = plus.project_z(0, outcome)
    assert p == pytest.approx(prob)
    sign = 1.0 if outcome == 0 else -1.0
    _assert_words(post, {"I": 0.25, "Z": sign * 0.25})


def test_project_z_on_basis_state():
    zero = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5), (PauliString.from_letters("Z"), 0.5)]
    )
    p0, post = zero.project_z(0, 0)
    assert p0 == pytest.approx(1.0)
    assert np.allclose(post.to_dense(), zero.to_dense())
    p1, _ = zero.project_z(0, 1)
    assert p1 == pytest.approx(0.0)


def test_project_z_matches_dense_projector():
    rho = _random_operator(2, seed=41)
    proj = np.diag([1.0, 0.0])
    full = np.kron(np.eye(2), proj)  # outcome 0 on qubit 1
    p, post = rho.project_z(1, 0)
    expected = full @ rho.to_dense() @ full
    assert p == pytest.approx(np.trace(expected).real)
    assert np.allclose(post.to_dense(), expected, atol=1e-12)


def test_project_z_rejects_complex_probability():
    skew = _operator(1, {(0, 0): 0.5 + 0.5j, (0, 1): 0.5})
    with pytest.raises(ProtocolError, match="not real"):
        skew.project_z(0, 0)


def _measured_by_composition(op, qubit, outcome):
    p, post = op.project_z(qubit, outcome)
    return p, post.scaled(1 / p).reset_to_mixed((qubit,))


@pytest.mark.parametrize("num_qubits", [1, 3, 9, 65])
def test_measure_z_equals_project_scale_reset(num_qubits):
    # Hermitian with small non-identity coefficients, so both probabilities
    # are real and near 1/2
    op = _random_sparse_operator(num_qubits, 120, seed=num_qubits)
    terms = {k: 0.1 * 2.0**-num_qubits * complex(c).real for k, c in op.terms.items()}
    terms[(0, 0)] = 2.0**-num_qubits
    op = _operator(num_qubits, terms)
    for qubit in sorted({0, num_qubits // 2, num_qubits - 1}):
        for outcome, (p, state) in enumerate(op.measure_z(qubit)):
            want_p, want = _measured_by_composition(op, qubit, outcome)
            assert p == want_p
            _assert_identical(state, want)


def test_measure_z_matches_dense_projector():
    from qsslab.dense import partial_trace_dense

    rho = _random_operator(3, seed=43)
    dense = rho.to_dense()
    for qubit, outcome in [(0, 0), (0, 1), (2, 0), (2, 1)]:
        p, state = rho.measure_z(qubit)[outcome]
        proj = np.diag([1.0, 0.0] if outcome == 0 else [0.0, 1.0])
        full = np.kron(proj, np.eye(4)) if qubit == 0 else np.kron(np.eye(4), proj)
        projected = full @ dense @ full
        assert p == pytest.approx(np.trace(projected).real, abs=1e-14)
        marginal = partial_trace_dense(projected / p, [qubit])
        reset = np.kron(np.eye(2) / 2, marginal) if qubit == 0 else np.kron(marginal, np.eye(2) / 2)
        assert np.allclose(state.to_dense(), reset, atol=1e-12)


def test_measure_z_of_a_basis_state_has_no_second_state():
    zero = _operator(1, {(0, 0): 0.5, (0, 1): 0.5})
    (p0, post0), (p1, post1) = zero.measure_z(0)
    assert p0 == 1.0 and post0 == maximally_mixed(1)
    assert p1 == 0.0 and post1 is None


def test_measure_z_prunes_a_tiny_identity_like_project_z():
    # the identity term falls under PRUNE_TOL relative to the X term, so
    # both paths read probability 0 for both outcomes
    op = _operator(2, {(0, 0): 1e-14, (0b10, 0): 1.0})
    for outcome, (p, state) in enumerate(op.measure_z(0)):
        assert p == op.project_z(0, outcome)[0] == 0.0
        assert state is None


def test_measure_z_rejects_complex_probability_and_bad_qubit():
    skew = _operator(1, {(0, 0): 0.5 + 0.5j, (0, 1): 0.5})
    with pytest.raises(ProtocolError, match="not real"):
        skew.measure_z(0)
    with pytest.raises(UsageError):
        skew.measure_z(1)


def test_trace_distance_of_sparse_operators():
    a = _random_operator(2, seed=61)
    b = _random_operator(2, seed=62)
    eigs = np.linalg.eigvalsh(a.to_dense() - b.to_dense())
    assert a.trace_distance(b) == pytest.approx(0.5 * np.abs(eigs).sum(), abs=1e-14)
    assert a.trace_distance(a) == 0.0


def test_approx_equal_is_relative_and_checks_words():
    base = _operator(2, {(0, 0): 0.25, (1, 0): 0.125})
    assert base.approx_equal(base.scaled(1 + 1e-13))
    assert not base.approx_equal(base.scaled(1 + 1e-11))
    # relative to the largest coefficient, so a tiny global scale still merges
    tiny = base.scaled(2.0**-60)
    assert tiny.approx_equal(tiny.scaled(1 + 1e-13))
    assert not base.approx_equal(_operator(2, {(0, 0): 0.25, (0, 1): 0.125}))



# ---------------------------------------------------------------------------
# array engine vs the dict engine it replaced
# ---------------------------------------------------------------------------

# The former dict bodies of _pruned, add, tensor, partial_trace and
# measure_z, on {(x, z): coeff} maps. They accumulate term
# by term, and are the reference the array operations must match.


def _ref_pruned(terms):
    if not terms:
        return terms
    biggest = max(abs(c) for c in terms.values())
    if biggest == 0.0:
        return {}
    tol = PRUNE_TOL * biggest
    return {k: c for k, c in terms.items() if abs(c) >= tol}


def _ref_add(a, b):
    terms = dict(a)
    for k, c in b.items():
        terms[k] = terms.get(k, 0j) + c
    return _ref_pruned(terms)


def _ref_tensor(shift, a, b):
    terms = {}
    for (xa, za), ca in a.items():
        for (xb, zb), cb in b.items():
            k = (xa | (xb << shift), za | (zb << shift))
            terms[k] = terms.get(k, 0j) + ca * cb
    return _ref_pruned(terms)


def _ref_partial_trace(num_qubits, terms_in, traced):
    traced_set = set(traced)
    kept = [q for q in range(num_qubits) if q not in traced_set]
    kill = sum(1 << q for q in traced_set)
    factor = 2.0 ** len(traced_set)
    terms = {}
    for (x, z), c in terms_in.items():
        if (x | z) & kill:
            continue
        nx = nz = 0
        for i, q in enumerate(kept):
            nx |= _bit(x, q) << i
            nz |= _bit(z, q) << i
        terms[(nx, nz)] = terms.get((nx, nz), 0j) + c * factor
    return _ref_pruned(terms)


def _ref_measure_z(num_qubits, terms_in, qubit):
    zbit = 1 << qubit
    acc0, acc1 = {}, {}
    for key, c in terms_in.items():
        x, z = key
        if x & zbit:
            continue
        if z & zbit:
            k = (x, z ^ zbit)
            c0, c1 = 1.0 * c / 2, -1.0 * c / 2
        else:
            k = key
            c0 = c1 = c / 2
        acc0[k] = acc0.get(k, 0j) + c0
        acc1[k] = acc1.get(k, 0j) + c1
    out = []
    for acc in (acc0, acc1):
        biggest = max(map(abs, acc.values()), default=0.0)
        if biggest == 0.0:
            out.append((0.0, None))
            continue
        tol = PRUNE_TOL * biggest
        ident = acc.get((0, 0), 0j)
        p = ((ident if abs(ident) >= tol else 0j) * 2**num_qubits).real
        if p <= 0.0:
            out.append((p, None))
            continue
        out.append((p, {k: c * (1 / p) for k, c in acc.items() if abs(c) >= tol}))
    return out


def _assert_matches(op, num_qubits, want, rel=0.0):
    """The word set of ``want``; coefficients equal, or within ``rel`` of the
    largest |coeff|."""
    assert op.num_qubits == num_qubits
    got = dict(op.terms)
    assert got.keys() == want.keys()
    tol = rel * max((abs(c) for c in want.values()), default=0.0)
    for k, c in want.items():
        assert got[k] == c if rel == 0.0 else abs(got[k] - c) <= tol, k


ENGINE_WIDTHS = [1, 7, 63, 64, 65, 101]


def _edges(num_qubits):
    """The first and last qubit and the qubits on either side of a word boundary."""
    return sorted({min(q, num_qubits - 1) for q in (0, 63, 64, num_qubits - 1)})


def _hermitian_sparse(num_qubits, num_terms, seed):
    """Real coefficients, small beside the identity, so Z outcomes have real
    probabilities near 1/2."""
    op = _random_sparse_operator(num_qubits, num_terms, seed)
    terms = {k: 0.1 * complex(c).real for k, c in op.terms.items()}
    terms[(0, 0)] = 1.0
    return _operator(num_qubits, terms)


@pytest.mark.parametrize("num_qubits", ENGINE_WIDTHS)
def test_measure_z_matches_dict_engine(num_qubits):
    op = _hermitian_sparse(num_qubits, 300, seed=num_qubits)
    for qubit in _edges(num_qubits):
        want = _ref_measure_z(num_qubits, op.terms, qubit)
        for (p, state), (want_p, want_terms) in zip(op.measure_z(qubit), want):
            assert p == want_p
            assert (state is None) == (want_terms is None)
            if state is not None:
                _assert_matches(state, num_qubits, want_terms)


@pytest.mark.parametrize("num_qubits", ENGINE_WIDTHS)
def test_partial_trace_matches_dict_engine(num_qubits):
    # low-weight words, so that some survive tracing out several qubits
    rng = np.random.default_rng(400 + num_qubits)
    terms = {(0, 0): 1.0}
    for _ in range(200):
        qs = rng.choice(num_qubits, size=min(3, num_qubits), replace=False)
        x = sum(int(rng.integers(2)) << int(q) for q in qs)
        z = sum(int(rng.integers(2)) << int(q) for q in qs)
        terms[(x, z)] = complex(*rng.normal(size=2))
    op = _operator(num_qubits, terms)
    edges = _edges(num_qubits)
    choices = [[q] for q in edges] + [edges, list(range(0, num_qubits, 2))]
    if num_qubits > 1:
        choices.append(list(range(1, num_qubits)))
    for traced in choices:
        kept = num_qubits - len(set(traced))
        _assert_matches(
            op.partial_trace(traced), kept, _ref_partial_trace(num_qubits, op.terms, traced)
        )


@pytest.mark.parametrize("sizes", [(1, 7), (7, 63), (63, 1), (64, 1), (1, 64), (37, 64), (1, 100)])
def test_tensor_matches_dict_engine(sizes):
    na, nb = sizes
    a = _random_sparse_operator(na, 30, seed=500 + na)
    b = _random_sparse_operator(nb, 30, seed=600 + nb)
    _assert_matches(a.tensor(b), na + nb, _ref_tensor(na, a.terms, b.terms))


@pytest.mark.parametrize("num_qubits", ENGINE_WIDTHS)
def test_add_and_pruned_match_dict_engine(num_qubits):
    a = _random_sparse_operator(num_qubits, 100, seed=700 + num_qubits)
    extra = _random_sparse_operator(num_qubits, 100, seed=800 + num_qubits)
    # b shares half of a's words, cancelling some of them exactly
    shared = {
        k: (-c if i % 3 == 0 else 0.5 * c)
        for i, (k, c) in enumerate(a.terms.items())
        if i % 2 == 0
    }
    b = _operator(num_qubits, {**dict(extra.terms), **shared})
    _assert_matches(a.add(b), num_qubits, _ref_add(a.terms, b.terms))
    _assert_matches(b.add(a), num_qubits, _ref_add(b.terms, a.terms))
    # coefficients around the relative cutoff
    biggest = max(abs(c) for c in a.terms.values())
    tiny = {
        k: c * (PRUNE_TOL * biggest / abs(c)) * (0.5 if i % 8 == 5 else 1.0)
        for i, (k, c) in enumerate(a.terms.items())
        if i % 4 == 1
    }
    edge = _operator(num_qubits, {**dict(a.terms), **tiny})
    _assert_matches(edge._pruned(), num_qubits, _ref_pruned(dict(edge.terms)))
    want = _ref_pruned({k: c * -3.0 for k, c in edge.terms.items()})
    _assert_matches(edge.scaled(-3.0), num_qubits, want)
