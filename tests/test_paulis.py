"""Symbolic Pauli algebra against dense-matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.circuits import Gate
from qsslab.dense import embedded_unitary, random_density_matrix
from qsslab.errors import ProtocolError, ResourceError, UsageError
from qsslab.paulis import (
    SINGLE_QUBIT_CLIFFORDS,
    TWO_QUBIT_CLIFFORDS,
    PauliOperator,
    PauliString,
)


def _random_operator(num_qubits, seed):
    rng = np.random.default_rng(seed)
    return PauliOperator.from_dense(random_density_matrix(num_qubits, rng).entries)


def _word(length):
    return st.text(alphabet="IXYZ", min_size=length, max_size=length)


@st.composite
def _word_pair(draw, max_length=5):
    length = draw(st.integers(1, max_length))
    return draw(_word(length)), draw(_word(length))


@st.composite
def _word_triple(draw, max_length=4):
    length = draw(st.integers(1, max_length))
    return draw(_word(length)), draw(_word(length)), draw(_word(length))


# ---------------------------------------------------------------------------
# PauliString
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,product,phase",
    [
        ("X", "Y", "Z", 1),
        ("Y", "X", "Z", 3),
        ("Y", "Z", "X", 1),
        ("Z", "Y", "X", 3),
        ("Z", "X", "Y", 1),
        ("X", "Z", "Y", 3),
        ("X", "X", "I", 0),
        ("Y", "Y", "I", 0),
        ("Z", "Z", "I", 0),
        ("I", "Y", "Y", 0),
    ],
)
def test_single_qubit_products(a, b, product, phase):
    got = PauliString.from_letters(a) * PauliString.from_letters(b)
    assert got.letters() == product
    assert got.phase == phase


def test_letters_round_trip():
    ps = PauliString.from_letters("XIZY")
    assert ps.letters() == "XIZY"
    assert ps.letter(0) == "X"
    assert ps.letter(3) == "Y"
    assert ps.weight == 3
    assert PauliString.single(4, 2, "Z") == PauliString.from_letters("IIZI")


def test_unknown_letter_rejected():
    with pytest.raises(UsageError):
        PauliString.from_letters("XQ")


def test_length_mismatch_rejected():
    with pytest.raises(UsageError):
        PauliString.from_letters("XX") * PauliString.from_letters("X")


@given(_word_pair())
def test_product_matches_dense(pair):
    a, b = pair
    pa, pb = PauliString.from_letters(a), PauliString.from_letters(b)
    assert np.allclose((pa * pb).to_matrix(), pa.to_matrix() @ pb.to_matrix())


@given(_word_triple())
def test_product_associative(triple):
    a, b, c = (PauliString.from_letters(w) for w in triple)
    assert (a * b) * c == a * (b * c)


@given(_word_pair())
def test_commutes_with_matches_dense(pair):
    a, b = (PauliString.from_letters(w) for w in pair)
    comm = a.to_matrix() @ b.to_matrix() - b.to_matrix() @ a.to_matrix()
    assert a.commutes_with(b) == np.allclose(comm, 0)


@given(_word_pair())
def test_tensor_matches_kron(pair):
    a, b = (PauliString.from_letters(w) for w in pair)
    assert np.allclose(a.tensor(b).to_matrix(), np.kron(a.to_matrix(), b.to_matrix()))


def test_phase_wraps_mod_four():
    assert PauliString.from_letters("X", phase=5).phase == 1
    assert PauliString.from_letters("X", phase=2).phase_factor() == -1
    assert PauliString.from_letters("X", phase=3).is_hermitian is False
    assert PauliString.from_letters("X").is_hermitian is True


def test_dense_cap_enforced():
    with pytest.raises(ResourceError):
        PauliString.identity(13).to_matrix()


# ---------------------------------------------------------------------------
# PauliOperator basics
# ---------------------------------------------------------------------------


def test_maximally_mixed():
    op = PauliOperator.maximally_mixed(3)
    assert op.num_terms == 1
    assert op.trace() == pytest.approx(1.0)
    assert np.allclose(op.to_dense(), np.eye(8) / 8)


def test_from_terms_accumulates_and_prunes():
    x = PauliString.from_letters("X")
    op = PauliOperator.from_terms(1, [(x, 0.5, None), (x, -0.5, None)])
    assert op.num_terms == 0
    op = PauliOperator.from_terms(1, [(x, 0.5, None), (x, 0.25, None)])
    assert op.coeff("X") == pytest.approx(0.75)


def test_phase_folds_into_coefficient():
    ps = PauliString.from_letters("Z", phase=2)
    op = PauliOperator.from_string(ps, 1.0)
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
    rho = random_density_matrix(3, np.random.default_rng(11)).entries
    assert np.allclose(PauliOperator.from_dense(rho).to_dense(), rho)


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
# Toffoli conjugation: frozen images of the single-letter words
# ---------------------------------------------------------------------------

# computed once from U rho U^dagger with the dense 8x8 Toffoli and frozen here
TOFFOLI_IMAGES = {
    "XII": {"XII": 0.5, "XIX": 0.5, "XZI": 0.5, "XZX": -0.5},
    "IXI": {"IXI": 0.5, "IXX": 0.5, "ZXI": 0.5, "ZXX": -0.5},
    "YII": {"YII": 0.5, "YIX": 0.5, "YZI": 0.5, "YZX": -0.5},
    "IYI": {"IYI": 0.5, "IYX": 0.5, "ZYI": 0.5, "ZYX": -0.5},
    "IIZ": {"IIZ": 0.5, "IZZ": 0.5, "ZIZ": 0.5, "ZZZ": -0.5},
    "IIY": {"IIY": 0.5, "IZY": 0.5, "ZIY": 0.5, "ZZY": -0.5},
    "IIX": {"IIX": 1.0},
    "ZII": {"ZII": 1.0},
    "IZI": {"IZI": 1.0},
}


@pytest.mark.parametrize("word,image", sorted(TOFFOLI_IMAGES.items()))
def test_toffoli_conjugation_frozen_images(word, image):
    op = PauliOperator.from_string(PauliString.from_letters(word))
    got = op.conjugate_toffoli((0, 1, 2))
    assert got.letters_map().keys() == image.keys()
    for letters, coeff in image.items():
        assert got.coeff(letters) == pytest.approx(coeff, abs=1e-15)


def test_toffoli_conjugation_matches_dense_on_any_qubit_order():
    rho = _random_operator(3, seed=21)
    got = rho.conjugate_toffoli((2, 0, 1))
    u = embedded_unitary(3, "TOFFOLI", (2, 0, 1))
    assert np.allclose(got.to_dense(), u @ rho.to_dense() @ u.conj().T, atol=1e-12)


def test_toffoli_conjugation_is_involutive():
    rho = _random_operator(3, seed=22)
    back = rho.conjugate_toffoli((0, 1, 2)).conjugate_toffoli((0, 1, 2))
    assert np.allclose(back.to_dense(), rho.to_dense(), atol=1e-12)


def test_toffoli_conjugation_preserves_trace():
    rho = _random_operator(3, seed=23)
    assert rho.conjugate_toffoli((1, 2, 0)).trace() == pytest.approx(rho.trace())


# ---------------------------------------------------------------------------
# partial trace, reset, projection
# ---------------------------------------------------------------------------


def _bell_pair():
    entries = [
        (PauliString.from_letters(w), c / 4.0, None)
        for w, c in [("II", 1), ("XX", 1), ("YY", -1), ("ZZ", 1)]
    ]
    return PauliOperator.from_terms(2, entries)


def test_partial_trace_of_bell_pair():
    reduced = _bell_pair().partial_trace([1])
    assert reduced.num_qubits == 1
    assert reduced.letters_map() == pytest.approx({"I": 0.5})


def test_partial_trace_keeps_qubit_order():
    zero = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5, None), (PauliString.from_letters("Z"), 0.5, None)]
    )
    plus = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5, None), (PauliString.from_letters("X"), 0.5, None)]
    )
    op = zero.tensor(plus).tensor(PauliOperator.maximally_mixed(1))
    reduced = op.partial_trace([1])
    assert reduced.letters_map() == pytest.approx({"II": 0.25, "ZI": 0.25})


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
        1, [(PauliString.from_letters("I"), 0.5, None), (PauliString.from_letters("X"), 0.5, None)]
    )
    op = plus.tensor(plus)
    reset = op.reset_to_mixed((0,))
    assert reset.letters_map() == pytest.approx({"II": 0.25, "IX": 0.25})
    assert reset.trace() == pytest.approx(1.0)
    assert np.allclose(
        reset.partial_trace([1]).to_dense(), np.eye(2) / 2
    )


def test_reset_to_mixed_rejects_bad_qubit():
    with pytest.raises(UsageError):
        PauliOperator.maximally_mixed(2).reset_to_mixed((2,))


@pytest.mark.parametrize(
    "letters,outcome,prob",
    [("I", 0, 0.5), ("I", 1, 0.5)],
)
def test_project_z_on_plus_state(letters, outcome, prob):
    plus = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5, None), (PauliString.from_letters("X"), 0.5, None)]
    )
    p, post = plus.project_z(0, outcome)
    assert p == pytest.approx(prob)
    sign = 1.0 if outcome == 0 else -1.0
    assert post.letters_map() == pytest.approx({"I": 0.25, "Z": sign * 0.25})


def test_project_z_on_basis_state():
    zero = PauliOperator.from_terms(
        1, [(PauliString.from_letters("I"), 0.5, None), (PauliString.from_letters("Z"), 0.5, None)]
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
    skew = PauliOperator(1, {(0, 0): 0.5 + 0.5j, (0, 1): 0.5})
    with pytest.raises(ProtocolError, match="not real"):
        skew.project_z(0, 0)


def test_approx_equal_is_relative_and_checks_words_and_tags():
    base = PauliOperator(2, {(0, 0): 0.25, (1, 0): 0.125}, {(1, 0): frozenset({"X"})})
    assert base.approx_equal(base.scaled(1 + 1e-13))
    assert not base.approx_equal(base.scaled(1 + 1e-11))
    # relative to the largest coefficient, so a tiny global scale still merges
    tiny = base.scaled(2.0**-60)
    assert tiny.approx_equal(tiny.scaled(1 + 1e-13))
    assert not base.approx_equal(PauliOperator(2, {(0, 0): 0.25, (0, 1): 0.125}))
    assert not base.approx_equal(PauliOperator(2, dict(base.terms)))


# ---------------------------------------------------------------------------
# tags
# ---------------------------------------------------------------------------


def test_tags_survive_conjugation():
    op = PauliOperator.from_string(PauliString.from_letters("X"), 1.0, tag="X")
    got = op.conjugate_clifford(Gate("H", (0,)))
    assert got.coeff("Z") == pytest.approx(1.0)
    assert got.tag_of("Z") == frozenset({"X"})


def test_tags_merge_on_collision():
    x = PauliString.from_letters("X")
    op = PauliOperator.from_terms(1, [(x, 0.5, "a"), (x, 0.5, "b")])
    assert op.tag_of("X") == frozenset({"a", "b"})


def test_zero_coefficient_entry_still_tags():
    x = PauliString.from_letters("X")
    op = PauliOperator.from_terms(1, [(x, 1.0, "a"), (x, 0.0, "b")])
    assert op.coeff("X") == pytest.approx(1.0)
    assert op.tag_of("X") == frozenset({"a", "b"})


def test_tags_survive_partial_trace():
    op = PauliOperator.from_terms(
        2, [(PauliString.from_letters("XI"), 0.25, "x-term")]
    )
    reduced = op.partial_trace([1])
    assert reduced.tag_of("X") == frozenset({"x-term"})


def test_untagged_pipeline_stays_untagged():
    rho = _random_operator(2, seed=51)
    out = rho.conjugate_clifford(Gate("CNOT", (0, 1))).partial_trace([0])
    assert all(not out.tag_of(ps) for ps, _ in out.items())
