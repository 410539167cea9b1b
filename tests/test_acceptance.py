"""Acceptance gate: one test per shipped guarantee.

Each test prints a single summary line on success; `pytest -v` therefore
yields one pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from qsslab.audit import (
    covered_coalitions,
    parity_regime_check,
    secret_independence_check,
)
from qsslab.circuits import (
    Gate,
    expected_ladder_pauli,
    ladder_circuit,
    ladder_fanout_circuit,
    magic_state_circuit,
)
from qsslab.cli import _plaintext_gadget_fidelity, cmd_verify_ladder
from qsslab.dense import (
    StateVector,
    build_unitary,
    random_state_vector,
    run_circuit,
    trace_distance,
)
from qsslab.paulis import PauliString
from qsslab.protocol import (
    EvaluationScript,
    SchemeParams,
    deal,
    evaluate,
    logical_unitary,
    reconstruct,
)

from reference import (
    announce_distribution,
    basis_secret,
    kron_matrix,
    pauli_operator,
    random_clifford_script,
    random_density_matrix,
)


def test_c01_ladder_closed_form_for_every_width():
    """Symbolic conjugation through the ladder reproduces the closed form,
    including the period-four Y sign, exactly, for 2..101 columns."""
    start = time.monotonic()
    for m in range(2, 102):
        circuit = ladder_circuit(m)
        assert len(circuit) == 2 * (m - 1)
        for sigma in "IXYZ":
            op = pauli_operator(
                PauliString.from_letters(sigma + "I" * (m - 1))
            )
            ((ps, coeff),) = op.conjugate_circuit(circuit.gates).items()
            expected = expected_ladder_pauli(m, sigma)
            assert (ps.x, ps.z) == (expected.x, expected.z), (m, sigma)
            assert coeff == expected.phase_factor(), (m, sigma)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 01: PASS ladder closed form exact for m=2..101 ({elapsed:.2f}s)")


def test_c02_ladder_closed_form_against_dense_unitaries():
    """The same closed form holds for the literal matrices up to 8 columns."""
    start = time.monotonic()
    worst = 0.0
    for m in range(2, 9):
        u = build_unitary(ladder_circuit(m))
        for sigma in "IXYZ":
            lhs = (
                u
                @ kron_matrix(PauliString.from_letters(sigma + "I" * (m - 1)))
                @ u.conj().T
            )
            rhs = kron_matrix(expected_ladder_pauli(m, sigma))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 30.0
    print(f"criterion 02: PASS dense cross-check m=2..8, worst {worst:.2e} ({elapsed:.2f}s)")


def test_c03_fanout_half_lemma_and_reported_resolution():
    """The fan-out half alone copies X down the row, extends Y with X
    letters, and leaves the top-row Z untouched; the ladder report records
    this behavioral resolution."""
    worst = 0.0
    for m in range(2, 9):
        a = build_unitary(ladder_fanout_circuit(m))
        images = {"X": "X" * m, "Y": "Y" + "X" * (m - 1), "Z": "Z" + "I" * (m - 1)}
        for sigma, word in images.items():
            lhs = (
                a
                @ kron_matrix(PauliString.from_letters(sigma + "I" * (m - 1)))
                @ a.conj().T
            )
            worst = max(
                worst,
                float(np.max(np.abs(lhs - kron_matrix(PauliString.from_letters(word))))),
            )
    assert worst <= 1e-12

    report = cmd_verify_ladder({"m_range": "2..8"})
    assert report.verdict == "pass"
    fanout_checks = [c for c in report.checks if c.name.startswith("fanout-lemma")]
    assert len(fanout_checks) == 7
    assert all(c.passed for c in fanout_checks)
    assert any("fan-out" in note for note in report.notes)
    print(f"criterion 03: PASS fan-out lemma m=2..8, worst {worst:.2e}, noted in report")


def test_c04_round_trip_for_every_party_count():
    """deal then reconstruct returns the secret to within 1e-10 for 20
    seeded random secrets per configuration, strict and relaxed."""
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        configs = [
            SchemeParams.strict(n=n, k=1, kprime=1),
            SchemeParams.relaxed(n=n, s=1),
        ]
        for params in configs:
            rng = np.random.default_rng(1000 * n + params.s)
            for _ in range(20):
                secret = random_density_matrix(params.s, rng)
                got = reconstruct(deal(params, secret))
                worst = max(worst, trace_distance(got.to_dense(), secret))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 60.0
    print(
        f"criterion 04: PASS round trip n=2..4, strict s=3 and relaxed s=1, "
        f"120 secrets, worst {worst:.2e} ({elapsed:.2f}s)"
    )


def test_c05_secret_independence_for_covered_coalitions():
    """Every dealer-plus-(n-1) coalition's view carries zero secret-tagged
    terms for n=2..5 and s in {1, 3}."""
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4, 5):
        for s in (1, 3):
            params = SchemeParams(n=n, s=s, t=3)
            for coalition in covered_coalitions(n):
                report = secret_independence_check(params, coalition)
                assert report.tagged_residuals == 0, (n, s, coalition.label())
                assert report.verdict == "pass", (n, s, coalition.label())
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"criterion 05: PASS independence, {checked} coalition audits, "
        f"0 tagged residuals everywhere ({elapsed:.2f}s)"
    )


def test_c06_parity_regimes_have_the_expected_term_sets():
    """Covered coalitions survive with exactly the all-identity secret-row
    pattern in both column-parity regimes."""
    for n, regime in ((2, "odd"), (4, "odd"), (3, "even"), (5, "even")):
        for s in (1, 3):
            params = SchemeParams(n=n, s=s, t=3)
            for coalition in covered_coalitions(n):
                report = parity_regime_check(params, coalition)
                assert report.regime == regime
                assert report.verdict == "pass", (n, s, coalition.label())
                expected = ("I" * (s * len(coalition.columns())),)
                assert report.surviving_patterns == expected
    print("criterion 06: PASS parity regimes, all-identity survivor sets only")


def test_c07_random_clifford_scripts_act_logically():
    """50 seeded Clifford scripts of length <= 10 evaluate transversally to
    the scripted unitary within 1e-10."""
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        params = SchemeParams.relaxed(n=n, s=3)
        rng = np.random.default_rng(4200 + i)
        script = random_clifford_script(
            params.n + 1, 3, int(rng.integers(1, 11)), rng
        )
        secret = random_density_matrix(3, rng)
        (branch,), _ = evaluate(deal(params, secret), script)
        u = logical_unitary(script)
        got = reconstruct(branch).to_dense()
        worst = max(worst, trace_distance(got, u @ secret @ u.conj().T))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    print(
        f"criterion 07: PASS 50 Clifford scripts over n=2 and n=3, "
        f"worst {worst:.2e} ({elapsed:.2f}s)"
    )


def test_c08_plaintext_gadget_reproduces_toffoli():
    """The measure-and-correct gadget equals the Toffoli on all 8 basis
    states and 100 seeded random states, fidelity within 1e-10 of 1."""
    start = time.monotonic()
    worst = 0.0
    for idx in range(8):
        worst = max(worst, 1.0 - _plaintext_gadget_fidelity(StateVector.basis(3, idx)))
    rng = np.random.default_rng(88)
    for _ in range(100):
        worst = max(worst, 1.0 - _plaintext_gadget_fidelity(random_state_vector(3, rng)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    print(
        f"criterion 08: PASS plaintext gadget, 108 states, worst infidelity "
        f"{worst:.2e} ({elapsed:.2f}s)"
    )


def test_c09_share_level_gadget_exact_branches():
    """One Toffoli at n=2: every one of the 512 exact branches reconstructs
    the Toffoli output within 1e-9 and consumes exactly one triple."""
    start = time.monotonic()
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0b110))
    assert shared.available_triples == (0,)
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    branches, transcript = evaluate(shared, script)
    target = basis_secret(3, 0b111).to_dense()
    worst = 0.0
    for branch in branches:
        assert branch.consumed_ancillas == frozenset({0})
        assert branch.available_triples == ()
        worst = max(worst, trace_distance(reconstruct(branch).to_dense(), target))
    elapsed = time.monotonic() - start
    assert len(branches) == 512
    assert worst <= 1e-9
    assert abs(transcript.total_probability() - 1.0) <= 1e-12
    print(
        f"criterion 09: PASS share-level gadget, 512 branches, worst "
        f"{worst:.2e}, one triple consumed ({elapsed:.2f}s)"
    )


def test_c10_announcements_are_uniform_and_secret_independent():
    """Every broadcast bit is unbiased to 1e-10 and the joint announcement
    distribution is identical across the all-zero/all-one/all-plus secrets."""
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    report = announce_distribution(params, script, basis_secret(3, 0))
    assert len(report.marginals) == 9
    assert report.max_half_deviation <= 1e-10
    assert report.max_marginal_variation <= 1e-10
    assert report.max_joint_variation <= 1e-10
    assert set(report.secrets_compared) >= {"secret", "|111>", "|+++>"}
    print(
        f"criterion 10: PASS announcements, half-deviation "
        f"{report.max_half_deviation:.2e}, joint variation "
        f"{report.max_joint_variation:.2e}"
    )


def test_c11_resource_state_amplitudes():
    """The gadget's resource preparation yields (|000>+|010>+|100>+|111>)/2
    to 1e-12."""
    ((bits, prob, state),) = run_circuit(magic_state_circuit(), StateVector.basis(3, 0))
    target = np.zeros(8)
    target[[0b000, 0b010, 0b100, 0b111]] = 0.5
    worst = float(np.max(np.abs(state.amplitudes - target)))
    assert bits == ()
    assert prob == pytest.approx(1.0)
    assert worst <= 1e-12
    print(f"criterion 11: PASS resource state amplitudes, worst {worst:.2e}")
