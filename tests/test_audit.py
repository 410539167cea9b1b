"""Security audits of the dealt state: the closed-form leak count against
its partial-trace enumeration, dense cross-checks and honest views."""

import itertools

import numpy as np
import pytest

from qsslab.circuits import Gate
from qsslab.errors import ResourceError, UsageError
from qsslab.audit import (
    AUDIT_TOLERANCE,
    PATTERN_CAP,
    Coalition,
    _secret_row_patterns,
    _tagged_residuals,
    adversary_view,
    covered_coalitions,
    distinguishability,
    parity_regime_check,
    secret_independence_check,
)
from qsslab.protocol import (
    EvaluationScript,
    SchemeParams,
    deal,
    evaluate,
    magic_state_operator,
)

from reference import (
    announce_distribution,
    basis_secret,
    eq16_form_check,
    generic_secret,
    maximally_mixed,
)


# ---------------------------------------------------------------------------
# coalitions
# ---------------------------------------------------------------------------


def test_coalition_parse_accepts_mixed_spellings():
    got = Coalition.parse("alice, P2, 3", n=3)
    assert got.members == frozenset({"alice", "p2", "p3"})
    assert got.columns() == (1, 3, 4)
    assert got.label() == "alice,p2,p3"


def test_coalition_parse_rejects_garbage():
    with pytest.raises(UsageError):
        Coalition.parse("bob", n=2)
    with pytest.raises(UsageError):
        Coalition.parse("p3", n=2)
    with pytest.raises(UsageError):
        Coalition.parse("", n=2)


def test_coalition_properties():
    c = Coalition.parse("alice,p1", n=2)
    assert c.includes_alice
    assert c.honest == frozenset({"p2"})
    assert not c.is_full
    assert c.covered_by_security_argument

    no_dealer = Coalition.parse("p1,p2", n=2)
    assert not no_dealer.covered_by_security_argument

    everyone = Coalition.parse("alice,p1,p2", n=2)
    assert everyone.is_full
    assert not everyone.covered_by_security_argument


def test_covered_coalitions_enumeration():
    crowd = covered_coalitions(3)
    assert len(crowd) == 3
    for c in crowd:
        assert c.includes_alice
        assert len(c.members) == 3
        assert c.covered_by_security_argument


# ---------------------------------------------------------------------------
# the audit secret
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_generic_secret_has_full_support(s):
    op = generic_secret(s)
    assert op.num_terms == 4**s
    assert op.trace() == pytest.approx(1.0)
    assert op.is_hermitian


def test_generic_secret_is_a_state():
    eigs = np.linalg.eigvalsh(generic_secret(2).to_dense())
    assert np.min(eigs) > 0


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------


def test_adversary_view_of_full_coalition_is_everything():
    params = SchemeParams.relaxed(n=2, s=1)
    shared = deal(params, basis_secret(1, 0))
    view = adversary_view(shared, Coalition.parse("alice,p1,p2", n=2))
    assert view == shared.state


def test_adversary_view_reduces_to_kept_columns():
    params = SchemeParams.relaxed(n=2, s=2)
    shared = deal(params, maximally_mixed(2))
    view = adversary_view(shared, Coalition.parse("alice,p2", n=2))
    assert view.num_qubits == 4
    assert view.num_terms == 1
    assert view.trace() == pytest.approx(1.0)


def test_adversary_view_checks_layout():
    params = SchemeParams.relaxed(n=2, s=1)
    shared = deal(params, basis_secret(1, 0))
    with pytest.raises(UsageError):
        adversary_view(shared, Coalition.parse("alice,p1", n=3))


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,regime", [(2, "odd"), (4, "odd"), (3, "even"), (5, "even")])
def test_independence_for_covered_coalitions(n, regime):
    params = SchemeParams.relaxed(n=n, s=2, budget=1)
    for coalition in covered_coalitions(n):
        report = secret_independence_check(params, coalition)
        assert report.verdict == "pass"
        assert report.tagged_residuals == 0
        assert report.max_trace_distance <= AUDIT_TOLERANCE
        assert report.regime == regime


def test_independence_rejects_full_coalition():
    params = SchemeParams.relaxed(n=2, s=1)
    with pytest.raises(UsageError):
        secret_independence_check(params, Coalition.parse("alice,p1,p2", n=2))


def test_independence_report_shape():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    report = secret_independence_check(params, Coalition.parse("alice,p1", n=2))
    payload = report.as_dict()
    assert set(payload) == {
        "params",
        "coalition",
        "regime",
        "tagged_residuals",
        "max_trace_distance",
        "verdict",
        "notes",
    }
    assert payload["coalition"] == "alice,p1"
    assert payload["params"] == {"n": 2, "s": 3, "t": 3, "strict": True}


def test_all_participants_without_dealer_odd_width():
    # three columns: every non-identity secret word marks every column, so
    # even the dealer-less crowd sees nothing
    params = SchemeParams.relaxed(n=2, s=2)
    report = secret_independence_check(params, Coalition.parse("p1,p2", n=2))
    assert report.tagged_residuals == 0
    assert any("descriptively" in note for note in report.notes)


def test_all_participants_without_dealer_even_width():
    # four columns: X-words hide from the dealer, so the dealer-less crowd
    # retains secret-dependent structure; the count factorizes into the 3
    # nontrivial {I,X} row patterns times the {I,X}-only resource terms
    params = SchemeParams.relaxed(n=3, s=2, budget=1)
    report = secret_independence_check(params, Coalition.parse("p1,p2,p3", n=3))
    x_only = sum(
        1
        for ps, _ in magic_state_operator().items()
        if set(ps.letters()) <= {"I", "X"}
    )
    assert report.tagged_residuals == 3 * x_only == 21
    assert report.verdict == "fail"
    assert any("descriptively" in note for note in report.notes)


def _proper_coalitions(n):
    parties = ["alice"] + [f"p{i}" for i in range(1, n + 1)]
    for size in range(1, len(parties)):
        for members in itertools.combinations(parties, size):
            yield Coalition(n, frozenset(members))


def test_secret_row_terms_are_the_secret_dependent_terms():
    # enumeration oracle: deal the full-support generic secret, trace each
    # proper coalition's view and read the secret rows, the first s * width
    # view qubits, off every term; the closed form must give the same count
    # and the same distinct patterns. Where n <= 5, s <= 3 and budget <= 1 a
    # linearity oracle, blind to the row structure, also checks that the
    # counted terms are the secret-dependent ones: the view of the generic
    # secret minus the view of I/2^s keeps exactly those words.
    configs = itertools.chain(
        itertools.product(range(1, 9), range(1, 5), range(2)),
        itertools.product(range(1, 5), range(1, 3), [2]),
    )
    checked = nonzero = 0
    for n, s, budget in configs:
        params = SchemeParams.relaxed(n=n, s=s, budget=budget)
        generic = deal(params, generic_secret(s))
        linear = n <= 5 and s <= 3 and budget <= 1
        mixed = deal(params, maximally_mixed(s)) if linear else None
        for coalition in _proper_coalitions(n):
            where = (n, s, budget, coalition.label())
            view = adversary_view(generic, coalition)
            secret_qubits = s * len(coalition.columns())
            counted, patterns = set(), set()
            for ps, _ in view.items():
                pattern = ps.letters()[:secret_qubits]
                patterns.add(pattern)
                if pattern != "I" * secret_qubits:
                    counted.add((ps.x, ps.z))
            assert len(counted) == _tagged_residuals(params, coalition), where
            assert tuple(sorted(patterns)) == _secret_row_patterns(params, coalition), where
            if linear:
                diff = view.add(adversary_view(mixed, coalition).scaled(-1.0))
                assert counted == diff.terms.keys(), where
            checked += 1
            nonzero += bool(counted)
    assert checked == 8032 + 104
    assert nonzero > 0


def test_closed_form_counts_past_the_enumeration_wall():
    # 4^40 words could never be dealt; at even m the dealer-less crowd keeps
    # the {I, X} letters, so 2^40 - 1 secret words times the 7 {I, X}-only
    # magic-state words leak
    params = SchemeParams.relaxed(n=3, s=40, budget=1)
    report = secret_independence_check(params, Coalition.parse("p1,p2,p3", n=3))
    assert report.tagged_residuals == (2**40 - 1) * 7
    assert report.verdict == "fail"
    assert any("skipped" in note for note in report.notes)


def test_parity_regime_refuses_to_list_past_the_cap():
    params = SchemeParams.relaxed(n=3, s=17)
    assert 2**17 > PATTERN_CAP
    with pytest.raises(ResourceError, match="listing cap"):
        parity_regime_check(params, Coalition.parse("p1,p2,p3", n=3))
    covered = parity_regime_check(params, covered_coalitions(3)[0])
    assert covered.surviving_patterns == ("I" * 17 * 3,)


def test_independence_note_mentions_dense_cross_check_policy():
    small = secret_independence_check(
        SchemeParams.relaxed(n=2, s=1), Coalition.parse("alice,p1", n=2)
    )
    assert any("dense cross-check" in note for note in small.notes)
    big = secret_independence_check(
        SchemeParams.relaxed(n=4, s=3), Coalition.parse("alice,p1,p2,p3", n=4)
    )
    assert any("skipped" in note for note in big.notes)
    assert big.verdict == "pass"


# ---------------------------------------------------------------------------
# distinguishability
# ---------------------------------------------------------------------------


def test_covered_coalition_cannot_distinguish():
    params = SchemeParams.relaxed(n=2, s=1)
    coalition = Coalition.parse("alice,p1", n=2)
    td = distinguishability(params, coalition, basis_secret(1, 0), basis_secret(1, 1))
    assert td == 0.0


def test_full_coalition_distinguishes_orthogonal_secrets():
    params = SchemeParams.relaxed(n=2, s=1)
    coalition = Coalition.parse("alice,p1,p2", n=2)
    td = distinguishability(params, coalition, basis_secret(1, 0), basis_secret(1, 1))
    assert td == pytest.approx(1.0)


def test_distinguishability_of_identical_secrets_is_zero():
    params = SchemeParams.relaxed(n=2, s=1)
    coalition = Coalition.parse("alice,p2", n=2)
    secret = basis_secret(1, 0)
    assert distinguishability(params, coalition, secret, secret) == 0.0


def test_distinguishability_guards_the_dense_cap():
    params = SchemeParams.strict(n=3, k=1, kprime=1)
    coalition = Coalition.parse("alice,p1,p2", n=3)
    with pytest.raises(ResourceError):
        distinguishability(params, coalition, basis_secret(3, 0), basis_secret(3, 1))


# ---------------------------------------------------------------------------
# parity regimes
# ---------------------------------------------------------------------------


def test_parity_regime_covered_odd():
    params = SchemeParams.relaxed(n=2, s=3)
    report = parity_regime_check(params, Coalition.parse("alice,p2", n=2))
    assert report.regime == "odd"
    assert report.verdict == "pass"
    assert report.surviving_patterns == ("I" * 6,)
    assert report.expected_patterns == ("I" * 6,)


def test_parity_regime_covered_even():
    params = SchemeParams.relaxed(n=3, s=2, budget=1)
    report = parity_regime_check(params, Coalition.parse("alice,p1,p3", n=3))
    assert report.regime == "even"
    assert report.verdict == "pass"
    assert report.surviving_patterns == ("I" * 6,)


def test_parity_regime_uncovered_lists_patterns():
    params = SchemeParams.relaxed(n=3, s=2)
    report = parity_regime_check(params, Coalition.parse("p1,p2,p3", n=3))
    assert report.verdict == "info"
    assert report.expected_patterns is None
    assert report.surviving_patterns == ("IIIIII", "IIIXXX", "XXXIII", "XXXXXX")


def test_parity_regime_rejects_full_coalition():
    params = SchemeParams.relaxed(n=2, s=1)
    with pytest.raises(UsageError):
        parity_regime_check(params, Coalition.parse("alice,p1,p2", n=2))


def test_parity_regime_report_shape():
    params = SchemeParams.relaxed(n=2, s=1)
    payload = parity_regime_check(params, Coalition.parse("alice,p1", n=2)).as_dict()
    assert set(payload) == {
        "params",
        "coalition",
        "regime",
        "surviving_patterns",
        "expected_patterns",
        "verdict",
        "notes",
    }


# ---------------------------------------------------------------------------
# post-evaluation honest view
# ---------------------------------------------------------------------------


def _toffoli_run():
    params = SchemeParams.strict(n=2, k=1, kprime=1)
    shared = deal(params, basis_secret(3, 0b110))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    return params, script, evaluate(shared, script)


def test_post_evaluation_honest_view_is_mixed_and_uniform():
    _, _, (branches, transcript) = _toffoli_run()
    report = eq16_form_check(branches, "p2", transcript=transcript)
    assert report.verdict == "pass"
    assert report.branches_checked == 512
    assert report.max_mixedness_deviation <= 1e-12
    assert report.max_bit_half_deviation <= 1e-12
    assert report.honest == "p2"


def test_eq16_accepts_participant_numbers_and_announcements():
    params, script, (branches, _) = _toffoli_run()
    announcement = announce_distribution(params, script, basis_secret(3, 0b110))
    report = eq16_form_check(branches, 1, announcement=announcement)
    assert report.honest == "p1"
    assert report.verdict == "pass"
    assert report.max_bit_half_deviation == announcement.max_half_deviation


def test_eq16_clifford_only_is_vacuous_on_bits():
    params = SchemeParams.relaxed(n=2, s=1)
    shared = deal(params, basis_secret(1, 0))
    branches, transcript = evaluate(shared, EvaluationScript(1, (Gate("H", (1,)),)))
    report = eq16_form_check(branches, "p1", transcript=transcript)
    assert report.verdict == "pass"
    assert report.max_bit_half_deviation is None
    assert any("vacuously" in note for note in report.notes)


def test_eq16_validates_honest_party():
    _, _, (branches, _) = _toffoli_run()
    with pytest.raises(UsageError):
        eq16_form_check(branches, "alice")
    with pytest.raises(UsageError):
        eq16_form_check(branches, "p7")
    with pytest.raises(UsageError):
        eq16_form_check([], "p1")
