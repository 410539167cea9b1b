"""Security audits of the dealt state: the closed-form leak count against
its partial-trace enumeration, dense cross-checks and honest views."""

import itertools
import json

import numpy as np
import pytest

from qsslab.circuits import Gate
from qsslab.cli import main
from qsslab.errors import ResourceError, UsageError
from qsslab.audit import (
    AUDIT_TOLERANCE,
    PATTERN_CAP,
    AuditReport,
    Coalition,
    ParityRegimeReport,
    _row_kernel,
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
    canonical_secret_family,
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
    row_kernel,
    tagged_residuals,
)


# ---------------------------------------------------------------------------
# coalitions
# ---------------------------------------------------------------------------


def test_coalition_parse_accepts_mixed_spellings():
    got = Coalition.parse("alice, P2, 3", n=3)
    assert got == Coalition(3, (1, 3, 4))
    assert got.columns == (1, 3, 4)
    assert got.label() == "alice,p2,p3"


@pytest.mark.parametrize(
    "token, columns",
    [("\u00b2", None), ("\u0661", None), ("01", (1, 2)), ("p01", (1, 2))],
)
def test_coalition_parse_reads_ascii_digits_only(token, columns):
    # a superscript two or an Arabic-Indic one passes str.isdigit but is no
    # party number; a leading zero reads the same with or without the p
    spec = f"alice,{token}"
    if columns is None:
        with pytest.raises(UsageError, match="cannot read coalition member"):
            Coalition.parse(spec, n=3)
    else:
        assert Coalition.parse(spec, n=3).columns == columns


@pytest.mark.parametrize("columns", [(), (2, 1), (1, 1), (0, 1), (1, 4)])
def test_coalition_refuses_bad_columns(columns):
    # empty, unsorted, repeated, below column 1 and past column n + 1 = 3
    with pytest.raises(UsageError) as refused:
        Coalition(2, columns)
    rise = f"coalition columns {columns} must rise strictly within 1..3"
    assert str(refused.value) == (rise if columns else "coalition cannot be empty")


def test_audit_records_take_keywords():
    coalition = Coalition(columns=(1, 2), n=2)
    assert coalition == Coalition(2, (1, 2))
    report = AuditReport(
        params=SchemeParams(2, 1, 0), coalition=coalition, regime="odd", tagged_residuals=0,
        max_trace_distance=0.0, verdict="pass", notes=("a note",),
    )
    assert report == AuditReport(SchemeParams(2, 1, 0), coalition, "odd", 0, 0.0, "pass", ("a note",))
    assert (report.as_dict()["coalition"], report.as_dict()["notes"]) == ("alice,p1", ["a note"])
    regime = ParityRegimeReport(regime="even", surviving_patterns=(), verdict="info", notes=())
    assert (regime.regime, regime.surviving_patterns, regime.verdict) == ("even", (), "info")


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
    assert c.columns == (1, 2)
    assert not c.is_full
    assert c.covered_by_security_argument

    no_dealer = Coalition.parse("p1,p2", n=2)
    assert not no_dealer.covered_by_security_argument

    everyone = Coalition.parse("alice,p1,p2", n=2)
    assert everyone.is_full
    assert not everyone.covered_by_security_argument


def test_covered_coalitions_enumeration():
    crowd = covered_coalitions(3)
    assert [c.columns for c in crowd] == [(1, 3, 4), (1, 2, 4), (1, 2, 3)]
    for c in crowd:
        assert c.includes_alice
        assert len(c.columns) == 3
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
    params = SchemeParams(n=2, s=1, t=0)
    shared = deal(params, basis_secret(1, 0))
    view = adversary_view(shared, Coalition.parse("alice,p1,p2", n=2))
    assert view == shared.state


def test_adversary_view_reduces_to_kept_columns():
    params = SchemeParams(n=2, s=2, t=0)
    shared = deal(params, maximally_mixed(2))
    view = adversary_view(shared, Coalition.parse("alice,p2", n=2))
    assert view.num_qubits == 4
    assert view.num_terms == 1
    assert view.trace() == pytest.approx(1.0)


def test_adversary_view_checks_layout():
    params = SchemeParams(n=2, s=1, t=0)
    shared = deal(params, basis_secret(1, 0))
    with pytest.raises(UsageError):
        adversary_view(shared, Coalition.parse("alice,p1", n=3))


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,regime", [(2, "odd"), (4, "odd"), (3, "even"), (5, "even")])
def test_independence_for_covered_coalitions(n, regime):
    params = SchemeParams(n=n, s=2, t=3)
    for coalition in covered_coalitions(n):
        report = secret_independence_check(params, coalition)
        assert report.verdict == "pass"
        assert report.tagged_residuals == 0
        assert report.max_trace_distance <= AUDIT_TOLERANCE
        assert report.regime == regime


def test_independence_rejects_full_coalition():
    params = SchemeParams(n=2, s=1, t=0)
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
    params = SchemeParams(n=2, s=2, t=0)
    report = secret_independence_check(params, Coalition.parse("p1,p2", n=2))
    assert report.tagged_residuals == 0
    assert any("descriptively" in note for note in report.notes)


def test_all_participants_without_dealer_even_width():
    # four columns: X-words hide from the dealer, so the dealer-less crowd
    # retains secret-dependent structure; the count factorizes into the 3
    # nontrivial {I,X} row patterns times the {I,X}-only resource terms
    params = SchemeParams(n=3, s=2, t=3)
    report = secret_independence_check(params, Coalition.parse("p1,p2,p3", n=3))
    x_only = sum(
        1
        for ps, _ in magic_state_operator().items()
        if set(ps.letters()) <= {"I", "X"}
    )
    assert report.tagged_residuals == 3 * x_only == 21
    assert report.verdict == "fail"
    assert any("descriptively" in note for note in report.notes)


@pytest.mark.parametrize(
    "members, reasons",
    [
        ("p1,p3", ["the dealer is absent"]),
        ("p1,p2,p3,p4", ["the dealer is absent", "no participant besides the dealer is honest"]),
    ],
)
def test_uncovered_note_names_the_reasons_that_hold(members, reasons):
    # alice, p2 and p4 are honest beside p1,p3, so only the dealer's absence
    # leaves that coalition uncovered
    report = secret_independence_check(SchemeParams(n=4, s=1, t=0), Coalition.parse(members, 4))
    (note,) = [note for note in report.notes if "descriptively" in note]
    assert note.startswith(" and ".join(reasons) + ":")
    if len(reasons) == 1:
        assert "honest" not in note


def _proper_coalitions(n):
    parties = ["alice"] + [f"p{i}" for i in range(1, n + 1)]
    for size in range(1, len(parties)):
        for members in itertools.combinations(parties, size):
            yield Coalition.parse(",".join(members), n)


def test_tagged_residuals_match_the_letters_based_count():
    # the x/z mask test of each resource word against reading its letters,
    # for every coalition: the covered ones and every uncovered one, the
    # full and the dealer-less coalitions included
    checked = 0
    for n, s, budget in itertools.product(range(2, 8), (1, 3), range(3)):
        params = SchemeParams(n=n, s=s, t=3 * budget)
        parties = ["alice"] + [f"p{i}" for i in range(1, n + 1)]
        for size in range(1, len(parties) + 1):
            for members in itertools.combinations(parties, size):
                coalition = Coalition.parse(",".join(members), n)
                where = (n, s, budget, coalition.label())
                assert _tagged_residuals(params, coalition) == tagged_residuals(params, coalition), where
                checked += 1
    assert checked == 6 * sum(2 ** (n + 1) - 1 for n in range(2, 8))


def test_row_kernel_masks_match_the_letters_based_kernel():
    # the x/z mask test of each ladder image against reading its letters,
    # for every coalition at n = 1..7, the full ones included: the same
    # letters, each with the same image on the coalition's columns
    checked = 0
    for n in range(1, 8):
        params = SchemeParams(n=n, s=1, t=0)
        parties = ["alice"] + [f"p{i}" for i in range(1, n + 1)]
        for size in range(1, len(parties) + 1):
            for members in itertools.combinations(parties, size):
                coalition = Coalition.parse(",".join(members), n)
                got = {
                    sigma: "".join(image.letter(y - 1) for y in coalition.columns)
                    for sigma, image in _row_kernel(params, coalition).items()
                }
                assert got == row_kernel(params, coalition), (n, coalition.label())
                checked += 1
    assert checked == sum(2 ** (n + 1) - 1 for n in range(1, 8))


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
        params = SchemeParams(n=n, s=s, t=3 * budget)
        generic = deal(params, generic_secret(s))
        linear = n <= 5 and s <= 3 and budget <= 1
        mixed = deal(params, maximally_mixed(s)) if linear else None
        for coalition in _proper_coalitions(n):
            where = (n, s, budget, coalition.label())
            view = adversary_view(generic, coalition)
            secret_qubits = s * len(coalition.columns)
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
    params = SchemeParams(n=3, s=40, t=3)
    report = secret_independence_check(params, Coalition.parse("p1,p2,p3", n=3))
    assert report.tagged_residuals == (2**40 - 1) * 7
    assert report.verdict == "fail"
    assert any("skipped" in note for note in report.notes)


def test_parity_regime_refuses_to_list_past_the_cap():
    params = SchemeParams(n=3, s=17, t=0)
    assert 2**17 > PATTERN_CAP
    with pytest.raises(ResourceError, match="listing cap"):
        parity_regime_check(params, Coalition.parse("p1,p2,p3", n=3))
    covered = parity_regime_check(params, covered_coalitions(3)[0])
    assert covered.surviving_patterns == ("I" * 17 * 3,)


def test_independence_note_mentions_dense_cross_check_policy():
    small = secret_independence_check(
        SchemeParams(n=2, s=1, t=0), Coalition.parse("alice,p1", n=2)
    )
    assert any("dense cross-check" in note for note in small.notes)
    big = secret_independence_check(
        SchemeParams(n=4, s=3, t=0), Coalition.parse("alice,p1,p2,p3", n=4)
    )
    assert any("skipped" in note for note in big.notes)
    assert big.verdict == "pass"


# ---------------------------------------------------------------------------
# distinguishability
# ---------------------------------------------------------------------------


def test_covered_coalition_cannot_distinguish():
    params = SchemeParams(n=2, s=1, t=0)
    coalition = Coalition.parse("alice,p1", n=2)
    td = distinguishability(params, coalition, basis_secret(1, 0), basis_secret(1, 1))
    assert td == 0.0


def test_full_coalition_distinguishes_orthogonal_secrets():
    params = SchemeParams(n=2, s=1, t=0)
    coalition = Coalition.parse("alice,p1,p2", n=2)
    td = distinguishability(params, coalition, basis_secret(1, 0), basis_secret(1, 1))
    assert td == pytest.approx(1.0)


def test_distinguishability_of_identical_secrets_is_zero():
    params = SchemeParams(n=2, s=1, t=0)
    coalition = Coalition.parse("alice,p2", n=2)
    secret = basis_secret(1, 0)
    assert distinguishability(params, coalition, secret, secret) == 0.0


def test_basis_pair_views_at_n2_are_equal_and_need_no_eigensolver(monkeypatch):
    # audit --n 2 compares 12-qubit views: equal views take trace_distance's
    # zero-difference short cut, where views one ulp apart would need the
    # eigenvalues of a 4096 x 4096 dense difference
    params = SchemeParams(n=2, s=3, t=3)
    pair = [deal(params, op) for _, op in canonical_secret_family(3)[:2]]

    def refuse(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for coalition in covered_coalitions(2):
        first, second = (adversary_view(shared, coalition) for shared in pair)
        assert first == second
        assert distinguishability(params, coalition, *pair) == 0.0


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("s", range(1, 4))
def test_covered_views_of_the_canonical_secrets_are_equal(n, s):
    # each secret's coefficients are exact, so the views agree bit for bit
    # and the cross-check's distances take the zero-difference short cut
    params = SchemeParams(n=n, s=s, t=0)
    dealt = [deal(params, op) for _, op in canonical_secret_family(s)]
    for coalition in covered_coalitions(n):
        first, *rest = (adversary_view(shared, coalition) for shared in dealt)
        assert all(view == first for view in rest), coalition.label()


@pytest.mark.parametrize("argv", [["--n", "1"], ["--n", "2", "--t", "0"]])
def test_small_audits_run_the_cross_check_without_an_eigensolve(tmp_path, monkeypatch, argv):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    out = tmp_path / "report.json"
    assert main(["audit", *argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert any(note.startswith("dense cross-check over 3") for note in report["notes"])
    assert [audit["max_trace_distance"] for audit in report["audits"]] == [0.0] * len(report["audits"])
    assert calls == []


def test_distinguishability_guards_the_dense_cap():
    params = SchemeParams.strict(n=3, k=1, kprime=1)
    coalition = Coalition.parse("alice,p1,p2", n=3)
    with pytest.raises(ResourceError):
        distinguishability(params, coalition, basis_secret(3, 0), basis_secret(3, 1))


# ---------------------------------------------------------------------------
# parity regimes
# ---------------------------------------------------------------------------


def test_parity_regime_covered_odd():
    params = SchemeParams(n=2, s=3, t=0)
    report = parity_regime_check(params, Coalition.parse("alice,p2", n=2))
    assert report.regime == "odd"
    assert report.verdict == "pass"
    assert report.surviving_patterns == ("I" * 6,)


def test_parity_regime_covered_even():
    params = SchemeParams(n=3, s=2, t=3)
    report = parity_regime_check(params, Coalition.parse("alice,p1,p3", n=3))
    assert report.regime == "even"
    assert report.verdict == "pass"
    assert report.surviving_patterns == ("I" * 6,)


def test_parity_regime_uncovered_lists_patterns():
    params = SchemeParams(n=3, s=2, t=0)
    report = parity_regime_check(params, Coalition.parse("p1,p2,p3", n=3))
    assert report.verdict == "info"
    assert report.surviving_patterns == ("IIIIII", "IIIXXX", "XXXIII", "XXXXXX")


def test_parity_regime_names_the_kernel_of_an_uncovered_coalition():
    # at m = 4 the X image skips the dealer's column, so the dealer-less
    # crowd keeps I and X; a covered coalition gets no note
    params = SchemeParams(n=3, s=1, t=0)
    report = parity_regime_check(params, Coalition.parse("p1,p2,p3", n=3))
    assert report.notes[-1] == (
        "K_C = {I, X}: the letters whose ladder image misses every honest column"
    )
    assert parity_regime_check(params, covered_coalitions(3)[0]).notes == ()


def test_parity_regime_rejects_full_coalition():
    params = SchemeParams(n=2, s=1, t=0)
    with pytest.raises(UsageError):
        parity_regime_check(params, Coalition.parse("alice,p1,p2", n=2))


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
    params = SchemeParams(n=2, s=1, t=0)
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
