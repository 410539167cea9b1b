"""Command-line entry points and their JSON reports."""

import json

import numpy as np
import pytest

from qsslab import audit as audit_module
from qsslab import cli
from qsslab.audit import covered_coalitions, parity_regime_check, secret_independence_check
from qsslab.cli import main
from qsslab.paulis import PauliOperator, PauliString

TOP_LEVEL_KEYS = [
    "tool",
    "version",
    "command",
    "timestamp",
    "seed",
    "config",
    "checks",
    "notes",
    "verdict",
]


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def _check(payload, name):
    matches = [c for c in payload["checks"] if c["name"] == name]
    assert matches, f"no check named {name!r} in {[c['name'] for c in payload['checks']]}"
    return matches[0]


# ---------------------------------------------------------------------------
# verify-ladder
# ---------------------------------------------------------------------------


def test_verify_ladder_passes(tmp_path):
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..6")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["command"] == "verify-ladder"
    assert list(payload)[: len(TOP_LEVEL_KEYS)] == TOP_LEVEL_KEYS
    assert _check(payload, "ladder-symbolic-m6")["measured"] == 0
    assert _check(payload, "ladder-dense-m4")["passed"] is True
    assert _check(payload, "fanout-lemma-m5")["passed"] is True
    assert payload["notes"]


def test_verify_ladder_symbolic_only_above_dense_cap(tmp_path):
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "14..15")
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == ["ladder-symbolic-m14", "ladder-symbolic-m15"]


def test_verify_ladder_looks_up_each_image_by_its_word(tmp_path, monkeypatch):
    # regrouped storage (the image's rows reversed) cannot change the verdict,
    # and a wrong phase on one expected image is exactly one mismatch
    conjugate = PauliOperator.conjugate_circuit

    def reversed_rows(op, gates):
        image = conjugate(op, gates)
        return PauliOperator(image.num_qubits, image.x[::-1], image.z[::-1], image.coeffs[::-1])

    monkeypatch.setattr(PauliOperator, "conjugate_circuit", reversed_rows)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "9..10")
    assert code == 0
    assert _check(payload, "ladder-symbolic-m9")["measured"] == 0

    expected = cli.expected_ladder_pauli

    def negated_y(m, sigma):
        ps = expected(m, sigma)
        return PauliString(ps.num_qubits, ps.x, ps.z, ps.phase + 2) if sigma == "Y" else ps

    monkeypatch.setattr(cli, "expected_ladder_pauli", negated_y)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "9..10")
    assert code == 1
    assert _check(payload, "ladder-symbolic-m10")["measured"] == 1


@pytest.mark.parametrize("bad", ["5..2", "0..4", "2", "a..b"])
def test_verify_ladder_rejects_bad_range(tmp_path, bad):
    code, _ = _run(tmp_path, "verify-ladder", "--m-range", bad)
    assert code == 2


def test_report_is_deterministic_up_to_timestamp(tmp_path):
    _, first = _run(tmp_path, "verify-ladder", "--m-range", "2..4")
    _, second = _run(tmp_path, "verify-ladder", "--m-range", "2..4")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_report_goes_to_stdout_without_out_flag(capsys):
    code = main(["verify-ladder", "--m-range", "2..3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_defaults(tmp_path):
    code, payload = _run(tmp_path, "run")
    assert code == 0
    assert payload["config"]["n"] == 2
    assert _check(payload, "round-trip-distance")["passed"] is True
    assert _check(payload, "logical-output-distance")["passed"] is True
    assert _check(payload, "branch-probabilities-sum")["passed"] is True
    assert payload["transcript"]["branches"]


def _write_script(tmp_path, *gates):
    path = tmp_path / "script.jsonl"
    path.write_text("".join(json.dumps(g) + "\n" for g in gates))
    return str(path)


def _write_secret(tmp_path, obj):
    path = tmp_path / "secret.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_with_toffoli_script(tmp_path):
    script = _write_script(
        tmp_path, {"g": "H", "q": [1]}, {"g": "TOFFOLI", "q": [1, 2, 3]}
    )
    secret = _write_secret(tmp_path, {"amplitudes": [0, 0, 0, 0, 0, 0, 1, 0]})
    code, payload = _run(
        tmp_path, "run", "--script", script, "--secret", secret, "--strict", "--k", "1"
    )
    assert code == 0
    rows = payload["transcript"]["branches"]
    assert len(rows) == 512
    assert all(a["bits"] < b["bits"] for a, b in zip(rows, rows[1:]))
    assert len(payload["transcript"]["bits"]) == 9
    for bit in payload["transcript"]["bits"]:
        assert bit["marginal"] == pytest.approx(0.5)
    assert _check(payload, "logical-output-distance")["tolerance"] == 1e-9


def test_run_with_pauli_secret(tmp_path):
    secret = _write_secret(tmp_path, {"pauli": {"III": 0.125, "ZZZ": 0.125}})
    code, payload = _run(tmp_path, "run", "--secret", secret)
    assert code == 0
    assert _check(payload, "round-trip-distance")["passed"] is True


def test_run_sampled_requires_seed(tmp_path):
    code, _ = _run(tmp_path, "run", "--mode", "sampled")
    assert code == 2


def test_run_sampled_with_seed(tmp_path):
    script = _write_script(tmp_path, {"g": "TOFFOLI", "q": [1, 2, 3]})
    code, payload = _run(
        tmp_path, "run", "--script", script, "--mode", "sampled", "--seed", "7"
    )
    assert code == 0
    assert len(payload["transcript"]["branches"]) == 1
    assert payload["seed"] == 7


def test_run_budget_exhaustion_exits_one(tmp_path):
    script = _write_script(
        tmp_path, {"g": "TOFFOLI", "q": [1, 2, 3]}, {"g": "TOFFOLI", "q": [1, 2, 3]}
    )
    code, payload = _run(tmp_path, "run", "--script", script, "--t", "3")
    assert code == 1
    assert payload is None


def test_run_exact_branch_explosion_exits_three(tmp_path):
    script = _write_script(
        tmp_path, {"g": "TOFFOLI", "q": [1, 2, 3]}, {"g": "TOFFOLI", "q": [1, 2, 3]}
    )
    code, _ = _run(tmp_path, "run", "--script", script, "--t", "6")
    assert code == 3


def test_run_default_secret_above_the_dense_cap_exits_three(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("allocated before the dense cap refused")

    monkeypatch.setattr(np, "outer", forbidden)
    monkeypatch.setattr(cli, "deal", forbidden)
    code, payload = _run(tmp_path, "run", "--s", "13", "--t", "0")
    assert code == 3
    assert payload is None


def test_run_rejects_nonpositive_tolerance(tmp_path):
    code, _ = _run(tmp_path, "run", "--tolerance", "-1")
    assert code == 2


def test_run_failure_verdict_exits_one(tmp_path):
    # an impossibly tight tolerance turns the irrational Hadamard round-off
    # into a failed check and a nonzero exit
    script = _write_script(tmp_path, {"g": "H", "q": [1]})
    code, payload = _run(
        tmp_path, "run", "--script", script, "--tolerance", "1e-300"
    )
    assert code == 1
    assert payload["verdict"] == "fail"
    assert _check(payload, "logical-output-distance")["passed"] is False


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_defaults(tmp_path):
    code, payload = _run(tmp_path, "audit")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert _check(payload, "independence-alice,p1")["measured"] == 0
    assert _check(payload, "parity-regime-alice,p2")["passed"] is True
    assert _check(payload, "distinguishability-basis-pair")["passed"] is True
    assert payload["audits"]


def test_audit_explicit_coalition(tmp_path):
    code, payload = _run(tmp_path, "audit", "--n", "3", "--coalition", "alice,p1,p3")
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert "independence-alice,p1,p3" in names


def test_audit_uncovered_coalition_is_informational(tmp_path):
    code, payload = _run(tmp_path, "audit", "--coalition", "p1,p2")
    assert code == 0
    check = _check(payload, "independence-p1,p2")
    assert check["passed"] is None
    assert any("descriptively" in note for note in payload["notes"])


@pytest.mark.parametrize("t", [None, 0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_audit_deals_once_and_matches_standalone_checks(n, t):
    # every coalition's report rows equal standalone check calls
    options = {"n": n} if t is None else {"n": n, "t": t}
    params = cli._params_from(options)
    expected_audits = []
    expected_checks = {}
    for coalition in covered_coalitions(n):
        audit = secret_independence_check(params, coalition)
        regime = parity_regime_check(params, coalition)
        expected_audits.append(audit.as_dict())
        label = coalition.label()
        expected_checks[f"independence-{label}"] = (
            audit.tagged_residuals,
            audit.verdict == "pass",
            {"max_trace_distance": audit.max_trace_distance},
        )
        expected_checks[f"parity-regime-{label}"] = (
            len(regime.surviving_patterns),
            regime.verdict == "pass",
            {"regime": regime.regime, "surviving_patterns": list(regime.surviving_patterns)},
        )

    report = cli.cmd_audit(options)
    assert report.extras["audits"] == expected_audits
    got = {
        c.name: (c.measured, c.passed, c.detail)
        for c in report.checks
        if c.name.startswith(("independence-", "parity-regime-"))
    }
    assert got == expected_checks


def test_audit_full_coalition_exits_two(tmp_path, monkeypatch, capsys):
    # refused before anything is dealt
    monkeypatch.setattr(cli, "deal", None)
    monkeypatch.setattr(audit_module, "deal", None)
    code, _ = _run(tmp_path, "audit", "--coalition", "alice,p1,p2")
    assert code == 2
    assert "trivially reconstructs" in capsys.readouterr().err


def test_audit_at_large_n_and_s_needs_no_deal(tmp_path, monkeypatch):
    # 4^32 secret words: only the closed form can count this, and the views
    # are too large for any dense cross-check
    monkeypatch.setattr(cli, "deal", None)
    monkeypatch.setattr(audit_module, "deal", None)
    code, payload = _run(tmp_path, "audit", "--n", "100", "--s", "32")
    assert code == 0
    assert len(payload["audits"]) == 100
    for audit in payload["audits"]:
        assert audit["tagged_residuals"] == 0
        assert audit["verdict"] == "pass"


def test_audit_bad_coalition_exits_two(tmp_path):
    code, _ = _run(tmp_path, "audit", "--coalition", "alice,bob")
    assert code == 2


def test_audit_strict_sizes_by_s_and_t(tmp_path):
    code, payload = _run(tmp_path, "audit", "--strict", "--s", "6", "--t", "6")
    assert code == 0
    assert (payload["config"]["s"], payload["config"]["t"]) == (6, 6)


@pytest.mark.parametrize(
    "argv",
    [
        ("--k", "1", "--s", "3"),
        ("--kprime", "2", "--t", "6"),
        ("--strict", "--s", "6", "--t", "3"),  # k'/k = 1/2
        ("--strict", "--s", "4"),  # s is not 3k
        ("--t", "4"),  # ancilla rows come in triples
    ],
)
def test_audit_refuses_inconsistent_sizes(tmp_path, argv):
    code, payload = _run(tmp_path, "audit", *argv)
    assert code == 2
    assert payload is None


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------


def test_gadget_report(tmp_path):
    code, payload = _run(tmp_path, "gadget")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert _check(payload, "magic-state-amplitudes")["tolerance"] == 1e-12
    assert _check(payload, "plaintext-basis-inputs")["passed"] is True
    assert _check(payload, "plaintext-random-states")["passed"] is True
    share = _check(payload, "share-gadget-branches")
    assert share["passed"] is True
    assert share["detail"]["branches"] == 512
    assert share["detail"]["consumed"] == [0]
    assert _check(payload, "budget-rule")["passed"] is True


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_range": "2..4", "tolerance": 1e-10}))
    code, payload = _run(tmp_path, "verify-ladder", "--config", str(config))
    assert code == 0
    assert payload["config"]["m_range"] == "2..4"


def test_config_file_key_value(tmp_path):
    config = tmp_path / "config.cfg"
    config.write_text("# audit size\nn = 3\ncoalition = alice,p1,p2\n")
    code, payload = _run(tmp_path, "audit", "--config", str(config))
    assert code == 0
    assert payload["config"]["n"] == 3


def test_flags_override_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m_range": "2..12"}))
    code, payload = _run(
        tmp_path, "verify-ladder", "--config", str(config), "--m-range", "2..3"
    )
    assert code == 0
    assert payload["config"]["m_range"] == "2..3"


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rows": 5}))
    code, _ = _run(tmp_path, "verify-ladder", "--config", str(config))
    assert code == 2


# each subcommand's flags besides --config, --tolerance and --out
OWN_FLAGS = {
    "verify-ladder": {"m_range"},
    "run": {"n", "k", "kprime", "s", "t", "strict", "mode", "seed", "secret", "script"},
    "audit": {"n", "k", "kprime", "s", "t", "strict", "coalition"},
    "gadget": {"seed"},
}
FLAG_VALUES = {
    "n": "3", "k": "1", "kprime": "1", "s": "3", "t": "3", "strict": None,
    "m_range": "2..3", "coalition": "alice,p1", "mode": "exact", "seed": "1",
    "secret": "secret.json", "script": "script.jsonl",
}
UNREAD = [
    (command, key)
    for command, own in OWN_FLAGS.items()
    for key in FLAG_VALUES
    if key not in own
]


@pytest.mark.parametrize("command,key", UNREAD)
def test_subcommand_refuses_flags_it_does_not_read(tmp_path, capsys, command, key):
    _write_secret(tmp_path, {"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]})
    _write_script(tmp_path, {"g": "H", "q": [1]})
    value = FLAG_VALUES[key]
    flag = ["--" + key.replace("_", "-")]
    if value is not None:
        flag.append(str(tmp_path / value) if key in ("secret", "script") else value)
    code, payload = _run(tmp_path, command, *flag)
    assert code == 2
    assert payload is None
    # the message lists the flags this command does take
    assert capsys.readouterr().err.startswith(f"usage: qsslab {command} ")

    config = tmp_path / "config.cfg"
    config.write_text(f"{key} = {'true' if value is None else flag[1]}\n")
    code, payload = _run(tmp_path, command, "--config", str(config))
    assert code == 2
    assert payload is None


def test_parser_declares_each_commands_own_flags():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    declared = {
        name: {a.dest for a in p._actions if a.option_strings} - {"help"}
        for name, p in sub.choices.items()
    }
    assert declared == {
        name: own | {"config", "tolerance", "out"} for name, own in OWN_FLAGS.items()
    }
    assert sum(len(flags) for flags in declared.values()) == 31


@pytest.mark.parametrize(
    "line", ["n = abc", "mode = bogus", "seed = 1.5", "tolerance = tight", "strict = maybe"]
)
def test_config_values_are_checked_like_flags(tmp_path, line, capsys):
    config = tmp_path / "config.cfg"
    config.write_text(line + "\n")
    code, payload = _run(tmp_path, "run", "--config", str(config))
    assert code == 2
    assert payload is None
    assert "Traceback" not in capsys.readouterr().err


def test_config_strict_and_sizes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strict": True, "s": 6, "t": 6, "n": 3}))
    code, payload = _run(tmp_path, "audit", "--config", str(config), "--n", "2")
    assert code == 0
    assert [payload["config"][key] for key in ("n", "s", "t")] == [2, 6, 6]
    config.write_text(json.dumps({"strict": False, "s": 2, "t": 0}))
    code, payload = _run(tmp_path, "audit", "--config", str(config))
    assert code == 0
    assert (payload["config"]["s"], payload["config"]["t"]) == (2, 0)


@pytest.mark.parametrize("flag", ["--secret", "--script", "--config", "--out"])
def test_unreadable_paths_exit_two(tmp_path, flag, capsys):
    missing = str(tmp_path / "missing" / "file")
    assert main(["run", flag, missing]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--secret", "--script", "--config"])
def test_files_that_are_not_utf8_exit_two(tmp_path, flag, capsys):
    path = tmp_path / "latin1"
    path.write_bytes(b'{"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]} # \xff\n')
    assert main(["run", flag, str(path)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2
