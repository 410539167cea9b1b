"""Command-line entry points and their JSON reports."""

import json
import math
import os

import numpy as np
import pytest

from qsslab import audit as audit_module
from qsslab import circuits
from qsslab import cli
from qsslab.audit import covered_coalitions, parity_regime_check, secret_independence_check
from qsslab.cli import main
from qsslab.dense import build_unitary
from qsslab.errors import UsageError
from qsslab.paulis import PauliString

from reference import dense_error, ladder_sweep, monomial_matrix

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


def test_verify_ladder_compares_each_image_in_its_own_slot(tmp_path, monkeypatch):
    # 9..140 runs as chunks of 64, 64 and 4 widths, read back as 256, 256
    # and 16 terms; a readback that rotates the second chunk's rows by one
    # term hands each of its widths another letter's image, so every width
    # of that chunk fails and no other does; and a wrong phase on one
    # expected image is exactly one mismatch
    words_from_planes = cli._words_from_planes
    chunks = []

    def rotated_second_chunk(x, z, count):
        chunks.append(count)
        rows = words_from_planes(x, z, count)
        return tuple(np.roll(r, 1, axis=0) for r in rows) if len(chunks) == 2 else rows

    monkeypatch.setattr(cli, "_words_from_planes", rotated_second_chunk)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "9..140")
    assert code == 1
    assert chunks == [256, 256, 16]
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [f"ladder-symbolic-m{m}" for m in range(73, 137)]
    monkeypatch.undo()

    expected = cli.expected_ladder_pauli

    def negated_y(m, sigma):
        ps = expected(m, sigma)
        return PauliString(ps.num_qubits, ps.x, ps.z, ps.phase + 2) if sigma == "Y" else ps

    monkeypatch.setattr(cli, "expected_ladder_pauli", negated_y)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "9..10")
    assert code == 1
    assert _check(payload, "ladder-symbolic-m10")["measured"] == 1


@pytest.mark.parametrize("spec", ["2..140", "5..70"])
@pytest.mark.parametrize(
    "gates",
    [circuits.ladder_gates, lambda m: circuits.ladder_gates(m) + (circuits.Gate("S", (0,)),)],
    ids=["ladder", "ladder-then-S"],
)
def test_verify_ladder_matches_the_per_width_reference(tmp_path, monkeypatch, spec, gates):
    # both ranges cross the 64-column word boundary, 2..140 the 128-column
    # one too, and both end on a partial block of widths; a trailing S on
    # qubit 0 maps X to Y and Y to -X there, so the images, signs and
    # mismatch counts of a wrong ladder must agree too
    lo, hi = map(int, spec.split(".."))
    want = list(ladder_sweep(lo, hi, gates))
    monkeypatch.setattr(cli, "ladder_gates", gates)
    assert list(cli._ladder_images(lo, hi)) == [(m, images) for m, _, images in want]
    _, payload = _run(tmp_path, "verify-ladder", "--m-range", spec)
    symbolic = [(c["name"], c["measured"]) for c in payload["checks"] if "symbolic" in c["name"]]
    assert symbolic == [(f"ladder-symbolic-m{m}", count) for m, count, _ in want]


def test_verify_ladder_refuses_a_range_past_the_column_cap_before_any_work(tmp_path, monkeypatch, capsys):
    gates = cli.ladder_gates

    def forbidden(m):
        raise AssertionError("a ladder was built before the column cap refused")

    monkeypatch.setattr(cli, "ladder_gates", forbidden)
    for spec in (f"2..{cli.LADDER_MAX_COLUMNS + 1}", "2..100000"):
        code, payload = _run(tmp_path, "verify-ladder", "--m-range", spec)
        assert code == 3 and payload is None
        assert "verify-ladder checks at most 4096" in capsys.readouterr().err
    # the cap itself is accepted
    monkeypatch.setattr(cli, "ladder_gates", gates)
    monkeypatch.setattr(cli, "LADDER_MAX_COLUMNS", 20)
    assert _run(tmp_path, "verify-ladder", "--m-range", "2..20")[0] == 0
    assert _run(tmp_path, "verify-ladder", "--m-range", "20..21")[0] == 3


def test_verify_ladder_builds_each_ladder_gate_once(tmp_path, monkeypatch):
    # columns 1..100 each have one fan-out and one fan-in CNOT, shared by
    # every width and by the dense half
    built = []
    new = circuits.Gate.__new__

    def counting(cls, *args, **kwargs):
        gate = new(cls, *args, **kwargs)
        built.append(gate)
        return gate

    circuits._ladder_cnots.cache_clear()
    circuits.ladder_circuit.cache_clear()
    circuits.ladder_fanout_circuit.cache_clear()
    monkeypatch.setattr(circuits.Gate, "__new__", counting)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..101")
    assert code == 0
    assert len(payload["checks"]) == 100 + 2 * 7
    # the cache starts empty, so the two per column are built here, once
    assert len(built) == 2 * 100
    assert {gate.qubits for gate in built} == {
        pair for j in range(1, 101) for pair in ((0, j), (j, 0))
    }
    # every circuit is cached too: a second run builds no gate and no circuit
    circuits_built = []
    circuit_init = circuits.Circuit.__init__

    def counting_circuit(circuit, *args, **kwargs):
        circuits_built.append(circuit)
        circuit_init(circuit, *args, **kwargs)

    monkeypatch.setattr(circuits.Circuit, "__init__", counting_circuit)
    built.clear()
    code, again = _run(tmp_path, "verify-ladder", "--m-range", "2..101")
    assert code == 0
    assert again["checks"] == payload["checks"]
    assert built == [] and circuits_built == []


@pytest.mark.parametrize(
    "wrong",
    [
        lambda ps: PauliString(ps.num_qubits, ps.x ^ (1 << 70), ps.z, ps.phase),
        lambda ps: PauliString(ps.num_qubits, ps.x, ps.z | (1 << 76), ps.phase),
        lambda ps: PauliString(ps.num_qubits, ps.x, ps.z, ps.phase + 2),
    ],
    ids=["x-bit-in-word-2", "z-bit-in-word-2", "sign"],
)
def test_verify_ladder_catches_one_wrong_image_at_77_columns(tmp_path, monkeypatch, wrong):
    # at m = 77 every mask spans two uint64 words; one wrong expected image
    # is exactly one mismatch at that width and nowhere else
    expected = cli.expected_ladder_pauli

    def one_wrong(m, sigma):
        ps = expected(m, sigma)
        return wrong(ps) if (m, sigma) == (77, "X") else ps

    monkeypatch.setattr(cli, "expected_ladder_pauli", one_wrong)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..101")
    assert code == 1
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [(c["name"], c["measured"]) for c in failed] == [("ladder-symbolic-m77", 1)]


def test_verify_ladder_sweeps_the_gates_it_names(tmp_path, monkeypatch):
    # the symbolic sweep conjugates by the ladder_gates it names: ladders
    # missing column 3's fan-in CNOT (3 -> 0) at every width must fail at
    # the widths 4..8 that have column 3 and pass at 2 and 3, while the
    # dense half, which runs the cached ladder_circuit, still passes
    gates = cli.ladder_gates
    monkeypatch.setattr(cli, "ladder_gates", lambda m: tuple(g for g in gates(m) if g.qubits != (3, 0)))
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..8")
    assert code == 1
    assert len(payload["checks"]) == 3 * 7
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [f"ladder-symbolic-m{m}" for m in range(4, 9)]
    assert all(c["measured"] > 0 for c in failed)


def test_verify_ladder_catches_a_wrong_fanout_image(tmp_path, monkeypatch):
    # the fan-out of X at m = 5 is X^5; claiming X^4 (x) I must fail there only
    images = dict(cli._FANOUT_IMAGES)
    right = images["X"]
    images["X"] = lambda m: "X" * (m - 1) + "I" if m == 5 else right(m)
    monkeypatch.setattr(cli, "_FANOUT_IMAGES", images)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..8")
    assert code == 1
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["fanout-lemma-m5"]
    assert failed[0]["measured"] == pytest.approx(1.0)


def test_dense_ladder_error_catches_a_flipped_image_and_a_non_unitary_matrix():
    # U P = Q U alone also holds for 2 U and for U = 0; the unitarity term
    # catches both, a sign-flipped image fails on its own letter, and a
    # perm that is no bijection is no unitary at all
    m = 4
    perm, phase = cli.monomial_unitary(circuits.ladder_circuit(m))
    images = {sigma: cli.expected_ladder_pauli(m, sigma) for sigma in "XYZ"}
    assert cli._monomial_error(perm, phase, images) == 0.0
    y = images["Y"]
    flipped = dict(images, Y=PauliString(y.num_qubits, y.x, y.z, y.phase + 2))
    assert cli._monomial_error(perm, phase, flipped) == 2.0
    assert cli._monomial_error(perm, 2 * phase, images) == 3.0
    assert cli._monomial_error(perm, 0 * phase, images) == 1.0
    merged = perm.copy()
    merged[1] = merged[0]
    assert cli._monomial_error(merged, phase, images) == math.inf


def _corrupted(circuit, rng):
    """The circuit with one random gate dropped, with one random CNOT
    reversed, and with an S or a Z appended on a random qubit."""
    gates = list(circuit.gates)
    n = circuit.num_qubits
    drop = int(rng.integers(len(gates)))
    flip = int(rng.integers(len(gates)))
    reversed_cnot = circuits.Gate("CNOT", gates[flip].qubits[::-1])
    yield gates[:drop] + gates[drop + 1 :]
    yield gates[:flip] + [reversed_cnot] + gates[flip + 1 :]
    for kind in ("S", "Z"):
        yield gates + [circuits.Gate(kind, (int(rng.integers(n)),))]


@pytest.mark.parametrize("m", range(2, 9))
def test_dense_ladder_error_matches_full_matrix_products(m):
    # the monomial error against Kronecker matrices and full products, on
    # the ladder and its fan-out half with their images, and on corrupted
    # copies of both, each letter alone and all together. A CNOT circuit's
    # perm is GF(2)-affine, so U P and Q U put their entries in the same rows
    # in every column or in none. Random perms mix the two; with real phases
    # near 1 and Q = P = X (x) I, a pair in one row differs by at most 0.1,
    # so a pair in two rows, worth about 1, sets the error
    rng = np.random.default_rng(m)
    fanout = {sigma: PauliString.from_letters(image(m)) for sigma, image in cli._FANOUT_IMAGES.items()}
    cases = [
        (circuits.ladder_circuit(m), {sigma: cli.expected_ladder_pauli(m, sigma) for sigma in "XYZ"}),
        (circuits.ladder_fanout_circuit(m), fanout),
    ]
    errors = set()
    for circuit, images in cases:
        letter_sets = (images, *({sigma: q} for sigma, q in images.items()))
        for index, gates in enumerate([list(circuit.gates), *_corrupted(circuit, rng)]):
            variant = circuits.Circuit(m, 0, tuple(gates))
            perm, phase = cli.monomial_unitary(variant)
            u = build_unitary(variant)
            for letters in letter_sets:
                want = dense_error(u, letters)
                assert cli._monomial_error(perm, phase, letters) == want, (gates, letters)
                assert want == 0.0 or index > 0
                errors.add(want)
        same_x = {"X": PauliString.from_letters("X" + "I" * (m - 1))}
        for _ in range(4):
            perm, phase = rng.permutation(2**m), 1 + 0.1 * rng.random(2**m)
            for letters in (*letter_sets, same_x):
                want = dense_error(monomial_matrix(perm, phase), letters)
                assert cli._monomial_error(perm, phase, letters) == pytest.approx(want, rel=1e-12)
    # entries in two rows, a flipped sign and an S phase all show
    assert {1.0, 2.0, math.sqrt(2)} <= errors


def test_verify_ladder_catches_a_scaled_unitary(tmp_path, monkeypatch):
    # every dense check, the fan-out lemma's included, reads U U^dag - I.
    # Only the ladders' CNOT circuits are doubled: the Pauli letters'
    # monomials, cached per process, come from the same function
    build = cli.monomial_unitary

    def doubled(circuit):
        perm, phase = build(circuit)
        return perm, 2 * phase if circuit.gates[0].kind == "CNOT" else phase

    monkeypatch.setattr(cli, "monomial_unitary", doubled)
    code, payload = _run(tmp_path, "verify-ladder", "--m-range", "2..4")
    assert code == 1
    failed = sorted(c["name"] for c in payload["checks"] if not c["passed"])
    assert failed == [f"{kind}-m{m}" for kind in ("fanout-lemma", "ladder-dense") for m in (2, 3, 4)]


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


# a secret entry is a JSON number or an [re, im] pair of numbers: read as
# numbers, these would deal |000> and exit 0
SECRET_TYPE_CASES = {
    "amplitude-a-bool": ({"amplitudes": [True] + [False] * 7}, True),
    "pair-part-a-string": ({"amplitudes": [["1", "0"]] + [0] * 7}, ["1", "0"]),
}


@pytest.mark.parametrize("obj, bad", SECRET_TYPE_CASES.values(), ids=list(SECRET_TYPE_CASES))
def test_secret_entry_of_the_wrong_json_type_exits_two(tmp_path, capsys, obj, bad):
    secret = _write_secret(tmp_path, obj)
    code, payload = _run(tmp_path, "run", "--s", "3", "--secret", secret)
    assert code == 2 and payload is None
    assert f"cannot read {bad!r} as a complex number" in capsys.readouterr().err


_NO_CLASSICAL_CONTROL = "scripts hold unitary gates only, not MEASURE_Z, 'c' or 'cond'"

SCRIPT_TYPE_CASES = {
    "cond-not-a-string": ({"g": "X", "q": [1], "cond": 0}, _NO_CLASSICAL_CONTROL),
    "q-not-a-list": ({"g": "X", "q": 1}, "'q' must be a list of integers"),
    "q-entry-a-string": ({"g": "X", "q": ["a"]}, "'q' must be a list of integers"),
    "q-entry-a-float": ({"g": "X", "q": [1.7]}, "'q' must be a list of integers"),
    "q-entry-a-bool": ({"g": "X", "q": [True]}, "'q' must be a list of integers"),
    "c-not-an-integer": ({"g": "MEASURE_Z", "q": [1], "c": "0"}, _NO_CLASSICAL_CONTROL),
}


@pytest.mark.parametrize("line, message", SCRIPT_TYPE_CASES.values(), ids=list(SCRIPT_TYPE_CASES))
def test_script_line_of_the_wrong_json_type_exits_two(tmp_path, capsys, line, message):
    # the bad line is the second, after a valid one
    script = _write_script(tmp_path, {"g": "H", "q": [1]}, line)
    code, payload = _run(tmp_path, "run", "--script", script)
    assert code == 2 and payload is None
    assert f"line 2: {message}" in capsys.readouterr().err


def test_run_sampled_requires_seed(tmp_path):
    code, _ = _run(tmp_path, "run", "--mode", "sampled")
    assert code == 2


@pytest.mark.parametrize(
    "argv", [("run", "--mode", "sampled", "--seed", "-1"), ("gadget", "--seed", "-1")], ids=["run", "gadget"]
)
def test_negative_seed_exits_two(tmp_path, capsys, argv):
    # numpy's generator refuses a negative seed; the command refuses it first
    code, payload = _run(tmp_path, *argv)
    assert code == 2 and payload is None
    err = capsys.readouterr().err
    assert "usage error: seed must be non-negative" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_run_rejects_nonpositive_tolerance(tmp_path, value, capsys):
    code, payload = _run(tmp_path, "run", "--tolerance", value)
    assert code == 2
    assert payload is None
    assert "usage error" in capsys.readouterr().err


def test_run_past_the_normal_float64_range_passes(tmp_path):
    # 1,212 grid qubits: three sampled TOFFOLIs, each burning its own triple
    toffoli = {"g": "TOFFOLI", "q": [1, 2, 3]}
    script = _write_script(tmp_path, toffoli, toffoli, toffoli)
    argv = ["run", "--n", "100", "--s", "3", "--t", "9", "--mode", "sampled", "--seed", "1"]
    code, payload = _run(tmp_path, *argv, "--script", script)
    assert code == 0
    assert payload["verdict"] == "pass"


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
        c["name"]: (c["measured"], c["passed"], c["detail"])
        for c in report.checks
        if c["name"].startswith(("independence-", "parity-regime-"))
    }
    assert got == expected_checks


def test_audit_deals_the_cross_check_family_once_per_command(tmp_path, monkeypatch):
    # n = 2, t = 0: two coalitions with 6-qubit views share one dealt family
    # of three secrets, and distinguishability reads its basis pair from that
    # family. A second command deals again, so nothing is kept between
    # commands.
    deals = []
    real_deal = audit_module.deal

    def counting(params, secret):
        deals.append(params)
        return real_deal(params, secret)

    monkeypatch.setattr(audit_module, "deal", counting)
    for _ in range(2):
        deals.clear()
        code, payload = _run(tmp_path, "audit", "--n", "2", "--t", "0")
        assert code == 0
        assert len(payload["audits"]) == 2
        assert len(deals) == 3


def test_audit_refuses_a_family_dealt_for_another_layout():
    dealt = []
    small = cli._params_from({"n": 2, "t": 0})
    secret_independence_check(small, covered_coalitions(2)[0], dealt=dealt)
    assert len(dealt) == 3
    other = cli._params_from({"n": 2, "s": 2, "t": 0})
    with pytest.raises(UsageError, match="another share layout"):
        secret_independence_check(other, covered_coalitions(2)[0], dealt=dealt)


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


def test_audit_non_ascii_digit_exits_two(tmp_path, capsys):
    # a superscript two passes str.isdigit, and int() would raise on it
    code, payload = _run(tmp_path, "audit", "--n", "3", "--coalition", "alice,²")
    assert code == 2
    assert payload is None
    assert "cannot read coalition member" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("audit", "n", "1_0"),
        ("audit", "n", "٣"),
        ("audit", "k", "+1"),
        ("audit", "kprime", "١"),
        ("audit", "s", "３"),
        ("audit", "t", "0_3"),
        ("run", "seed", "٣"),
        ("gadget", "seed", "--1"),
        ("verify-ladder", "m_range", "٢..٥"),
        ("verify-ladder", "m_range", "1_0..1_2"),
        ("verify-ladder", "m_range", "2..1_2"),
    ],
)
def test_integer_flags_read_ascii_digits_only(tmp_path, via, command, key, value):
    # int() reads "1_0" as 10 and "٣" (Arabic-Indic three) as 3; an integer
    # flag takes ASCII digits after at most one "-", from flags and config
    if via == "flag":
        argv = (command, f"--{key.replace('_', '-')}={value}")
    else:
        config = tmp_path / "config.txt"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        argv = (command, "--config", str(config))
    code, payload = _run(tmp_path, *argv)
    assert code == 2
    assert payload is None


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
# report encoding
# ---------------------------------------------------------------------------

# "SCRIPT" stands for a one-TOFFOLI script file
LAYOUT_CASES = {
    "exact-toffoli-run": ("run", "--strict", "--k", "1", "--script", "SCRIPT"),
    "sampled-run": ("run", "--mode", "sampled", "--seed", "7", "--script", "SCRIPT"),
    "audit-cross-check": ("audit", "--n", "2", "--t", "0"),
    "audit-uncovered": ("audit", "--coalition", "p1,p2"),
    "verify-ladder": ("verify-ladder", "--m-range", "2..9"),
    "gadget": ("gadget", "--seed", "0"),
}


def _assert_same_text(text, want):
    """A mismatch names the first differing character instead of having the
    whole text diffed, which takes minutes for a large report."""
    if text != want:
        at = len(os.path.commonprefix([text, want]))
        around = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"layout differs at character {at}: {text[around]!r} != {want[around]!r}")


def _assert_json_dumps_layout(text):
    """text is json.dumps(indent=2) of its own content plus a newline."""
    _assert_same_text(text, json.dumps(json.loads(text), indent=2) + "\n")


@pytest.mark.parametrize("argv", LAYOUT_CASES.values(), ids=list(LAYOUT_CASES))
def test_reports_have_the_json_dumps_indent_layout(tmp_path, capsys, argv):
    script = _write_script(tmp_path, {"g": "TOFFOLI", "q": [1, 2, 3]})
    argv = [script if arg == "SCRIPT" else arg for arg in argv]
    assert main(argv) == 0
    _assert_json_dumps_layout(capsys.readouterr().out)
    path = tmp_path / "report.json"
    assert main([*argv, "--out", str(path)]) == 0
    _assert_json_dumps_layout(path.read_text(encoding="utf-8"))


def test_exact_toffoli_report_is_encoded_without_json_dumps(tmp_path, monkeypatch, capsys):
    script = _write_script(tmp_path, {"g": "TOFFOLI", "q": [1, 2, 3]})

    def forbidden(*args, **kwargs):
        raise AssertionError("json.dumps called on the report path")

    calls = []
    json_text = cli._json_text

    def counted(*args):
        calls.append(args)
        return json_text(*args)

    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(cli, "_json_text", counted)
    assert main(["run", "--strict", "--k", "1", "--script", script]) == 0
    monkeypatch.undo()
    assert len(json.loads(capsys.readouterr().out)["transcript"]["branches"]) == 512
    # one template writes the rows; through the recursive path they make about
    # four calls each, some 2,100 in all
    assert len(calls) < 512


ENCODER_CASES = {
    "non-finite": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300],
    "np.float64": {"x": np.float64(0.1), "y": [np.float64(-2.5), np.float64("nan")]},
    "strings": ["é ☃ 😀", 'quote " and backslash \\', "\x00\x1f\n\t\r\x7f"],
    "escaped-keys": {'k"é\n': 1, "": None},
    "empty": [{}, [], {"a": {}, "b": []}, [[], [{}]]],
    "tuples": (1, (2.5, "x"), (), [(0, 1)]),
    "bool-beside-int": [True, 1, False, 0, None, {"t": True, "one": 1, "bits": [1, 0]}],
    "scalars": [0, -7, 10**30, "plain", 2.5],
    # lists of 64 or more same-shape rows, which one template writes, and rows that break the shape
    "bits-1": [{"bits": [i % 2], "probability": 0.5**i} for i in range(64)],
    "bits-3003": [
        {"bits": [i % 3 % 2 for i in range(3003)], "p": 2.0**-1074}, {"bits": [1] * 3003, "p": 0.5}
    ] * 32,
    "bits-empty": [{"bits": [], "probability": 1.0}] * 64,
    "repeated-floats": [{"bits": [b % 2, 1], "p": 0.1, "d": 0.1 * (b % 3)} for b in range(64)],
    "signed-zeros": [{"x": -0.0, "y": 0.0}, {"x": 0.0, "y": -0.0}] * 32,
    "float-extremes": [
        {"x": 5e-324, "y": 1.7976931348623157e308}, {"x": -5e-324, "y": -1.7976931348623157e308}
    ] * 32,
    "non-finite-row": [{"x": 1.5}] * 64 + [{"x": float("nan")}, {"x": float("inf")}, {"x": -float("inf")}],
    "np.float64-row": [{"x": 0.5, "n": None}] * 64 + [{"x": np.float64(0.5), "n": None}],
    "bool-none-rows": [
        {"b": True, "i": 1, "n": None, "s": "é"}, {"b": False, "i": 0, "n": None, "s": ""}
    ] * 32,
    "reordered-row": [{"a": i, "b": 2} for i in range(64)] + [{"b": 5, "a": 6}],
    "extra-key-row": [{"a": i, "b": 2.5} for i in range(64)] + [{"a": 3, "b": 4.5, "c": None}],
    "bits-lengths-differ": [{"bits": [1, 0], "s": "a"}] * 64 + [{"bits": [1], "s": "b"}],
    "bool-among-bits": [{"bits": [1, 0], "s": "a"}] * 64 + [{"bits": [True, 0], "s": "b"}],
    "percent-keys": [{"%s": 1, "%d": [1, 2]}] * 64,
    "quoted-keys": [{'"%s"': 1, 'k"\x00': [1, 2]}] * 64,
}


@pytest.mark.parametrize("obj", ENCODER_CASES.values(), ids=list(ENCODER_CASES))
def test_json_text_matches_json_dumps_indent(obj):
    _assert_same_text(cli._json_text(obj), json.dumps(obj, indent=2))
    for value in obj.values() if isinstance(obj, dict) else obj:
        _assert_same_text(cli._json_text(value), json.dumps(value, indent=2))


@pytest.mark.parametrize(
    "obj",
    [np.int64(1), [0, np.int64(1)], {1, 2}, {"a": {1, 2}}, {1: "a"}, [{"k": {(2,): 3}}]],
    ids=["np.int64", "np.int64-in-list", "set", "set-in-dict", "int-key", "tuple-key"],
)
def test_json_text_refuses_unencodable_types_and_keys(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


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


RUN_DEFAULTS = {"n": 2, "s": 3, "t": 3, "strict": False, "mode": "exact", "tolerance": 1e-10}


def test_one_parser_serves_every_call_without_carrying_options(tmp_path, capsys):
    # the parser is built once per process; each call reads only its own argv
    assert cli._build_parser() is cli._build_parser()
    code, payload = _run(tmp_path, "run", "--n", "2", "--strict", "--k", "1", "--kprime", "1")
    assert code == 0
    assert payload["config"]["strict"] is True
    code, payload = _run(tmp_path, "run")
    assert code == 0
    assert payload["config"] == RUN_DEFAULTS

    assert main(["run", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, payload = _run(tmp_path, "run")
    assert code == 0
    assert payload["config"] == RUN_DEFAULTS

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "tolerance": 1e-9, "mode": "sampled", "seed": 4}))
    code, payload = _run(tmp_path, "run", "--config", str(config))
    assert code == 0
    assert (payload["config"]["n"], payload["config"]["mode"], payload["seed"]) == (3, "sampled", 4)
    code, payload = _run(tmp_path, "run")
    assert code == 0
    assert payload["config"] == RUN_DEFAULTS
    assert payload["seed"] is None


@pytest.mark.parametrize(
    "line",
    [
        "n = abc",
        "mode = bogus",
        "seed = 1.5",
        "seed = -1",
        "tolerance = tight",
        "tolerance = inf",
        "strict = maybe",
    ],
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


EMPTY_VALUES = [
    ("audit", "coalition", "coalition cannot be empty"),
    ("run", "secret", "usage error"),
    ("run", "script", "usage error"),
    ("run", "out", "usage error"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,key,message", EMPTY_VALUES, ids=[key for _, key, _ in EMPTY_VALUES])
def test_an_empty_value_is_not_read_as_absent(tmp_path, monkeypatch, capsys, source, command, key, message):
    # an empty path names the working directory, which no file read or
    # write accepts, and an empty coalition names no party; neither falls
    # back to the default
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        argv = [command, f"--{key}", ""]
    else:
        (tmp_path / "config.cfg").write_text(f"{key} =\n")
        argv = [command, "--config", "config.cfg"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_an_empty_config_path_exits_two(capsys):
    assert main(["run", "--config", ""]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2
