"""Command-line front end: verification workflows with JSON reports.

Four subcommands — verify-ladder, run, audit, gadget — each take only the
flags they read (see _COMMANDS), plus --config, --tolerance and --out. A
config file's keys are the command's own flags: its entries become flag
tokens that the command's parser reads before the explicit flags, which win.
Every command builds a Report with a stable field order: tool, version,
command, timestamp, seed, config, checks, notes, verdict. Each check carries
its measured value and tolerance. Exit codes: 0 all checks pass, 1 a check
failed, 2 usage error (unreadable or unwritable paths included), 3 resource
limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .audit import (
    AUDIT_TOLERANCE,
    Coalition,
    covered_coalitions,
    distinguishability,
    parity_regime_check,
    secret_independence_check,
)
from .circuits import (
    Circuit,
    Gate,
    ShareLayout,
    expected_ladder_pauli,
    ladder_circuit,
    ladder_fanout_circuit,
    magic_state_circuit,
    toffoli_gadget,
)
from .dense import (
    DENSE_CAP,
    PROBABILITY_CUTOFF,
    StateVector,
    build_unitary,
    random_state_vector,
    run_circuit,
    trace_distance,
)
from .errors import ProtocolError, ResourceError, UsageError
from .paulis import PauliOperator, PauliString
from .protocol import (
    EvaluationScript,
    SchemeParams,
    canonical_secret_family,
    deal,
    evaluate,
    load_secret,
    logical_unitary,
    reconstruct,
)

LADDER_NOTES = (
    "the fan-out half maps Z(x)I^(m-1) to itself (the dealer-column Z is "
    "invariant), while the full ladder maps it to Z^(x)m; both facts are "
    "checked densely",
    "with the Hermitian Y convention the ladder's Y image carries the sign "
    "(-1)^floor((m-1)/2); X and Z images are sign-free",
)
BUDGET_NOTE = (
    "the per-party gate budget is exposed as t/3 consumable ancilla triples; "
    "whether it should instead scale with the secret row count is ambiguous, "
    "so the raw triple count is reported"
)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    measured: float | int | None
    tolerance: float | int | None
    passed: bool | None
    detail: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Report:
    command: str
    seed: int | None
    config: dict
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(
        self,
        name: str,
        measured: float | int | None,
        tolerance: float | int | None,
        passed: bool | None = None,
        detail: dict | None = None,
    ) -> Check:
        if passed is None and measured is not None and tolerance is not None:
            passed = bool(measured <= tolerance)
        check = Check(name, measured, tolerance, passed, detail)
        self.checks.append(check)
        return check

    @property
    def verdict(self) -> str:
        graded = [c.passed for c in self.checks if c.passed is not None]
        return "pass" if all(graded) else "fail"

    def as_dict(self) -> dict:
        out = {
            "tool": "qsslab",
            "version": __version__,
            "command": self.command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": self.seed,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "notes": self.notes,
            "verdict": self.verdict,
        }
        out.update(self.extras)
        return out


def _emit(report: Report, out_path: str | None) -> int:
    text = json.dumps(report.as_dict(), indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if report.verdict == "pass" else 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _config_tokens(path: str, keys: Sequence[str]) -> list[str]:
    """A config file's entries as ``--key=value`` flag tokens. Keys are the
    command's own flag names; ``--strict`` is emitted only when true."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path}: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise UsageError("config JSON must be an object")
        items = obj.items()
    else:
        items = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            if "=" not in raw:
                raise UsageError(f"config {path} line {ln}: expected key=value")
            key, _, value = raw.partition("=")
            items.append((key.strip(), value.strip()))
    tokens = []
    for key, value in items:
        key = key.replace("-", "_")
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if key != "strict":
            tokens.append(f"{flag}={value}")
        elif str(value).lower() in ("1", "true", "yes"):
            tokens.append(flag)
        elif str(value).lower() not in ("0", "false", "no"):
            raise UsageError(f"config key 'strict' must be true or false, not {value!r}")
    return tokens


def _params_from(options: dict) -> SchemeParams:
    n = options.get("n", 2)
    if "k" in options or "kprime" in options:
        if "s" in options or "t" in options:
            raise UsageError("size the scheme by --k/--kprime or by --s/--t, not both")
        k = options.get("k", 1)
        return SchemeParams.strict(n=n, k=k, kprime=options.get("kprime", k))
    return SchemeParams(
        n=n, s=options.get("s", 3), t=options.get("t", 3), strict_mode=options.get("strict", False)
    )


def _parse_m_range(spec: str) -> tuple[int, int]:
    if ".." not in spec:
        raise UsageError(f"m-range {spec!r} must look like A..B")
    lo_text, _, hi_text = spec.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"m-range {spec!r} must use integers") from None
    if lo < 2:
        raise UsageError("the ladder needs at least 2 columns; m-range starts at 2")
    if hi < lo:
        raise UsageError("empty m-range")
    return lo, hi


# ---------------------------------------------------------------------------
# verify-ladder
# ---------------------------------------------------------------------------

_FANOUT_IMAGES = {"X": lambda m: "X" * m, "Y": lambda m: "Y" + "X" * (m - 1), "Z": lambda m: "Z" + "I" * (m - 1)}


def _conjugation_error(u: np.ndarray, sigma: str, image: PauliString) -> float:
    """max|U P U^dag - image| for P = sigma (x) I^(m-1), both Paulis kept as
    signed permutations: U P gathers and signs U's columns, and the image
    is subtracted at its own entries only."""
    p = PauliString.from_letters(sigma + "I" * (image.num_qubits - 1))
    rows, _, vals = p._signed_permutation()
    diff = (u[:, rows] * vals) @ u.conj().T
    rows, cols, vals = image._signed_permutation()
    diff[rows, cols] -= vals
    return float(np.max(np.abs(diff)))


def cmd_verify_ladder(options: dict) -> Report:
    lo, hi = _parse_m_range(options.get("m_range", "2..16"))
    tol = options.get("tolerance", 1e-12)
    report = Report("verify-ladder", options.get("seed"), {"m_range": f"{lo}..{hi}", "tolerance": tol})
    dense_hi = min(hi, 8, DENSE_CAP)

    for m in range(lo, hi + 1):
        # one 4-term operator per width; each letter's image is looked up by
        # its expected word, so the storage order cannot matter
        op = PauliOperator.from_terms(
            m, [(PauliString.from_letters(sigma + "I" * (m - 1)), 1.0) for sigma in "IXYZ"]
        )
        image = op.conjugate_circuit(ladder_circuit(m).gates)
        mismatches = 4  # a lost or merged term leaves every letter unverified
        if image.num_terms == 4:
            mismatches = sum(
                image.coeff(expected_ladder_pauli(m, sigma)) != 1 for sigma in "IXYZ"
            )
        report.add(f"ladder-symbolic-m{m}", mismatches, 0)

    for m in range(lo, dense_hi + 1):
        U = build_unitary(ladder_circuit(m))
        worst = max(_conjugation_error(U, sigma, expected_ladder_pauli(m, sigma)) for sigma in "IXYZ")
        report.add(f"ladder-dense-m{m}", worst, tol)

        A = build_unitary(ladder_fanout_circuit(m))
        worst = max(
            _conjugation_error(A, sigma, PauliString.from_letters(image(m)))
            for sigma, image in _FANOUT_IMAGES.items()
        )
        report.add(f"fanout-lemma-m{m}", worst, tol)

    report.notes.extend(LADDER_NOTES)
    return report


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(options: dict) -> Report:
    params = _params_from(options)
    mode = options.get("mode", "exact")
    seed = options.get("seed")
    tol = options.get("tolerance", 1e-10)
    report = Report(
        "run",
        seed,
        {
            "n": params.n,
            "s": params.s,
            "t": params.t,
            "strict": params.strict_mode,
            "mode": mode,
            "tolerance": tol,
        },
    )

    if options.get("secret"):
        secret = load_secret(options["secret"], params.s)
    else:
        _, secret = canonical_secret_family(params.s)[0]
    if options.get("script"):
        script = EvaluationScript.from_lines(
            Path(options["script"]).read_text(encoding="utf-8"), params.s
        )
    else:
        script = EvaluationScript(params.s, ())

    shared = deal(params, secret)
    round_trip = reconstruct(shared).trace_distance(secret)
    report.add("round-trip-distance", round_trip, tol)

    branches, transcript = evaluate(shared, script, mode=mode, seed=seed)
    logical_tol = 1e-9 if script.toffoli_count else tol
    U = logical_unitary(script)
    target = U @ secret.to_dense() @ U.conj().T
    branch_rows = []
    worst = 0.0
    distances: dict[int, float] = {}  # by id(): histories share state objects
    for br in branches:
        d = distances.get(id(br.state))
        if d is None:
            d = distances[id(br.state)] = trace_distance(
                reconstruct(br).to_dense(), target
            )
        worst = max(worst, d)
        branch_rows.append(
            {
                "bits": list(br.classical_transcript),
                "probability": br.branch_probability,
                "logical_distance": d,
            }
        )
    report.add(
        "logical-output-distance",
        worst,
        logical_tol,
        detail={"branches": len(branches)},
    )
    if mode == "exact":
        report.add(
            "branch-probabilities-sum",
            abs(transcript.total_probability() - 1.0) if branches else 0.0,
            1e-10,
        )
    report.extras["transcript"] = {
        "bits": [
            {
                "slot": o.slot,
                "gadget": o.gadget_id,
                "participant": o.participant,
                "marginal": transcript.marginal(o.slot) if mode == "exact" else None,
            }
            for o in transcript.bit_origins
        ],
        "branches": branch_rows,
    }
    report.notes.append(BUDGET_NOTE)
    return report


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def cmd_audit(options: dict) -> Report:
    params = _params_from(options)
    tol = options.get("tolerance", AUDIT_TOLERANCE)
    report = Report(
        "audit",
        options.get("seed"),
        {
            "n": params.n,
            "s": params.s,
            "t": params.t,
            "coalition": options.get("coalition", "(all dealer+n-1 coalitions)"),
            "tolerance": tol,
        },
    )
    if options.get("coalition"):
        coalitions = [Coalition.parse(options["coalition"], params.n)]
    else:
        coalitions = covered_coalitions(params.n)

    audit_dicts = []
    for coalition in coalitions:
        audit = secret_independence_check(params, coalition, tolerance=tol)
        audit_dicts.append(audit.as_dict())
        covered = coalition.covered_by_security_argument
        report.add(
            f"independence-{coalition.label()}",
            audit.tagged_residuals,
            0 if covered else None,
            passed=(audit.verdict == "pass") if covered else None,
            detail={"max_trace_distance": audit.max_trace_distance},
        )
        regime = parity_regime_check(params, coalition)
        report.add(
            f"parity-regime-{coalition.label()}",
            len(regime.surviving_patterns),
            None,
            passed=(regime.verdict == "pass") if covered else None,
            detail={
                "regime": regime.regime,
                "surviving_patterns": list(regime.surviving_patterns),
            },
        )
        for note in audit.notes + regime.notes:
            if note not in report.notes:
                report.notes.append(note)

    view_qubits = params.layout().rows * len(coalitions[0].columns())
    if view_qubits <= DENSE_CAP and coalitions[0].covered_by_security_argument:
        (_, zero), (_, one), _ = canonical_secret_family(params.s)
        td = distinguishability(params, coalitions[0], zero, one)
        report.add("distinguishability-basis-pair", td, tol)
    report.extras["audits"] = audit_dicts
    report.notes.append(BUDGET_NOTE)
    return report


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------


def _plaintext_gadget_fidelity(initial: StateVector) -> float:
    """Worst-branch fidelity of the 1-column gadget against the direct gate."""
    layout = ShareLayout(s=3, t=3, n=0)
    gadget = toffoli_gadget((1, 2, 3), (4, 5, 6), layout)
    prep = tuple(
        Gate(gate.kind, tuple(q + 3 for q in gate.qubits))
        for gate in magic_state_circuit().gates
    )
    circuit = Circuit(6, gadget.num_classical_bits, prep + gadget.gates)
    direct = build_unitary(
        Circuit(3, 0, (Gate("TOFFOLI", (0, 1, 2)),))
    )
    target = direct @ initial.amplitudes
    full = StateVector(
        6, np.kron(initial.amplitudes, StateVector.basis(3, 0).amplitudes)
    )
    worst = 1.0
    for _, prob, post in run_circuit(circuit, full):
        if prob <= PROBABILITY_CUTOFF:
            continue
        # data qubits 0..2 index the rows, ancillas 3..5 the columns
        overlaps = target.conj() @ post.amplitudes.reshape(8, 8)
        worst = min(worst, float(np.sum(np.abs(overlaps) ** 2)))
    return worst


def cmd_gadget(options: dict) -> Report:
    seed = options.get("seed", 0)
    tol = options.get("tolerance", 1e-10)
    report = Report("gadget", seed, {"tolerance": tol, "random_states": 100})

    state = run_circuit(magic_state_circuit(), StateVector.basis(3, 0))[0][2]
    target = np.zeros(8)
    target[[0, 2, 4, 7]] = 0.5
    report.add(
        "magic-state-amplitudes",
        float(np.max(np.abs(state.amplitudes - target))),
        1e-12,
    )

    worst = 0.0
    for idx in range(8):
        fid = _plaintext_gadget_fidelity(StateVector.basis(3, idx))
        worst = max(worst, 1.0 - fid)
    report.add("plaintext-basis-inputs", worst, tol)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        fid = _plaintext_gadget_fidelity(random_state_vector(3, rng))
        worst = max(worst, 1.0 - fid)
    report.add("plaintext-random-states", worst, tol)

    params = SchemeParams.strict(n=2, k=1, kprime=1)
    vec = np.zeros(8)
    vec[6] = 1.0
    shared = deal(params, np.outer(vec, vec))
    script = EvaluationScript(3, (Gate("TOFFOLI", (1, 2, 3)),))
    branches, _ = evaluate(shared, script)
    direct = np.zeros((8, 8))
    direct[7, 7] = 1.0
    distinct = {id(br.state): br for br in branches}.values()
    worst = max(
        trace_distance(reconstruct(br).to_dense(), direct) for br in distinct
    )
    report.add(
        "share-gadget-branches",
        worst,
        1e-9,
        detail={"branches": len(branches), "consumed": sorted(branches[0].consumed_ancillas)},
    )

    double = EvaluationScript(
        3, (Gate("TOFFOLI", (1, 2, 3)), Gate("TOFFOLI", (1, 2, 3)))
    )
    try:
        evaluate(branches[0], double)
    except ProtocolError as exc:
        report.add("budget-rule", 0, 0, passed=True, detail={"error": str(exc)})
    else:
        report.add("budget-rule", 1, 0, passed=False)
    report.notes.append(
        "share-level gadget corrections need a column-local CZ, which exists "
        "only at odd column counts; even layouts refuse the gadget"
    )
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_SIZE_FLAGS = ("n", "k", "kprime", "s", "t", "strict")
# each command with the flags it reads besides --config, --tolerance and --out
_COMMANDS = {
    "verify-ladder": (cmd_verify_ladder, ("m_range",)),
    "run": (cmd_run, _SIZE_FLAGS + ("mode", "seed", "secret", "script")),
    "audit": (cmd_audit, _SIZE_FLAGS + ("coalition",)),
    "gadget": (cmd_gadget, ("seed",)),
}
# argparse settings of the flags that do not take a plain string
_FLAG_SETTINGS = {
    "tolerance": {"type": float},
    "strict": {"action": "store_true"},
    "mode": {"choices": ("exact", "sampled")},
    **dict.fromkeys(("n", "k", "kprime", "s", "t", "seed"), {"type": int}),
}


def _config_keys(command: str) -> tuple[str, ...]:
    return ("tolerance", "out") + _COMMANDS[command][1]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsslab",
        description="verification laboratory for the ladder-encoded (n,n) "
        "quantum secret-sharing scheme",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # no abbreviations: gadget would read --t as --tolerance
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(parser=p)
        p.add_argument("--config", help="key=value lines or a JSON object")
        for key in _config_keys(name):
            p.add_argument("--" + key.replace("_", "-"), **_FLAG_SETTINGS.get(key, {}))
    return parser


def _parse_options(argv: list[str]) -> tuple[str, dict]:
    """The command and its set options. A config file's tokens go between
    the command and the explicit flags, so the explicit flags win."""
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if args.config and not unknown:
        tokens = _config_tokens(args.config, _config_keys(args.command))
        args, unknown = parser.parse_known_args(argv[:1] + tokens + argv[1:])
    options = vars(args)
    subparser = options.pop("parser")
    if unknown:
        # argparse hands a subcommand's unknown flags back to the top-level
        # parser, whose message would show the top-level usage line
        subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    options = {key: value for key, value in options.items() if value is not None and value is not False}
    return options.pop("command"), options


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, options = _parse_options(argv)
        if options.get("mode") == "sampled" and options.get("seed") is None:
            raise UsageError("sampled mode requires --seed")
        if options.get("tolerance") is not None and options["tolerance"] <= 0:
            raise UsageError("tolerance must be positive")
        report = _COMMANDS[command][0](options)
        return _emit(report, options.get("out"))
    except SystemExit as exc:  # argparse has printed its message or --help
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, OSError, UnicodeDecodeError) as exc:  # a path unreadable as text
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
