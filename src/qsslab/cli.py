"""Command-line front end: verification workflows with JSON reports.

Four subcommands — verify-ladder, run, audit, gadget — each take only the
flags they read (see _COMMANDS), plus --config, --tolerance and --out. A
config file's keys are the command's own flags: its entries become flag
tokens that the command's parser reads before the explicit flags, which win.
Every command builds a Report with a stable field order: tool, version,
command, timestamp, seed, config, checks, notes, verdict. Each check carries
its measured value and tolerance; the report's text is exactly what
json.dumps(report, indent=2) writes. Exit codes: 0 all checks pass, 1 a check
failed, 2 usage error (unreadable or unwritable paths included), 3 resource
limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterator, Sequence

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
    ladder_gates,
    magic_state_circuit,
    toffoli_gadget,
)
from .dense import (
    DENSE_CAP,
    GATE_MATRICES,
    PROBABILITY_CUTOFF,
    StateVector,
    _check_cap,
    monomial_unitary,
    random_state_vector,
    run_circuit,
    trace_distance,
)
from .errors import ProtocolError, ResourceError, UsageError
from .paulis import PauliString, _clifford_planes, _masks_of, _num_words, _words_from_planes
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
# the widest ladder verify-ladder checks: it covers the 3,001-column grids of
# run --n 3000; the symbolic sweep runs about hi^2/64 gate steps up to width hi
LADDER_MAX_COLUMNS = 4096
BUDGET_NOTE = (
    "the per-party gate budget is exposed as t/3 consumable ancilla triples; "
    "whether it should instead scale with the secret row count is ambiguous, "
    "so the raw triple count is reported"
)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class Report:
    def __init__(self, command: str, seed: int | None, config: dict) -> None:
        self.command = command
        self.seed = seed
        self.config = config
        self.checks: list[dict] = []
        self.notes: list[str] = []
        self.extras: dict = {}

    def add(
        self,
        name: str,
        measured: float | int | None,
        tolerance: float | int | None,
        passed: bool | None = None,
        detail: dict | None = None,
    ) -> None:
        if passed is None and measured is not None and tolerance is not None:
            passed = bool(measured <= tolerance)
        check = {"name": name, "measured": measured, "tolerance": tolerance, "passed": passed}
        if detail:
            check["detail"] = detail
        self.checks.append(check)

    @property
    def verdict(self) -> str:
        graded = [c["passed"] for c in self.checks if c["passed"] is not None]
        return "pass" if all(graded) else "fail"

    def as_dict(self) -> dict:
        out = {
            "tool": "qsslab",
            "version": __version__,
            "command": self.command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": self.seed,
            "config": self.config,
            "checks": self.checks,
            "notes": self.notes,
            "verdict": self.verdict,
        }
        out.update(self.extras)
        return out


#: the types json.dumps encodes, in the order its isinstance checks try them
_JSON_TYPES = (str, int, float, list, tuple, dict)
_EXACT_JSON_TYPES = frozenset(_JSON_TYPES + (bool, type(None)))
_INT_ONLY = frozenset((int,))
_escape = json.encoder.encode_basestring_ascii
#: each scalar type's text but float's, which needs json's NaN and Infinity
_SCALAR_TEXT = {str: _escape, int: int.__repr__, bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _json_text(obj: object, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte. Strings use json's own C
    escaper, each container is joined once and same-shape rows share one
    template (_rows_text): no pure-Python encoder, which json falls back to
    whenever ``indent`` is set. ``newline`` is a line break plus the current
    indent. Types json cannot encode, and non-str dict keys, raise TypeError."""
    kind = type(obj)
    if kind not in _EXACT_JSON_TYPES:
        # a subclass encodes as json encodes it, by the first base it matches
        kind = next((base for base in _JSON_TYPES if isinstance(obj, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if kind is str:
        return _escape(obj)
    if kind is float:
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if kind in _SCALAR_TEXT:  # int, bool or None
        return _SCALAR_TEXT[kind](obj)
    brackets = "{}" if kind is dict else "[]"
    if not obj:
        return brackets
    inner = newline + "  "
    if kind is dict:
        # the escaper raises TypeError on a key that is not a str
        items = [_escape(key) + ": " + _json_text(value, inner) for key, value in obj.items()]
    elif _INT_ONLY.issuperset(map(type, obj)):  # int lists, a bits template among them
        items = map(int.__repr__, obj)
    else:
        items = _rows_text(obj, inner) or [_json_text(item, inner) for item in obj]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _rows_text(rows: list, newline: str) -> list[str] | None:
    """The texts of 64 or more rows from one ``%`` template that _json_text lays out, or None
    unless all rows are dicts with the first row's key order and int-list lengths, else scalars."""
    first = rows[0]
    if len(rows) < 64 or type(first) is not dict or dict in map(type, first.values()):
        return None  # recursion is faster below 64 rows (on a collected heap) and for nested dicts
    keys = list(first)
    if any(type(row) is not dict or list(row) != keys for row in rows):
        return None
    floats: dict[float, str] = {}  # each finite float's text, written once per list

    def text(value):  # None where a value breaks the shape, NaN and infinities included
        if type(value) is not float:
            return _SCALAR_TEXT[type(value)](value) if type(value) in _SCALAR_TEXT else None
        if value and math.isfinite(value):  # not 0.0, which is -0.0's dict key
            return floats.get(value) or floats.setdefault(value, float.__repr__(value))
        return None if value else float.__repr__(value)

    columns = []
    for head, column in zip(first.values(), zip(*(row.values() for row in rows))):
        if type(head) in (list, tuple) and all(type(v) in (list, tuple) and len(v) == len(head) > 0
                                               and _INT_ONLY.issuperset(map(type, v)) for v in column):
            bits = _json_text([0] * len(head), newline + "  ").replace("0", "%d")
            column = [bits % tuple(v) for v in column]
        elif None in (column := list(map(text, column))):  # text(a list) is None too
            return None
        columns.append(column)
    template = _json_text(dict.fromkeys(keys, "%s"), newline)  # each value written "%s"
    plain = template.count('"%s"') == template.count("%") == len(keys)  # no key holds a %
    return list(map(template.replace('"%s"', "%s").__mod__, zip(*columns))) if plain else None


def _emit(report: Report, out_path: str | None) -> int:
    text = _json_text(report.as_dict())
    if out_path is not None:
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


def _ascii_int(text: str) -> int:
    """An integer flag: ASCII digits after at most one "-" (int() also reads "1_0" and "٣")."""
    if not (text.removeprefix("-").isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_m_range(spec: str) -> tuple[int, int]:
    if ".." not in spec:
        raise UsageError(f"m-range {spec!r} must look like A..B")
    lo_text, _, hi_text = spec.partition("..")
    try:
        lo, hi = _ascii_int(lo_text), _ascii_int(hi_text)
    except argparse.ArgumentTypeError:
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


def _word_monomials(words: list[PauliString]) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width Pauli words' matrices as (perms, phases), one word per
    row, qubit 0 the most significant index bit. Y = iXZ, so a word is
    i^(p + |x & z|) X^x Z^z, and its column c holds i^(p + |x & z|)
    (-1)^|z & c| in row c ^ x, the masks read in index bit order."""
    m = words[0].num_qubits
    _check_cap(m, "Pauli word matrix")
    cols = np.arange(2**m)
    parity = np.zeros_like(cols)  # |c| mod 2 for each index c
    for q in range(m):
        parity ^= cols >> q & 1
    # qubit q is index bit m - 1 - q: reverse each mask's m bits
    x = np.array([int(f"{w.x:0{m}b}"[::-1], 2) for w in words])
    z = np.array([int(f"{w.z:0{m}b}"[::-1], 2) for w in words])
    turns = np.array([w.phase + bin(w.x & w.z).count("1") for w in words])
    quarter = turns[:, None] + 2 * parity[z[:, None] & cols]
    return x[:, None] ^ cols, np.array([1, 1j, -1, -1j])[quarter % 4]


def _monomial_error(perm: np.ndarray, phase: np.ndarray, images: dict[str, PauliString]) -> float:
    """The largest entry of |U U^dag - I| and of each letter's |U P - Q U|
    for U[perm[c], c] = phase[c]. U U^dag is diagonal, |phase|^2, when perm
    is a bijection (else inf). Column c of U P holds phase[P_rows[c]]
    P_vals[c] in row perm[P_rows[c]], and of Q U, phase[c] Q_vals[perm[c]]
    in row Q_rows[perm[c]]: their difference in one row, else the larger."""
    if np.bincount(perm, minlength=perm.size).max() > 1:  # some row taken twice
        return math.inf
    worst = float(np.abs(np.abs(phase) ** 2 - 1).max())
    # rows and entries, column by column, of each P = sigma (x) I^(m-1)
    # (sigma on qubit 0), then of each image Q, one letter per array row
    p = [PauliString(image.num_qubits, s in "XY", s in "YZ") for s, image in images.items()]
    rows, vals = _word_monomials(p + list(images.values()))
    (p_rows, q_rows), (p_vals, q_vals) = np.split(rows, 2), np.split(vals, 2)
    up, qu = phase[p_rows] * p_vals, q_vals[:, perm] * phase
    apart = np.maximum(np.abs(up), np.abs(qu))
    return max(worst, float(np.where(perm[p_rows] == q_rows[:, perm], np.abs(up - qu), apart).max()))


def _ladder_images(lo: int, hi: int) -> Iterator[tuple[int, list[tuple[int, int, int]]]]:
    """(m, images) for m = lo..hi: the (x, z, phase) of I, X, Y and Z on
    qubit 0 conjugated by ladder_gates(m), phase 2 for a negated image. Up to
    64 widths, width k at terms 4k..4k+3, share one run of ladder_gates(top),
    top their widest; the ladders nest, so width m is checked against the gates
    of ladder_gates(top) on qubits below m, and each other gate is undone there."""
    for start in range(lo, hi + 1, 64):
        widths = range(start, min(start + 64, hi + 1))
        x, z = ([int(c * len(widths), 16)] + [0] * (64 * _num_words(widths[-1]) - 1) for c in "6c")
        sign, shared = 0, []
        for g in ladder_gates(widths[-1]):
            if (j := max(g.qubits)) < start:
                shared.append(g)
                continue
            sign ^= _clifford_planes(x, z, shared)
            shared, saved = [], [(q, x[q], z[q]) for q in g.qubits]
            # no sign mask: every sign rule has a factor from qubit j's planes, 0 in skipped widths
            sign ^= _clifford_planes(x, z, (g,))
            hold = (1 << 4 * (j + 1 - start)) - 1
            for q, xq, zq in saved:
                x[q], z[q] = x[q] & ~hold | xq & hold, z[q] & ~hold | zq & hold
        sign ^= _clifford_planes(x, z, shared)
        xs, zs = (_masks_of(words) for words in _words_from_planes(x, z, 4 * len(widths)))
        for k, m in enumerate(widths):
            yield m, [(xs[j], zs[j], 2 * (sign >> j & 1)) for j in range(4 * k, 4 * k + 4)]


def cmd_verify_ladder(options: dict) -> Report:
    lo, hi = _parse_m_range(options.get("m_range", "2..16"))
    if hi > LADDER_MAX_COLUMNS:
        raise ResourceError(
            f"m-range ends at {hi} columns; the symbolic sweep runs about {hi}^2/64 gate steps, "
            f"growing with the square of the width, so verify-ladder checks at most {LADDER_MAX_COLUMNS}"
        )
    tol = options.get("tolerance", 1e-12)
    report = Report("verify-ladder", options.get("seed"), {"m_range": f"{lo}..{hi}", "tolerance": tol})
    dense_hi = min(hi, 8, DENSE_CAP)

    for m, images in _ladder_images(lo, hi):
        wants = (expected_ladder_pauli(m, sigma) for sigma in "IXYZ")
        mismatches = sum(image != (w.x, w.z, w.phase) for image, w in zip(images, wants))
        report.add(f"ladder-symbolic-m{m}", mismatches, 0)

    for m in range(lo, dense_hi + 1):
        images = {sigma: expected_ladder_pauli(m, sigma) for sigma in "XYZ"}
        report.add(f"ladder-dense-m{m}", _monomial_error(*monomial_unitary(ladder_circuit(m)), images), tol)
        images = {sigma: PauliString.from_letters(image(m)) for sigma, image in _FANOUT_IMAGES.items()}
        fanout = monomial_unitary(ladder_fanout_circuit(m))
        report.add(f"fanout-lemma-m{m}", _monomial_error(*fanout, images), tol)

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

    if "secret" in options:
        secret = load_secret(options["secret"], params.s)
    else:
        _, secret = canonical_secret_family(params.s)[0]
    if "script" in options:
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
    # one reconstruction per distinct state; each history reads its own
    distances = {
        br: trace_distance(reconstruct(br).to_dense(), target) for br in dict.fromkeys(branches)
    }
    worst = max(distances.values(), default=0.0)
    branch_rows = [
        {"bits": bits, "probability": p, "logical_distance": distances[br]}
        for (bits, p), br in zip(transcript.branches, branches)
    ]
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
    if "coalition" in options:
        coalitions = [Coalition.parse(options["coalition"], params.n)]
    else:
        coalitions = covered_coalitions(params.n)

    audit_dicts = []
    dealt: list = []  # the cross-check's secrets, dealt once for every coalition
    for coalition in coalitions:
        audit = secret_independence_check(params, coalition, tolerance=tol, dealt=dealt)
        audit_dicts.append(audit.as_dict())
        covered, label = coalition.covered_by_security_argument, coalition.label()
        report.add(
            f"independence-{label}",
            audit.tagged_residuals,
            0 if covered else None,
            passed=(audit.verdict == "pass") if covered else None,
            detail={"max_trace_distance": audit.max_trace_distance},
        )
        regime = parity_regime_check(params, coalition)
        report.add(
            f"parity-regime-{label}",
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

    view_qubits = params.layout().rows * len(coalitions[0].columns)
    if view_qubits <= DENSE_CAP and coalitions[0].covered_by_security_argument:
        # the cross-check's family starts with |0...0> and |1...1>; views too
        # large for the cross-check left it empty
        if not dealt:
            dealt.extend(deal(params, op) for _, op in canonical_secret_family(params.s)[:2])
        td = distinguishability(params, coalitions[0], dealt[0], dealt[1])
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
    target = GATE_MATRICES["TOFFOLI"] @ initial.amplitudes
    full = StateVector(6, np.kron(initial.amplitudes, StateVector.basis(3, 0).amplitudes))
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
    report.add("magic-state-amplitudes", float(np.max(np.abs(state.amplitudes - target))), 1e-12)

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
    worst = max(
        trace_distance(reconstruct(br).to_dense(), direct) for br in dict.fromkeys(branches)
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
    **dict.fromkeys(("n", "k", "kprime", "s", "t", "seed"), {"type": _ascii_int}),
}


def _config_keys(command: str) -> tuple[str, ...]:
    return ("tolerance", "out") + _COMMANDS[command][1]


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first call, and never
    changed by parse_known_args, so every call reads only its own argv."""
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
    if args.config is not None and not unknown:
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
        if options.get("seed", 0) < 0:
            raise UsageError("seed must be non-negative")
        # the negated comparison also refuses nan
        if options.get("tolerance") is not None and not 0 < options["tolerance"] < math.inf:
            raise UsageError("tolerance must be positive and finite")
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
