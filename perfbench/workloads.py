"""Seeded inputs, CLI jobs and the checks applied to every job's report.

A workload is a list of jobs, each a qsslab argv plus a check on its exit
code and JSON report. The inputs (secret JSON and script JSONL files) come
from numpy's seeded generator alone and are written to a work directory;
the program sees only those files and argv.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CLIFFORDS = ("H", "S", "Sdg", "X", "Y", "Z", "CNOT", "CZ")
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: tolerances the checks hold the reports to, independent of the report's
#: own per-check tolerances and verdict
RUN_TOL = 1e-10
LOGICAL_TOL = 1e-9
LADDER_DENSE_TOL = 1e-12
PROB_SUM_TOL = 1e-10
TOFFOLI_EXACT_BRANCHES = 512  # 2^(3m) histories at m = 3 columns
LADDER_RANGE = (2, 101)
LADDER_DENSE_MAX = 8


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[dict], None]

    @property
    def label(self) -> str:
        return " ".join(self.argv[:3])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def random_secret(s: int, rng: np.random.Generator) -> dict[str, float]:
    """Pauli expansion of a random full-rank s-qubit density matrix in which
    every one of the 4^s words has a coefficient, so the dealt term count is
    the same for every seed."""
    dim = 2**s
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=s)]
    mats = {}
    for word in words:
        mat = np.eye(1, dtype=complex)
        for letter in word:
            mat = np.kron(mat, _PAULI[letter])
        mats[word] = mat
    while True:
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        coeffs = {w: float(np.trace(mats[w] @ rho).real) / dim for w in words}
        coeffs["I" * s] = 1.0 / dim  # exact trace 1
        if min(abs(c) for c in coeffs.values()) >= 1e-6 / dim:
            return coeffs


def random_script(
    s: int, before: int, after: int, rng: np.random.Generator
) -> list[dict]:
    """``before`` Cliffords, one TOFFOLI on three distinct rows, ``after``
    Cliffords; kinds uniform over the odd-column-count set, rows 1-based."""

    def clifford() -> dict:
        kind = str(rng.choice(CLIFFORDS))
        arity = 2 if kind in ("CNOT", "CZ") else 1
        rows = rng.choice(np.arange(1, s + 1), size=arity, replace=False)
        return {"g": kind, "q": [int(r) for r in rows]}

    gates = [clifford() for _ in range(before)]
    rows = rng.choice(np.arange(1, s + 1), size=3, replace=False)
    gates.append({"g": "TOFFOLI", "q": [int(r) for r in rows]})
    gates += [clifford() for _ in range(after)]
    return gates


def _write_inputs(workdir: Path, secret: dict, script: list[dict]) -> tuple[str, str]:
    workdir.mkdir(parents=True, exist_ok=True)
    secret_path = workdir / "secret.json"
    script_path = workdir / "script.jsonl"
    secret_path.write_text(json.dumps({"pauli": secret}) + "\n", encoding="utf-8")
    script_path.write_text(
        "".join(json.dumps(g) + "\n" for g in script), encoding="utf-8"
    )
    return str(secret_path), str(script_path)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _checks(report: dict) -> dict[str, dict]:
    return {c["name"]: c for c in report["checks"]}


def _check_run(expected_branches: int | None) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        checks = _checks(report)
        _require(checks["round-trip-distance"]["measured"] <= RUN_TOL, "round trip")
        logical = checks["logical-output-distance"]
        _require(logical["measured"] <= LOGICAL_TOL, "logical output distance")
        branches = report["transcript"]["branches"]
        _require(logical["detail"]["branches"] == len(branches), "branch count mismatch")
        if expected_branches is None:
            _require(len(branches) == 1, "sampled mode keeps one branch")
            return
        _require(len(branches) == expected_branches, f"{len(branches)} branches")
        total = sum(b["probability"] for b in branches)
        _require(abs(total - 1.0) <= PROB_SUM_TOL, f"probabilities sum to {total}")
        _require(
            all(b["logical_distance"] <= LOGICAL_TOL for b in branches),
            "a branch misses the logical output",
        )

    return check


def _covered_labels(n: int) -> list[str]:
    labels = []
    for missing in range(1, n + 1):
        rest = [f"p{i}" for i in range(1, n + 1) if i != missing]
        labels.append(",".join(["alice", *rest]))
    return labels


def _check_audit(n: int, dense: bool) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        checks = _checks(report)
        labels = _covered_labels(n)
        _require(len(report["audits"]) == len(labels), "one audit per coalition")
        for label in labels:
            ind = checks[f"independence-{label}"]
            _require(ind["measured"] == 0 and ind["passed"] is True, f"{label} leaks")
            parity = checks[f"parity-regime-{label}"]
            _require(parity["passed"] is True, f"{label} parity regime")
            if dense:
                _require(
                    ind["detail"]["max_trace_distance"] <= RUN_TOL,
                    f"{label} dense cross-check",
                )
        if dense:
            pair = checks["distinguishability-basis-pair"]
            _require(pair["measured"] <= RUN_TOL, "basis pair distinguishable")
            _require(
                any(note.startswith("dense cross-check over") for note in report["notes"]),
                "dense cross-check did not run",
            )

    return check


def _check_uncovered(label: str) -> Callable[[dict], None]:
    def check(report: dict) -> None:
        checks = _checks(report)
        ind = checks[f"independence-{label}"]
        _require(isinstance(ind["measured"], int) and ind["measured"] >= 0, "residual count")
        _require(ind["passed"] is None, "uncovered coalition graded")
        _require(checks[f"parity-regime-{label}"]["passed"] is None, "uncovered parity graded")

    return check


def _check_ladder(report: dict) -> None:
    lo, hi = LADDER_RANGE
    names = [c["name"] for c in report["checks"]]
    expected = [f"ladder-symbolic-m{m}" for m in range(lo, hi + 1)]
    for m in range(lo, LADDER_DENSE_MAX + 1):
        expected += [f"ladder-dense-m{m}", f"fanout-lemma-m{m}"]
    _require(sorted(names) == sorted(expected), "ladder check set")
    for c in report["checks"]:
        tol = 0 if c["name"].startswith("ladder-symbolic") else LADDER_DENSE_TOL
        _require(c["measured"] <= tol, c["name"])


def _check_verdict(report: dict) -> None:
    _require(report["verdict"] == "pass", "verdict")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def toffoli_exact(seed: int, workdir: Path) -> list[Job]:
    """n = 2 (m = 3), k = k' = 1: 64 x 29 = 1856 dealt terms, 512 exact
    gadget branches each reconstructed."""
    rng = np.random.default_rng([seed, 1])
    secret, script = random_secret(3, rng), random_script(3, 3, 2, rng)
    secret_path, script_path = _write_inputs(workdir, secret, script)
    argv = ("run", "--n", "2", "--strict", "--k", "1", "--kprime", "1",
            "--secret", secret_path, "--script", script_path)
    return [Job(argv, _check_run(TOFFOLI_EXACT_BRANCHES))]


def verify_sweep(seed: int, workdir: Path) -> list[Job]:
    """Audits for n = 2..6, the n = 2, t = 0 audit small enough for the
    dense cross-check, one seeded uncovered coalition, and the ladder
    closed-form check over 2..101 columns. No branching anywhere."""
    rng = np.random.default_rng([seed, 2])
    jobs = [Job(("audit", "--n", str(n)), _check_audit(n, dense=False)) for n in range(2, 7)]
    jobs.append(Job(("audit", "--n", "2", "--t", "0"), _check_audit(2, dense=True)))
    # two of four participants without the dealer: 12 view qubits for every
    # draw, so the draw changes which columns are traced, not how many
    pair = sorted(int(p) for p in rng.choice(np.arange(1, 5), size=2, replace=False))
    label = ",".join(f"p{p}" for p in pair)
    jobs.append(Job(("audit", "--n", "4", "--coalition", label), _check_uncovered(label)))
    lo, hi = LADDER_RANGE
    jobs.append(Job(("verify-ladder", "--m-range", f"{lo}..{hi}"), _check_ladder))
    return jobs


def large_state_sampled(seed: int, workdir: Path) -> list[Job]:
    """n = 4 (m = 5), s = 4, one triple: 256 x 29 = 7424 dealt terms on 35
    qubits, 16 Cliffords and a TOFFOLI along one seeded measurement path."""
    rng = np.random.default_rng([seed, 3])
    secret, script = random_secret(4, rng), random_script(4, 12, 4, rng)
    secret_path, script_path = _write_inputs(workdir, secret, script)
    path_seed = int(rng.integers(0, 2**31))
    argv = ("run", "--n", "4", "--s", "4", "--t", "3", "--mode", "sampled",
            "--seed", str(path_seed), "--secret", secret_path, "--script", script_path)
    return [Job(argv, _check_run(None))]


def warmup(workdir: Path) -> list[Job]:
    """Small jobs touching every module and the package's lazy caches (the
    magic-state expansion, numpy's linear algebra), run before timing."""
    script = workdir / "warmup.jsonl"
    script.parent.mkdir(parents=True, exist_ok=True)
    script.write_text(json.dumps({"g": "TOFFOLI", "q": [1, 2, 3]}) + "\n", encoding="utf-8")
    return [
        Job(("run", "--n", "2", "--strict", "--k", "1", "--kprime", "1",
             "--mode", "sampled", "--seed", "0", "--script", str(script)), _check_run(None)),
        Job(("audit", "--n", "2", "--t", "0"), _check_audit(2, dense=True)),
        Job(("verify-ladder", "--m-range", "2..3"), _check_verdict),
    ]


WORKLOADS = {
    "toffoli_exact": toffoli_exact,
    "verify_sweep": verify_sweep,
    "large_state_sampled": large_state_sampled,
}
