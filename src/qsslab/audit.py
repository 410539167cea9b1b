"""Adversary analysis of the shared and evaluated states.

The central argument is structural: deal() puts secret word w only on the
secret rows and the encoder is a ladder inside each row, so a shared word is
image(w) on the secret rows times the image of a resource term on the
ancilla rows, with image(I) = I. A partial trace only drops terms, so a
term of a coalition's view depends on the secret exactly when it has a
non-identity letter on a secret row (the stabilizer-code view of authorized
sets, Cleve-Gottesman-Lo, PRL 83, 648 (1999)).

Because the ladder is row-local, which words survive is decided one row at
a time. Let K_C be the letters whose ladder image is I on every honest
column. The words w whose image the trace keeps are exactly K_C^s, and the
kept resource words of a triple are the R_C magic-state words with all
three letters in K_C. So the secret-dependent view terms number
(|K_C|^s - 1) * R_C^budget, and the secret-row patterns of the view are the
row-by-row images of K_C^s on the coalition's columns. These counts need
no deal and no partial trace, so they stay exact at any s; dense trace
distances between concrete secret pairs cross-check them at small sizes.

Coalitions containing the dealer but missing at least one participant are
the ones the security argument covers; anything else is measured and
reported descriptively, never presumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuits import expected_ladder_pauli
from .dense import DENSE_CAP
from .errors import ResourceError, UsageError
from .paulis import PauliOperator
from .protocol import (
    SchemeParams,
    SharedState,
    canonical_secret_family,
    deal,
    magic_state_operator,
)

AUDIT_TOLERANCE = 1e-10

#: most secret-row patterns a parity check lists, |K_C|^s; only coalitions
#: the security argument does not cover have more than one
PATTERN_CAP = 2**16


# ---------------------------------------------------------------------------
# coalitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coalition:
    """A subset of {alice, p1..pn}; everyone else is honest."""

    n: int
    members: frozenset[str]

    def __post_init__(self) -> None:
        valid = {"alice"} | {f"p{i}" for i in range(1, self.n + 1)}
        bad = self.members - valid
        if bad:
            raise UsageError(f"unknown parties {sorted(bad)} for n={self.n}")
        if not self.members:
            raise UsageError("coalition cannot be empty")

    @classmethod
    def parse(cls, spec: str, n: int) -> Coalition:
        """From a comma list like "alice,1,2" or "alice,p1,p2"."""
        members = set()
        for token in spec.split(","):
            token = token.strip().lower()
            if not token:
                continue
            if token == "alice":
                members.add("alice")
            elif token.startswith("p") and token[1:].isdigit():
                members.add(token)
            elif token.isdigit():
                members.add(f"p{int(token)}")
            else:
                raise UsageError(f"cannot read coalition member {token!r}")
        return cls(n, frozenset(members))

    @property
    def includes_alice(self) -> bool:
        return "alice" in self.members

    @property
    def honest(self) -> frozenset[str]:
        everyone = {"alice"} | {f"p{i}" for i in range(1, self.n + 1)}
        return frozenset(everyone - self.members)

    @property
    def is_full(self) -> bool:
        return not self.honest

    @property
    def covered_by_security_argument(self) -> bool:
        """True when the dealer is in and >= 1 participant is honest."""
        return self.includes_alice and any(h != "alice" for h in self.honest)

    def columns(self) -> tuple[int, ...]:
        cols = []
        for name in self.members:
            cols.append(1 if name == "alice" else int(name[1:]) + 1)
        return tuple(sorted(cols))

    def label(self) -> str:
        ordered = sorted(self.members, key=lambda p: -1 if p == "alice" else int(p[1:]))
        return ",".join(ordered)


def adversary_view(shared: SharedState, coalition: Coalition) -> PauliOperator:
    """The coalition's reduced state: everything the honest parties hold is
    traced out. Kept qubits stay in row-major order restricted to the
    coalition's columns, so the secret rows come first."""
    layout = shared.layout
    if coalition.n != layout.n:
        raise UsageError("coalition does not match the layout")
    keep_cols = set(coalition.columns())
    traced = [
        q
        for y in range(1, layout.columns + 1)
        if y not in keep_cols
        for q in layout.column_qubits(y)
    ]
    return shared.state.partial_trace(traced)


def _row_kernel(params: SchemeParams, coalition: Coalition) -> dict[str, str]:
    """K_C: each letter whose ladder image is I on every honest column,
    mapped to its image's letters on the coalition's columns. The ladder is
    row-local, so the s-row words the view keeps are exactly K_C^s."""
    if coalition.n != params.n:
        raise UsageError("coalition does not match the layout")
    m, columns = params.n + 1, coalition.columns()
    kernel = {}
    for sigma in "IXYZ":
        image = expected_ladder_pauli(m, sigma).letters()
        if all(image[y - 1] == "I" for y in range(1, m + 1) if y not in columns):
            kernel[sigma] = "".join(image[y - 1] for y in columns)
    return kernel


def _tagged_residuals(params: SchemeParams, coalition: Coalition) -> int:
    """Secret-dependent terms of the coalition's view of a full-support
    secret: the non-identity words of K_C^s times, per triple, the
    magic-state words the view keeps."""
    kernel = _row_kernel(params, coalition)
    kept_resource = sum(
        set(ps.letters()) <= kernel.keys() for ps, _ in magic_state_operator().items()
    )
    return (len(kernel) ** params.s - 1) * kept_resource**params.budget


def _secret_row_patterns(params: SchemeParams, coalition: Coalition) -> tuple[str, ...]:
    """The distinct secret-row letter patterns of the view's terms, each
    written row by row over the coalition's columns, sorted."""
    images = _row_kernel(params, coalition).values()
    if len(images) ** params.s > PATTERN_CAP:
        raise ResourceError(
            f"{len(images)}^{params.s} secret-row patterns exceed the listing cap {PATTERN_CAP}"
        )
    return tuple(sorted("".join(rows) for rows in itertools.product(images, repeat=params.s)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _regime(n: int) -> str:
    return "odd" if (n + 1) % 2 == 1 else "even"


@dataclass(frozen=True)
class AuditReport:
    params: SchemeParams
    coalition: Coalition
    regime: str
    tagged_residuals: int
    max_trace_distance: float
    verdict: str
    notes: tuple[str, ...]
    tolerance: float = AUDIT_TOLERANCE

    def as_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "s": self.params.s,
                "t": self.params.t,
                "strict": self.params.strict_mode,
            },
            "coalition": self.coalition.label(),
            "regime": self.regime,
            "tagged_residuals": self.tagged_residuals,
            "max_trace_distance": self.max_trace_distance,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def secret_independence_check(
    params: SchemeParams,
    coalition: Coalition,
    tolerance: float = AUDIT_TOLERANCE,
) -> AuditReport:
    """Count the terms of the coalition's view of a full-support secret
    with a non-identity letter on a secret row, in closed form from K_C;
    zero means the view is one fixed operator whatever the secret was.

    A full coalition is rejected (it reconstructs by design). Coalitions the
    security argument does not cover (dealer absent, or no honest
    participant left) are still measured, with a note instead of an
    expectation. Small views get a dense cross-check: the trace distance
    between views of concrete secrets.
    """
    if coalition.is_full:
        raise UsageError(
            "a full coalition holds every share and trivially reconstructs; "
            "independence is only meaningful with at least one honest party"
        )
    notes = []
    if not coalition.covered_by_security_argument:
        notes.append(
            "coalition leaves no honest participant besides the dealer side; "
            "residuals are reported descriptively, without a pass/fail claim "
            "from the security argument"
        )
    residuals = _tagged_residuals(params, coalition)

    max_td = 0.0
    view_qubits = params.layout().rows * len(coalition.columns())
    if view_qubits <= 8:
        family = canonical_secret_family(params.s)
        views = [
            adversary_view(deal(params, op), coalition) for _, op in family
        ]
        for i in range(len(views)):
            for j in range(i + 1, len(views)):
                max_td = max(max_td, views[i].trace_distance(views[j]))
        notes.append(
            f"dense cross-check over {len(views)} concrete secrets "
            f"({view_qubits} view qubits)"
        )
    else:
        notes.append(
            f"dense cross-check skipped: {view_qubits} view qubits exceed the "
            "8-qubit audit threshold; the symbolic count is the authority"
        )
    verdict = "pass" if residuals == 0 and max_td <= tolerance else "fail"
    return AuditReport(
        params=params,
        coalition=coalition,
        regime=_regime(params.n),
        tagged_residuals=residuals,
        max_trace_distance=max_td,
        verdict=verdict,
        notes=tuple(notes),
        tolerance=tolerance,
    )


def distinguishability(
    params: SchemeParams,
    coalition: Coalition,
    secret_a: object,
    secret_b: object,
) -> float:
    """Trace distance between the coalition's views of the two secrets."""
    layout = params.layout()
    view_qubits = layout.rows * len(coalition.columns())
    if view_qubits > DENSE_CAP:
        raise ResourceError(
            f"coalition view spans {view_qubits} qubits, above the dense cap "
            f"{DENSE_CAP}; use secret_independence_check's symbolic count instead"
        )
    view_a = adversary_view(deal(params, secret_a), coalition)
    view_b = adversary_view(deal(params, secret_b), coalition)
    return view_a.trace_distance(view_b)


# ---------------------------------------------------------------------------
# parity regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityRegimeReport:
    params: SchemeParams
    coalition: Coalition
    regime: str
    surviving_patterns: tuple[str, ...]
    expected_patterns: tuple[str, ...] | None
    verdict: str
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "params": {"n": self.params.n, "s": self.params.s, "t": self.params.t},
            "coalition": self.coalition.label(),
            "regime": self.regime,
            "surviving_patterns": list(self.surviving_patterns),
            "expected_patterns": (
                None if self.expected_patterns is None else list(self.expected_patterns)
            ),
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def parity_regime_check(params: SchemeParams, coalition: Coalition) -> ParityRegimeReport:
    """Compare the view's surviving secret-row structure to the closed form.

    For covered coalitions the only surviving secret-row pattern is all-I —
    the odd case's (I^s)^(coalition columns) directly, and the even case's
    theta (x) (I^s)^(columns-1) with theta collapsed to I^s, since every
    non-identity row letter puts a non-identity letter on the honest
    participant's column. The even-case shape bound (identity off the
    dealer's column, {I, Z} on it) is asserted on every survivor. Uncovered
    coalitions get their patterns listed with no expectation.
    """
    if coalition.is_full:
        raise UsageError("parity regimes concern proper coalitions only")
    layout = params.layout()
    columns = coalition.columns()
    patterns = _secret_row_patterns(params, coalition)
    regime = _regime(params.n)
    notes = []

    if not coalition.covered_by_security_argument:
        notes.append(
            "uncovered coalition: surviving patterns listed descriptively"
        )
        return ParityRegimeReport(
            params, coalition, regime, patterns, None, "info", tuple(notes)
        )

    expected = ("I" * (layout.s * len(columns)),)
    ok = patterns == expected
    if regime == "even" and 1 in columns:
        alice_pos = columns.index(1)
        width = len(columns)
        for pat in patterns:
            for x in range(layout.s):
                row = pat[x * width : (x + 1) * width]
                for i, letter in enumerate(row):
                    if i == alice_pos:
                        if letter not in "IZ":
                            ok = False
                            notes.append(f"dealer-column letter {letter} outside {{I,Z}}")
                    elif letter != "I":
                        ok = False
                        notes.append("non-identity letter off the dealer's column")
    return ParityRegimeReport(
        params,
        coalition,
        regime,
        patterns,
        expected,
        "pass" if ok else "fail",
        tuple(notes),
    )


def covered_coalitions(n: int) -> list[Coalition]:
    """All coalitions of the dealer plus n-1 participants."""
    out = []
    for missing in range(1, n + 1):
        members = {"alice"} | {f"p{i}" for i in range(1, n + 1) if i != missing}
        out.append(Coalition(n, frozenset(members)))
    return out
