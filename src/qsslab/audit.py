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
column: with the image as GF(2) x/z masks and the honest columns as one
mask, sigma is in K_C when (x | z) & honest == 0. The words w whose image
the trace keeps are exactly K_C^s, and the kept resource words of a triple
are the R_C magic-state words with all three letters in K_C. So the
secret-dependent view terms number (|K_C|^s - 1) * R_C^budget, and the
secret-row patterns of the view are the row-by-row images of K_C^s on the
coalition's columns. These counts need no deal and no partial trace, so
they stay exact at any s; dense trace distances between concrete secret
pairs cross-check them at small sizes.

Coalitions containing the dealer but missing at least one participant are
the ones the security argument covers; anything else is measured and
reported descriptively, never presumed.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from .circuits import expected_ladder_pauli
from .dense import _check_cap
from .errors import ResourceError, UsageError
from .paulis import PauliOperator, PauliString, _is_zero
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


class Coalition(namedtuple("Coalition", "n columns")):
    """A subset of {alice, p1..pn} as its sorted share columns: column 1 is
    alice, the dealer, and column i + 1 is pi. Every other column is honest."""

    __slots__ = ()

    def __new__(cls, n: int, columns: tuple[int, ...]) -> Coalition:
        if not columns:
            raise UsageError("coalition cannot be empty")
        bounds = (0, *columns, n + 2)
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise UsageError(f"coalition columns {columns} must rise strictly within 1..{n + 1}")
        return super().__new__(cls, n, columns)

    @classmethod
    def parse(cls, spec: str, n: int) -> Coalition:
        """From a comma list like "alice,1,2" or "alice,p1,p2": a participant
        is an optional p followed by ASCII digits."""
        columns, unknown = set(), set()
        for token in spec.split(","):
            token = token.strip().lower()
            digits = token.removeprefix("p")
            if token == "alice":
                columns.add(1)
            elif digits.isascii() and digits.isdigit():
                i = int(digits)
                (columns if 1 <= i <= n else unknown).add(i + 1)
            elif token:
                raise UsageError(f"cannot read coalition member {token!r}")
        if unknown:
            raise UsageError(f"unknown parties {sorted(f'p{y - 1}' for y in unknown)} for n={n}")
        return cls(n, tuple(sorted(columns)))

    @property
    def includes_alice(self) -> bool:
        return self.columns[0] == 1

    @property
    def is_full(self) -> bool:
        return len(self.columns) == self.n + 1

    @property
    def covered_by_security_argument(self) -> bool:
        """True when the dealer is in and >= 1 participant is honest."""
        return self.includes_alice and not self.is_full

    def label(self) -> str:
        return ",".join(["alice" if y == 1 else f"p{y - 1}" for y in self.columns])


def adversary_view(shared: SharedState, coalition: Coalition) -> PauliOperator:
    """The coalition's reduced state: everything the honest parties hold is
    traced out. Kept qubits stay in row-major order restricted to the
    coalition's columns, so the secret rows come first."""
    layout = shared.layout
    if coalition.n != layout.n:
        raise UsageError("coalition does not match the layout")
    keep_cols = set(coalition.columns)
    traced = [
        q
        for y in range(1, layout.columns + 1)
        if y not in keep_cols
        for q in layout.column_qubits(y)
    ]
    return shared.state.partial_trace(traced)


def _row_kernel(params: SchemeParams, coalition: Coalition) -> dict[str, PauliString]:
    """K_C: each letter whose ladder image is I on every honest column,
    mapped to its image. An image misses the honest columns when its x and
    z masks do. The ladder is row-local, so the s-row words the view keeps
    are exactly K_C^s."""
    if coalition.n != params.n:
        raise UsageError("coalition does not match the layout")
    m = params.n + 1
    honest = (1 << m) - 1 - sum(1 << (y - 1) for y in coalition.columns)
    kernel = {}
    for sigma in "IXYZ":
        image = expected_ladder_pauli(m, sigma)
        if (image.x | image.z) & honest == 0:
            kernel[sigma] = image
    return kernel


def _tagged_residuals(params: SchemeParams, coalition: Coalition) -> int:
    """Secret-dependent terms of the coalition's view of a full-support
    secret: the non-identity words of K_C^s times, per triple, the
    magic-state words the view keeps."""
    kernel = _row_kernel(params, coalition)
    resource = magic_state_operator()
    x, z = resource.x, resource.z
    # a word holds X where x & ~z, Y where x & z and Z where ~x & z; it is
    # kept when none of its letters lies outside K_C
    outside = np.zeros_like(x)
    for sigma, where in (("X", x & ~z), ("Y", x & z), ("Z", ~x & z)):
        if sigma not in kernel:
            outside |= where
    kept_resource = int(np.count_nonzero(_is_zero(outside)))
    return (len(kernel) ** params.s - 1) * kept_resource**params.budget


def _secret_row_patterns(params: SchemeParams, coalition: Coalition) -> tuple[str, ...]:
    """The distinct secret-row letter patterns of the view's terms, each
    written row by row over the coalition's columns, sorted."""
    images = _row_kernel(params, coalition).values()
    if len(images) ** params.s > PATTERN_CAP:
        raise ResourceError(
            f"{len(images)}^{params.s} secret-row patterns exceed the listing cap {PATTERN_CAP}"
        )
    rows = ["".join([image.letter(y - 1) for y in coalition.columns]) for image in images]
    return tuple(sorted("".join(word) for word in itertools.product(rows, repeat=params.s)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _regime(n: int) -> str:
    return "odd" if (n + 1) % 2 == 1 else "even"


class AuditReport(
    namedtuple(
        "AuditReport",
        "params coalition regime tagged_residuals max_trace_distance verdict notes",
    )
):
    __slots__ = ()

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
    dealt: list[SharedState] | None = None,
) -> AuditReport:
    """Count the terms of the coalition's view of a full-support secret
    with a non-identity letter on a secret row, in closed form from K_C;
    zero means the view is one fixed operator whatever the secret was.

    A full coalition is rejected (it reconstructs by design). Coalitions the
    security argument does not cover (dealer absent, or no honest
    participant left) are still measured, with a note instead of an
    expectation. Small views get a dense cross-check: the trace distance
    between views of concrete secrets. Their deals do not depend on the
    coalition, so a caller checking several coalitions of one scheme passes
    one ``dealt`` list to every call: the first small view deals the
    canonical family into it, and later ones reuse it.
    """
    if coalition.is_full:
        raise UsageError(
            "a full coalition holds every share and trivially reconstructs; "
            "independence is only meaningful with at least one honest party"
        )
    notes = []
    if not coalition.covered_by_security_argument:
        # the full coalition was refused above, so here the dealer is absent
        reason = "the dealer is absent"
        if len(coalition.columns) == coalition.n:
            reason += " and no participant besides the dealer is honest"
        notes.append(
            f"{reason}: residuals are reported descriptively, "
            "without a pass/fail claim from the security argument"
        )
    residuals = _tagged_residuals(params, coalition)

    max_td = 0.0
    view_qubits = params.layout().rows * len(coalition.columns)
    if view_qubits <= 8:
        if dealt is None:
            dealt = []
        if not dealt:
            dealt.extend(deal(params, op) for _, op in canonical_secret_family(params.s))
        elif dealt[0].layout != params.layout():
            raise UsageError("the dealt secrets belong to another share layout")
        views = [adversary_view(shared, coalition) for shared in dealt]
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
    )


def distinguishability(
    params: SchemeParams,
    coalition: Coalition,
    secret_a: object,
    secret_b: object,
) -> float:
    """Trace distance between the coalition's views of the two secrets. A
    secret already dealt under ``params`` (a SharedState) is used as it is.
    A view above the dense cap is refused before anything is dealt;
    secret_independence_check's symbolic count has no such cap."""
    layout = params.layout()
    _check_cap(layout.rows * len(coalition.columns), "coalition view")
    views = []
    for secret in (secret_a, secret_b):
        if not isinstance(secret, SharedState):
            secret = deal(params, secret)
        elif secret.layout != layout:
            raise UsageError("the dealt secret belongs to another share layout")
        views.append(adversary_view(secret, coalition))
    return views[0].trace_distance(views[1])


# ---------------------------------------------------------------------------
# parity regimes
# ---------------------------------------------------------------------------


class ParityRegimeReport(namedtuple("ParityRegimeReport", "regime surviving_patterns verdict notes")):
    __slots__ = ()


def parity_regime_check(params: SchemeParams, coalition: Coalition) -> ParityRegimeReport:
    """Compare the view's surviving secret-row structure to the closed form.

    For covered coalitions the only surviving secret-row pattern is all-I —
    the odd case's (I^s)^(coalition columns) directly, and the even case's
    theta (x) (I^s)^(columns-1) with theta collapsed to I^s, since every
    non-identity row letter puts a non-identity letter on the honest
    participant's column. Uncovered coalitions get their patterns listed
    with no expectation, and a note naming K_C.
    """
    if coalition.is_full:
        raise UsageError("parity regimes concern proper coalitions only")
    patterns = _secret_row_patterns(params, coalition)
    regime = _regime(params.n)
    if not coalition.covered_by_security_argument:
        kernel = ", ".join(_row_kernel(params, coalition))
        notes = (
            "uncovered coalition: surviving patterns listed descriptively",
            f"K_C = {{{kernel}}}: the letters whose ladder image misses every honest column",
        )
        return ParityRegimeReport(regime, patterns, "info", notes)
    ok = patterns == ("I" * (params.s * len(coalition.columns)),)
    return ParityRegimeReport(regime, patterns, "pass" if ok else "fail", ())


def covered_coalitions(n: int) -> list[Coalition]:
    """All coalitions of the dealer plus n-1 participants, p1 missing first."""
    everyone = tuple(range(1, n + 2))
    # participant pi is column i + 1, at index i of everyone
    return [Coalition(n, everyone[:i] + everyone[i + 1 :]) for i in range(1, n + 1)]
