"""The (n,n) scheme end to end: deal, evaluate on shares, reconstruct.

A secret on s logical qubits is spread over an (s+t) x (n+1) qubit grid
(see ShareLayout): each logical qubit occupies one row, the dealer holds
column 1, participant y-1 holds column y. Dealing places the secret on the
dealer's column, fills every other data-grid qubit with I/2, puts one
3-qubit magic state per ancilla triple on the dealer's column, and runs the
encoding ladder across every row. Logical Cliffords act column-locally via
transversal_expand; each logical Toffoli burns one ancilla triple through
the measurement gadget, with every measured bit broadcast.

States are carried as sparse Pauli expansions; a term depends on the
secret exactly when it has a non-identity letter on a secret row (see
deal), which is what the audit module counts. Measured-out qubits are
stored maximally mixed — their outcomes live in the classical transcript,
so the pair (state, transcript) loses nothing; this keeps term counts flat
instead of letting each consumed triple multiply them by 2^(3(n+1)).
Cliffords reach the engine in batches, since each
conjugate_circuit call pays one transpose of the term words into bit
planes and one back: consecutive script Cliffords, and a gadget's gates
between two measurements, run as one call per state.

Exact evaluation enumerates all 2^(3(n+1)) bit histories of each gadget but
merges the states they reach: histories that leave equal operators (same
words, coefficients within paulis.EQUAL_TOL relative) and whose pending
correction conditions read the same parities share one operator and are
simulated once. The branch cap counts histories, not merged states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .circuits import (
    CLIFFORD_KINDS,
    Circuit,
    Gate,
    ShareLayout,
    evaluate_condition,
    gates_from_lines,
    ladder_circuit,
    magic_state_circuit,
    toffoli_gadget,
    transversal_expand,
)
from .dense import DENSE_CAP, PROBABILITY_CUTOFF, StateVector, build_unitary, run_circuit
from .errors import ProtocolError, ResourceError, UsageError
from .paulis import PauliOperator, PauliString

DEFAULT_BRANCH_CAP = 4096


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """n participants besides the dealer, s secret rows, t ancilla rows.

    Strict mode enforces s = 3k, t = 3k' with k'/k a positive integer;
    relaxed mode admits any s >= 1 and t = 3 * (Toffoli budget), budget 0
    included. Use the classmethod constructors.
    """

    n: int
    s: int
    t: int
    strict_mode: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError("need at least one participant besides the dealer")
        if self.s < 1:
            raise UsageError("need at least one secret row")
        if self.t < 0 or self.t % 3 != 0:
            raise UsageError("ancilla rows must come in triples")
        if self.strict_mode:
            if self.s % 3 != 0:
                raise UsageError("strict mode requires s = 3k")
            k, kprime = self.s // 3, self.t // 3
            if kprime < 1:
                raise UsageError("strict mode requires k' >= 1")
            if kprime % k != 0:
                raise UsageError("strict mode requires k'/k to be a positive integer")

    @classmethod
    def strict(cls, n: int, k: int, kprime: int) -> SchemeParams:
        if k < 1 or kprime < 1:
            raise UsageError("strict mode requires k, k' >= 1")
        return cls(n=n, s=3 * k, t=3 * kprime, strict_mode=True)

    @classmethod
    def relaxed(cls, n: int, s: int, budget: int = 0) -> SchemeParams:
        if budget < 0:
            raise UsageError("Toffoli budget cannot be negative")
        return cls(n=n, s=s, t=3 * budget, strict_mode=False)

    @property
    def k(self) -> int | None:
        return self.s // 3 if self.strict_mode else None

    @property
    def kprime(self) -> int | None:
        return self.t // 3 if self.strict_mode else None

    @property
    def budget(self) -> int:
        return self.t // 3

    def layout(self) -> ShareLayout:
        return ShareLayout(s=self.s, t=self.t, n=self.n)


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

LOGICAL_KINDS = CLIFFORD_KINDS + ("I", "TOFFOLI")


@dataclass(frozen=True)
class EvaluationScript:
    """Ordered logical gates over rows 1..num_rows (Cliffords and TOFFOLIs)."""

    num_rows: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.kind not in LOGICAL_KINDS:
                raise UsageError(f"{g.kind} is not a logical script gate")
            if g.condition is not None or g.classical_bit is not None:
                raise UsageError("script gates carry no conditions or bits")
            for r in g.qubits:
                if not 1 <= r <= self.num_rows:
                    raise UsageError(f"logical row {r} out of range 1..{self.num_rows}")

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def toffoli_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "TOFFOLI")

    @classmethod
    def from_lines(cls, text: str, num_rows: int) -> EvaluationScript:
        return cls(num_rows, tuple(gates_from_lines(text)))


def logical_unitary(script: EvaluationScript) -> np.ndarray:
    """Dense matrix of the script on its logical rows (row r -> qubit r-1)."""
    gates = tuple(Gate(g.kind, tuple(r - 1 for r in g.qubits)) for g in script.gates)
    return build_unitary(Circuit(script.num_rows, 0, gates))


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitOrigin:
    """Where one broadcast bit came from."""

    slot: int
    gadget_id: int
    triple: int
    row: int
    column: int
    participant: str


@dataclass(frozen=True)
class Transcript:
    """Broadcast record of one evaluate call.

    ``branches`` pairs each surviving branch's full bit history with its
    probability; in exact mode the probabilities sum to 1, in sampled mode
    a single drawn branch is recorded with its own probability.
    """

    bit_origins: tuple[BitOrigin, ...] = ()
    branches: tuple[tuple[tuple[int, ...], float], ...] = ()

    def total_probability(self) -> float:
        return float(sum(p for _, p in self.branches))

    def marginal(self, slot: int) -> float:
        return float(sum(p for bits, p in self.branches if bits[slot]))


# ---------------------------------------------------------------------------
# shared state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedState:
    """One branch of the global state after dealing and evaluation.

    ``state`` spans the whole grid; qubits measured by a past gadget are
    stored maximally mixed with their outcomes in ``classical_transcript``.
    """

    layout: ShareLayout
    state: PauliOperator
    consumed_ancillas: frozenset[int] = frozenset()
    classical_transcript: tuple[int, ...] = ()
    branch_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.state.num_qubits != self.layout.num_qubits:
            raise UsageError("state size does not match the layout")

    @property
    def available_triples(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.layout.t // 3) if i not in self.consumed_ancillas
        )


def encoding_circuit(layout: ShareLayout) -> Circuit:
    """The ladder over each row's columns (empty for the 1-column layout)."""
    if layout.columns == 1:
        return Circuit(layout.num_qubits, 0, ())
    ladder = ladder_circuit(layout.columns).gates
    gates: list[Gate] = []
    for x in range(1, layout.rows + 1):
        row = layout.row_qubits(x)
        for g in ladder:
            gates.append(Gate(g.kind, tuple(row[q] for q in g.qubits)))
    return Circuit(layout.num_qubits, 0, tuple(gates))


@cache
def magic_state_operator() -> PauliOperator:
    """Pauli expansion of the 3-qubit gadget resource state."""
    branches = run_circuit(magic_state_circuit(), StateVector.basis(3, 0))
    ((_, _, state),) = branches
    return _pure_operator(state)


def _pure_operator(vec: StateVector) -> PauliOperator:
    """Expansion of |a><a| for a validated (normalized) state vector a; the
    outer product is a state by construction, so it needs no Hermitian,
    trace or eigvalsh check."""
    a = vec.amplitudes
    return PauliOperator.from_dense(np.outer(a, a.conj()))


def _as_secret_operator(secret: object, s: int) -> PauliOperator:
    if isinstance(secret, PauliOperator):
        op = secret
    elif isinstance(secret, np.ndarray):
        op = PauliOperator.from_dense(np.asarray(secret, dtype=complex))
    else:
        raise UsageError(f"cannot interpret {type(secret).__name__} as a secret")
    if op.num_qubits != s:
        raise UsageError(f"secret spans {op.num_qubits} qubits, expected {s}")
    if abs(op.trace() - 1.0) > 1e-9:
        raise UsageError("secret must have trace 1")
    if not op.is_hermitian:
        raise UsageError("secret must be Hermitian")
    return op


def deal(params: SchemeParams, secret: object) -> SharedState:
    """Encode and distribute: the shared global state. Secret word w lands
    only on the secret rows, so after the row-local ladder a shared term has
    a non-identity letter on a secret row exactly when its w is not I."""
    op = _as_secret_operator(secret, params.s)
    layout = params.layout()
    m = layout.columns

    # secret block: each term's letter sits on the dealer's column of its
    # row, every other data qubit starts as I/2
    def on_dealer_column(rows: PauliOperator) -> PauliOperator:
        width = rows.num_qubits * m
        fresh = 2.0 ** -(rows.num_qubits * (m - 1))
        return rows.scaled(fresh).embedded(width, range(0, width, m))

    block = on_dealer_column(op)

    # ancilla triples: one magic state per triple on the dealer's column
    if params.t:
        triple_block = on_dealer_column(magic_state_operator())
        for _ in range(params.t // 3):
            block = block.tensor(triple_block)

    encoded = block.conjugate_circuit(encoding_circuit(layout).gates)
    return SharedState(layout=layout, state=encoded)


def reconstruct(
    shared: SharedState, columns: Sequence[int] | None = None
) -> PauliOperator:
    """Undo the ladder on every row, discard everything but the dealer's
    column of the secret rows, return the s-qubit operator. All columns are
    required — the scheme is n-of-n."""
    layout = shared.layout
    if columns is not None and set(columns) != set(range(1, layout.columns + 1)):
        raise ProtocolError("reconstruction requires all shares")
    op = shared.state.conjugate_circuit(encoding_circuit(layout).inverse().gates)
    keep = {layout.index_of(x, 1) for x in range(1, layout.s + 1)}
    traced = [q for q in range(layout.num_qubits) if q not in keep]
    return op.partial_trace(traced)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class _Group:
    """One operator and every (bits, probability) history that reaches it."""

    op: PauliOperator
    histories: list[tuple[tuple[int, ...], float]]


def _merge(groups: list[_Group], signature: Callable[[_Group], tuple]) -> list[_Group]:
    """Fold each group into the first earlier one with an equal signature and
    an approx_equal operator; the survivor keeps its operator object."""
    buckets: dict[tuple, list[_Group]] = {}
    merged: list[_Group] = []
    for grp in groups:
        bucket = buckets.setdefault(signature(grp), [])
        for other in bucket:
            if other.op.approx_equal(grp.op):
                other.histories.extend(grp.histories)
                break
        else:
            bucket.append(grp)
            merged.append(grp)
    return merged


def _run_gadget(
    gadget: Circuit,
    groups: list[_Group],
    mode: str,
    rng: np.random.Generator | None,
    branch_cap: int,
    gate_index: int,
) -> list[_Group]:
    base = len(groups[0].histories[0][0])
    pad = (0,) * gadget.num_classical_bits
    for grp in groups:
        grp.histories = [(bits + pad, p) for bits, p in grp.histories]
    # Two groups evolve identically through the rest of the gadget when
    # their operators are equal and every correction condition reads the
    # same parity on their bits so far (unwritten bits are still 0, and the
    # bits yet to come are shared once they merge).
    conditions = sorted({g.condition for g in gadget.gates if g.condition is not None})

    def local_bits(grp: _Group) -> tuple[int, ...]:
        return grp.histories[0][0][base:]

    def signature(grp: _Group) -> tuple[bool, ...]:
        return tuple(evaluate_condition(c, local_bits(grp)) for c in conditions)

    # Gates between two measurements run as one conjugate_circuit call per
    # group; a group's bits, and so its conditions, hold still until the next
    # measurement.
    pending: list[Gate] = []

    def flush() -> None:
        for grp in groups:
            bits = local_bits(grp)
            grp.op = grp.op.conjugate_circuit(
                g
                for g in pending
                if g.condition is None or evaluate_condition(g.condition, bits)
            )
        pending.clear()

    for g in gadget.gates:
        if g.kind != "MEASURE_Z":
            pending.append(g)
            continue
        flush()
        (q,) = g.qubits
        slot = base + g.classical_bit
        children: list[_Group] = []
        for grp in groups:
            outcomes = [
                (b, p, post)
                for b, (p, post) in enumerate(grp.op.measure_z(q))
                if p > PROBABILITY_CUTOFF
            ]
            if mode == "sampled":
                probs = np.array([p for _, p, _ in outcomes])
                pick = int(rng.choice(len(outcomes), p=probs / probs.sum()))
                outcomes = [outcomes[pick]]
            for b, p, post in outcomes:
                histories = [
                    (bits[:slot] + (b,) + bits[slot + 1 :], prob * p)
                    for bits, prob in grp.histories
                ]
                children.append(_Group(post, histories))
        count = sum(len(grp.histories) for grp in children)
        if count > branch_cap:
            raise ResourceError(
                f"exact branch enumeration reached {count} bit histories, over "
                f"the cap of {branch_cap}, in the TOFFOLI at script gate "
                f"{gate_index}; rerun in sampled mode or raise branch_cap"
            )
        groups = _merge(children, signature)
    flush()
    # the gadget's conditions are spent: equal operators now evolve alike
    return _merge(groups, lambda grp: ())


def evaluate(
    shared: SharedState,
    script: EvaluationScript,
    mode: str = "exact",
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> tuple[list[SharedState], Transcript]:
    """Run the logical script on the shares.

    Cliffords expand transversally and never branch. Each TOFFOLI consumes
    the next intact ancilla triple and measures 3(n+1) qubits; exact mode
    enumerates every bit history (probabilities sum to 1), sampled mode
    draws one path with the mandatory seed. Histories that reach equal
    states are merged and simulated once; the result still holds one
    SharedState per history, in lexicographic bit order, and histories that
    reached one merged state share its operator object. ``branch_cap``
    bounds the number of histories; exceeding it raises ResourceError.
    Returns the branch states and the broadcast transcript.
    """
    if mode == "sampled":
        if seed is None:
            raise UsageError("sampled mode requires a seed")
        rng = np.random.default_rng(seed)
    elif mode == "exact":
        rng = None
    else:
        raise UsageError(f"unknown mode {mode!r}; use 'exact' or 'sampled'")
    if script.num_rows != shared.layout.s:
        raise UsageError("script row count does not match the layout")
    available = list(shared.available_triples)
    if script.toffoli_count > len(available):
        raise ProtocolError(
            f"Toffoli budget exhausted: script needs {script.toffoli_count} "
            f"ancilla triples, {len(available)} remain"
        )

    layout = shared.layout
    m = layout.columns
    consumed = set(shared.consumed_ancillas)
    groups = [_Group(shared.state, [(tuple(shared.classical_transcript), 1.0)])]
    origins: list[BitOrigin] = []
    # consecutive script Cliffords expand into one run per group
    pending: list[Gate] = []

    def flush() -> None:
        for grp in groups:
            grp.op = grp.op.conjugate_circuit(pending)
        pending.clear()

    for gi, gate in enumerate(script.gates):
        if gate.kind == "TOFFOLI":
            flush()
            triple = available.pop(0)
            anc = layout.ancilla_triple_rows(triple)
            gadget = toffoli_gadget(tuple(gate.qubits), anc, layout)
            base = len(groups[0].histories[0][0])
            for g in gadget.gates:
                if g.kind == "MEASURE_Z":
                    row, col = divmod(g.qubits[0], m)
                    origins.append(
                        BitOrigin(
                            slot=base + g.classical_bit,
                            gadget_id=gi,
                            triple=triple,
                            row=row + 1,
                            column=col + 1,
                            participant=layout.owner(col + 1),
                        )
                    )
            groups = _run_gadget(gadget, groups, mode, rng, branch_cap, gi)
            consumed.add(triple)
        else:
            pending.extend(transversal_expand(gate, layout).gates)
    flush()

    histories = sorted(
        ((bits, prob, grp.op) for grp in groups for bits, prob in grp.histories),
        key=lambda h: h[0],
    )
    out = [
        SharedState(
            layout=layout,
            state=op,
            consumed_ancillas=frozenset(consumed),
            classical_transcript=bits,
            branch_probability=shared.branch_probability * prob,
        )
        for bits, prob, op in histories
    ]
    transcript = Transcript(
        bit_origins=tuple(origins),
        branches=tuple((bits, prob) for bits, prob, _ in histories),
    )
    return out, transcript


# ---------------------------------------------------------------------------
# canonical secrets
# ---------------------------------------------------------------------------


def canonical_secret_family(s: int) -> list[tuple[str, PauliOperator]]:
    """All-zero, all-one and all-plus product secrets on s qubits.

    They are built densely, so s above the dense cap is refused before the
    2^s x 2^s outer products are allocated."""
    if s > DENSE_CAP:
        raise ResourceError(
            f"canonical secrets refused above the dense cap ({s} > {DENSE_CAP} qubits)"
        )
    dim = 2**s
    zero = np.zeros(dim)
    zero[0] = 1.0
    one = np.zeros(dim)
    one[-1] = 1.0
    plus = np.full(dim, dim**-0.5)
    return [
        ("|" + "0" * s + ">", PauliOperator.from_dense(np.outer(zero, zero))),
        ("|" + "1" * s + ">", PauliOperator.from_dense(np.outer(one, one))),
        ("|" + "+" * s + ">", PauliOperator.from_dense(np.outer(plus, plus))),
    ]


# ---------------------------------------------------------------------------
# secret files
# ---------------------------------------------------------------------------


def _as_complex(value: object) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise UsageError(f"cannot read {value!r} as a complex number")


def parse_secret(obj: dict, s: int | None = None) -> PauliOperator:
    """Secret from its JSON form: {"amplitudes": [...]} for a pure state
    (entries are numbers or [re, im] pairs) or {"pauli": {"XYZ": coeff}} for
    a direct expansion, letters keyed left-to-right by row."""
    if not isinstance(obj, dict):
        raise UsageError("secret file must hold a JSON object")
    if "amplitudes" in obj:
        amps = np.array([_as_complex(a) for a in obj["amplitudes"]])
        num = int(amps.size).bit_length() - 1
        if 2**num != amps.size:
            raise UsageError("amplitude count must be a power of two")
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise UsageError("amplitudes cannot all vanish")
        op = _pure_operator(StateVector(num, amps / norm))
    elif "pauli" in obj:
        words = obj["pauli"]
        if not isinstance(words, dict) or not words:
            raise UsageError("'pauli' must map letter words to coefficients")
        lengths = {len(w) for w in words}
        if len(lengths) != 1:
            raise UsageError("all Pauli words must have the same length")
        num = lengths.pop()
        op = PauliOperator.from_terms(
            num,
            [
                (PauliString.from_letters(w), _as_complex(c))
                for w, c in words.items()
            ],
        )
    else:
        raise UsageError("secret file needs an 'amplitudes' or 'pauli' key")
    if s is not None and op.num_qubits != s:
        raise UsageError(f"secret spans {op.num_qubits} qubits, expected {s}")
    return op


def load_secret(path: str | Path, s: int | None = None) -> PauliOperator:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"secret file {path}: {exc.msg}") from None
    return parse_secret(obj, s)
