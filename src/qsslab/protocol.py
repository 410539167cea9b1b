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
stored maximally mixed — their outcomes live only in the Transcript, the
one record of each history's bits and probability, so the pair (state,
transcript) loses nothing; this keeps term counts flat instead of letting
each consumed triple multiply them by 2^(3(n+1)).

The grid state is a product and is stored as one. The encoder is a ladder
inside each row, script Cliffords touch only the secret rows, and a gadget
leaves its consumed triple's rows at I/2, so the state is always

    core(secret rows) (x) R^(unconsumed triples) (x) I/2(consumed rows),

where R is the one encoded 29-term triple block of the column count,
built once per process. A product needs no flat expansion until a gate
couples its factors, as in Pauli-propagation simulators (Rall et al., PRA
99, 062337 (2019)). A SharedState holds the core and its unconsumed
triples: deal encodes the secret rows alone, reconstruct reads the core
alone (R and I/2 trace to 1), and evaluate tensors R in only for the
triple a gadget consumes, runs the gadget on that (s+3)-row working
operator and drops the triple's rows again. Rows are contiguous in the
row-major layout, so the factors in row order are the flat operator, which
SharedState.state builds for the callers that read it.
Cliffords reach the engine in batches, since each
conjugate_circuit call pays one transpose of the term words into bit
planes and one back: consecutive script Cliffords run as one call per
state, and so does a gadget's trailing swap-back with the Cliffords after it.

Every correction of a gadget reads only the XOR of a measured row's bits,
so both modes measure the three row parities at once, as in gate
teleportation with a Pauli frame (Gottesman-Chuang). Before the
measurement every term with no X/Y on the measured rows carries there only
products of the rows' Z^(n+1) words, which PauliOperator.measure_z checks
on every call: then each string within a parity class is equally likely
and leaves the same state. Exact evaluation simulates each of the 8 parity
outcomes once, for the 2^(3n) bit strings with those parities; sampled
evaluation draws one string from the parity distribution. Histories are
arrays (one row of parities per history, expanded into bit strings at the
end); operators equal within paulis.EQUAL_TOL relative merge after the
corrections, and the histories that reach one merged operator share one
SharedState. The branch cap counts bit histories, not merged states.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from functools import cache, cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .circuits import (
    CLIFFORD_KINDS,
    Circuit,
    Gate,
    ShareLayout,
    gates_from_lines,
    ladder_circuit,
    magic_state_circuit,
    toffoli_gadget,
    transversal_expand,
)
from .dense import PROBABILITY_CUTOFF, StateVector, _check_cap, build_unitary, run_circuit
from .errors import ProtocolError, ResourceError, UsageError
from .paulis import PauliOperator, PauliString

DEFAULT_BRANCH_CAP = 4096


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class SchemeParams(namedtuple("SchemeParams", "n s t strict_mode")):
    """n participants besides the dealer, s secret rows, t ancilla rows.

    Strict mode enforces s = 3k, t = 3k' with k'/k a positive integer;
    otherwise any s >= 1 and t = 3 * (Toffoli budget), budget 0 included.
    """

    __slots__ = ()

    def __new__(cls, n: int, s: int, t: int, strict_mode: bool = False) -> SchemeParams:
        if n < 1:
            raise UsageError("need at least one participant besides the dealer")
        if s < 1:
            raise UsageError("need at least one secret row")
        if t < 0 or t % 3 != 0:
            raise UsageError("ancilla rows must come in triples")
        if strict_mode:
            if s % 3 != 0:
                raise UsageError("strict mode requires s = 3k")
            k, kprime = s // 3, t // 3
            if kprime < 1:
                raise UsageError("strict mode requires k' >= 1")
            if kprime % k != 0:
                raise UsageError("strict mode requires k'/k to be a positive integer")
        return super().__new__(cls, n, s, t, strict_mode)

    @classmethod
    def strict(cls, n: int, k: int, kprime: int) -> SchemeParams:
        if k < 1 or kprime < 1:
            raise UsageError("strict mode requires k, k' >= 1")
        return cls(n=n, s=3 * k, t=3 * kprime, strict_mode=True)

    @property
    def budget(self) -> int:
        return self.t // 3

    def layout(self) -> ShareLayout:
        return ShareLayout(s=self.s, t=self.t, n=self.n)


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

LOGICAL_KINDS = CLIFFORD_KINDS + ("I", "TOFFOLI")


class EvaluationScript:
    """Ordered logical gates over rows 1..num_rows (Cliffords and TOFFOLIs)."""

    def __init__(self, num_rows: int, gates: tuple[Gate, ...] = ()) -> None:
        self.num_rows = num_rows
        self.gates = tuple(gates)
        for g in self.gates:
            if g.kind not in LOGICAL_KINDS:
                raise UsageError(f"{g.kind} is not a logical script gate")
            if g.condition is not None or g.classical_bit is not None:
                raise UsageError("script gates carry no conditions or bits")
            for r in g.qubits:
                if not 1 <= r <= self.num_rows:
                    raise UsageError(f"logical row {r} out of range 1..{self.num_rows}")

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


class BitOrigin(namedtuple("BitOrigin", "slot gadget_id triple row column participant")):
    """Where one broadcast bit came from."""

    __slots__ = ()


class Transcript:
    """Broadcast record of one evaluate call.

    Row i of ``bits`` (uint8, one column per broadcast slot) is a surviving
    bit history and ``probabilities[i]`` its probability; rows are in
    lexicographic bit order. In exact mode the probabilities sum to 1; in
    sampled mode the one drawn history is recorded with its own probability.
    """

    def __init__(self, bit_origins: tuple[BitOrigin, ...], bits: np.ndarray, probabilities: np.ndarray) -> None:
        self.bit_origins = bit_origins
        self.bits = bits
        self.probabilities = probabilities

    @property
    def branches(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Each history as (bits, probability) in Python values, row order."""
        return tuple(zip(map(tuple, self.bits.tolist()), self.probabilities.tolist()))

    def total_probability(self) -> float:
        return float(self.probabilities.sum())

    def marginal(self, slot: int) -> float:
        return float(self.probabilities[self.bits[:, slot] == 1].sum())


# ---------------------------------------------------------------------------
# shared state
# ---------------------------------------------------------------------------


class SharedState:
    """The global state after dealing, or after evaluation along one or
    more bit histories, held as its factors.

    ``core`` is the encoded operator on the s secret rows, the first s * m
    grid qubits. Every triple in ``unconsumed`` holds the encoded block R
    of _encoded_triple. Every other triple's rows are I/2: its gadget left
    there the qubits it measured, stored maximally mixed, and their outcomes
    are the rows of evaluate's Transcript. ``state`` is the flat operator
    on the whole grid, the product of the factors in row order, built on
    first read. States compare and hash by identity: every history that
    reached one merged operator holds the same SharedState.
    """

    def __init__(self, layout: ShareLayout, core: PauliOperator, unconsumed: frozenset[int]) -> None:
        if core.num_qubits != layout.s * layout.columns:
            raise UsageError("core size does not match the layout's secret rows")
        if not unconsumed <= set(range(layout.t // 3)):
            raise UsageError("unconsumed triples outside the layout")
        self.layout = layout
        self.core = core
        self.unconsumed = unconsumed

    @property
    def available_triples(self) -> tuple[int, ...]:
        return tuple(sorted(self.unconsumed))

    @property
    def consumed_ancillas(self) -> frozenset[int]:
        return frozenset(range(self.layout.t // 3)) - self.unconsumed

    @cached_property
    def state(self) -> PauliOperator:
        """The flat operator: the core, then each triple's R or I/2 block."""
        m = self.layout.columns
        op = self.core
        for triple in range(self.layout.t // 3):
            op = op.tensor(_encoded_triple(m) if triple in self.unconsumed else _mixed_triple(m))
        return op


@cache
def encoding_circuit(layout: ShareLayout) -> Circuit:
    """The ladder over each row's columns (empty for the 1-column layout).
    Layouts compare by value and nothing writes a circuit after it is
    built, so each is built once per process."""
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


def _encoded(rows: PauliOperator, m: int) -> PauliOperator:
    """One letter per row on the dealer's column, every other qubit of the
    rows I/2, then the ladder on each of the m-column rows."""
    width = rows.num_qubits * m
    block = rows.embedded(width, range(0, width, m))
    layout = ShareLayout(s=rows.num_qubits, t=0, n=m - 1)
    return block.conjugate_circuit(encoding_circuit(layout).gates)


@cache
def _encoded_triple(m: int) -> PauliOperator:
    """R: the magic state encoded on three rows of m columns, the block
    every unconsumed triple holds."""
    return _encoded(magic_state_operator(), m)


@cache
def _mixed_triple(m: int) -> PauliOperator:
    """I/2 on every qubit of three rows of m columns: a consumed triple."""
    return PauliOperator.from_terms(3 * m, [(PauliString.identity(3 * m), 1.0)])


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
    a non-identity letter on a secret row exactly when its w is not I. Only
    the secret rows are encoded here; every triple holds the one cached
    block R, so the cost does not grow with the number of triples."""
    layout = params.layout()
    core = _encoded(_as_secret_operator(secret, params.s), layout.columns)
    return SharedState(layout, core, frozenset(range(params.t // 3)))


def reconstruct(shared: SharedState) -> PauliOperator:
    """Undo the ladder on every secret row, discard everything but the
    dealer's column of those rows, return the s-qubit operator. Only the
    core is read: every R and I/2 factor traces to 1. The decoding ladder
    acts on every column of a row, so it reads every share: the scheme is
    n-of-n."""
    layout = shared.layout
    rows = ShareLayout(s=layout.s, t=0, n=layout.n)
    op = shared.core.conjugate_circuit(_decoding_circuit(rows).gates)
    keep = {rows.index_of(x, 1) for x in range(1, layout.s + 1)}
    return op.partial_trace([q for q in range(rows.num_qubits) if q not in keep])


@cache
def _decoding_circuit(layout: ShareLayout) -> Circuit:
    """The inverse ladder on every row, built once per layout."""
    return encoding_circuit(layout).inverse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class _Group:
    """One operator and every history that reaches it: row i of
    ``outcomes`` holds history i's measured parities, one column per
    measured set so far, and ``probs[i]`` their probability."""

    def __init__(self, op: PauliOperator, outcomes: np.ndarray, probs: np.ndarray) -> None:
        self.op = op
        self.outcomes = outcomes
        self.probs = probs


def _merge(groups: list[_Group]) -> list[_Group]:
    """Fold each group into the first earlier one with an approx_equal
    operator; the survivor keeps its operator object."""
    buckets: list[list[_Group]] = []
    for grp in groups:
        for bucket in buckets:
            if bucket[0].op.approx_equal(grp.op):
                bucket.append(grp)
                break
        else:
            buckets.append([grp])
    return [
        _Group(
            bucket[0].op,
            np.concatenate([grp.outcomes for grp in bucket]),
            np.concatenate([grp.probs for grp in bucket]),
        )
        for bucket in buckets
    ]


def _measured_sets(gadget: Circuit) -> tuple[list[list[int]], dict[int, list[int]]]:
    """The gadget's measured bit slots, grouped into the sets whose parities
    are measured, in the order of their last slots, and for each condition,
    keyed by the id of its slot tuple, the indices of the sets whose
    parities it XORs. The slots that exactly the same conditions read form
    one set, so every condition is an XOR of whole sets; a slot that no
    condition reads is a set of its own."""
    slots = [g.classical_bit for g in gadget.gates if g.kind == "MEASURE_Z"]
    reads: dict[int, set[int]] = {}
    for g in gadget.gates:
        if g.condition is not None and id(g.condition) not in reads:
            reads[id(g.condition)] = set(g.condition)
    by_readers: dict[object, list[int]] = {}
    for slot in slots:
        key = tuple(slot in read for read in reads.values())
        by_readers.setdefault(key if any(key) else slot, []).append(slot)
    sets = sorted(by_readers.values(), key=lambda st: slots.index(st[-1]))
    return sets, {c: [j for j, st in enumerate(sets) if st[0] in read] for c, read in reads.items()}


def _conditionals(probs: np.ndarray, k: int) -> list[np.ndarray]:
    """Entry j: set j's parity probability given the earlier sets' parities,
    indexed by the parities of sets 0..j (0 where the earlier parities are
    impossible), from a k-set parity measurement's outcome probabilities."""
    joint = probs.reshape((2,) * k)
    out, earlier = [], np.ones(1)
    for j in range(k):
        marginal = joint.sum(axis=tuple(range(j + 1, k)))
        out.append(np.divide(marginal, earlier, out=np.zeros(marginal.shape), where=earlier > 0))
        earlier = marginal[..., None]
    return out


def _surviving(probs: np.ndarray, k: int) -> np.ndarray:
    """The outcomes whose every conditional parity probability exceeds PROBABILITY_CUTOFF."""
    keep = np.ones((2,) * k, dtype=bool)
    for j, conditional in enumerate(_conditionals(probs, k)):
        keep &= (conditional > PROBABILITY_CUTOFF).reshape(conditional.shape + (1,) * (k - 1 - j))
    return np.flatnonzero(keep)


def _draw(
    probs: np.ndarray, slots: list[int], sets: list[list[int]], rng: np.random.Generator
) -> tuple[int, list[int], float]:
    """One bit string of a parity measurement, drawn in slot order with one
    rng.choice per bit over its outcomes above PROBABILITY_CUTOFF: a set's
    bits but the last are 1/2 each, and the last completes the parity with
    its conditional probability. Returns (outcome index, bits, probability)."""
    conditionals = _conditionals(probs, len(sets))
    set_of = {s: j for j, st in enumerate(sets) for s in st}
    parities, bits, prob = [0] * len(sets), [], 1.0
    for slot in slots:
        j = set_of[slot]
        weights = np.array([0.5, 0.5])
        if slot == sets[j][-1]:  # sets complete in order
            weights = conditionals[j][tuple(parities[:j])][[parities[j], 1 - parities[j]]]
        (kept,) = np.nonzero(weights > PROBABILITY_CUTOFF)
        b = int(kept[rng.choice(len(kept), p=weights[kept] / weights[kept].sum())])
        bits.append(b)
        parities[j] ^= b
        prob *= weights[b]
    return sum(b << (len(sets) - 1 - j) for j, b in enumerate(parities)), bits, prob


def _run_gadget(
    gadget: Circuit,
    groups: list[_Group],
    rng: np.random.Generator | None,
) -> tuple[list[_Group], list[list[int]], list[Gate]]:
    """Run one measured gadget on every group: the gates before the
    measurements as one batch, one measure_z call for the parities of
    _measured_sets, then the conditioned corrections once per simulated
    outcome, and merge equal operators. Exact mode (no ``rng``) simulates
    every surviving outcome, standing for each bit string with its
    parities; sampled mode simulates the outcome of one drawn string (see
    _draw) and records one set per slot.

    Returns the merged groups, the recorded sets as gadget bit slots, and
    the gates after the last conditioned correction, which the caller runs
    once per merged group.
    """
    gates = list(gadget.gates)
    measures = [i for i, g in enumerate(gates) if g.kind == "MEASURE_Z"]
    if not measures or measures[-1] - measures[0] + 1 != len(measures):
        raise UsageError("a gadget measures in one block of MEASURE_Z gates")
    qubit_of = {gates[i].classical_bit: gates[i].qubits[0] for i in measures}
    prefix = gates[: measures[0]]
    rest = gates[measures[-1] + 1 :]
    split = max((i + 1 for i, g in enumerate(rest) if g.condition is not None), default=0)
    corrections, tail = rest[:split], rest[split:]
    sets, reads = _measured_sets(gadget)
    k = len(sets)

    out = []
    for grp in groups:
        op = grp.op.conjugate_circuit(prefix)
        probs, post = op.measure_z([[qubit_of[s] for s in st] for st in sets])
        if rng is None:  # each outcome is recorded as its parities
            drawn = [(pi, None, probs[pi]) for pi in _surviving(probs, k)]
        else:
            drawn = [_draw(probs, list(qubit_of), sets, rng)]
        for pi, bits, p in drawn:
            parities = [(int(pi) >> (k - 1 - j)) & 1 for j in range(k)]
            fires = {c: sum(parities[j] for j in js) % 2 for c, js in reads.items()}
            active = [g for g in corrections if g.condition is None or fires[id(g.condition)]]
            row = np.array(parities if bits is None else bits, dtype=np.uint8)
            outcomes = np.hstack([grp.outcomes, np.broadcast_to(row, (len(grp.probs), len(row)))])
            out.append(_Group(post(pi).conjugate_circuit(active), outcomes, grp.probs * p))
    return _merge(out), sets if rng is None else [[s] for s in qubit_of], tail


def _histories(
    groups: list[_Group], sets: list[list[int]], num_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bit history of the groups in lexicographic order, as (bits,
    probabilities, group index). A row of parities with probability p
    stands for every bit string with those parities: each set's bits but
    the last are free, the last completes the parity, and each of the 2^F
    strings (F free bits in all) has probability p 2^-F."""
    outcomes = np.concatenate([grp.outcomes for grp in groups])
    probs = np.concatenate([grp.probs for grp in groups])
    index = np.repeat(np.arange(len(groups)), [len(grp.probs) for grp in groups])
    free = [s for st in sets for s in st[:-1]]
    count = 1 << len(free)
    # row c holds the binary digits of c: one assignment of the free bits
    choices = np.unpackbits(
        np.arange(count, dtype="<u8").view(np.uint8).reshape(count, 8),
        axis=1,
        count=len(free),
        bitorder="little",
    )
    bits = np.empty((len(probs), count, num_bits), dtype=np.uint8)
    bits[:, :, free] = choices
    column = 0
    for j, st in enumerate(sets):
        span = len(st) - 1
        parity = choices[:, column : column + span].sum(axis=1, dtype=np.uint8) & 1
        bits[:, :, st[-1]] = outcomes[:, j, None] ^ parity
        column += span
    bits = bits.reshape(len(probs) * count, num_bits)
    probs = np.repeat(probs * 0.5 ** len(free), count)
    index = np.repeat(index, count)
    # packed with slot 0 as the most significant bit, so the byte columns
    # sort as the bit strings do; the last lexsort key is the primary one
    keys = np.packbits(bits, axis=1)
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(probs))
    return bits[order], probs[order], index[order]


def evaluate(
    shared: SharedState,
    script: EvaluationScript,
    mode: str = "exact",
    seed: int | None = None,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> tuple[tuple[SharedState, ...], Transcript]:
    """Run the logical script on the shares.

    Cliffords expand transversally and never branch. Each TOFFOLI consumes
    the next intact ancilla triple and broadcasts 3(n+1) measured bits; its
    gadget runs on the secret rows and that triple's R alone, and the
    triple's rows must be left at I/2, else ProtocolError. Both
    modes measure the gadget's three row parities at once; the operator
    must carry no Z pattern on the measured rows that would tell the bit
    strings of one parity outcome apart, else ProtocolError. Exact mode
    simulates each of the 8 outcomes once, standing for the 2^(3n) strings
    with its parities, and merges equal operators after the corrections.
    Sampled mode draws one string from the parity distribution with the
    mandatory non-negative seed, one generator draw per bit in slot order.

    Returns one SharedState per transcript row, in the same lexicographic
    bit order (every history that reached one merged operator holds the same
    SharedState object), and the broadcast transcript, which is the one
    record of each history's bits and probability. Slots count from 0 and
    probabilities are conditional on ``shared``, so evaluating an evaluated
    branch again records only the new bits; exact probabilities sum to 1.
    ``branch_cap`` bounds the number of histories; the gadget that exceeds
    it raises ResourceError, before any history array is built.
    """
    if mode == "sampled":
        if seed is None:
            raise UsageError("sampled mode requires a seed")
        if seed < 0:
            raise UsageError("seed must be non-negative")
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
    width = layout.s * m
    # a gadget runs on the secret rows and the one triple it consumes: an
    # (s + 3)-row layout whose triple 0 stands for that triple
    work = ShareLayout(s=layout.s, t=3, n=layout.n)
    groups = [_Group(shared.core, np.zeros((1, 0), dtype=np.uint8), np.ones(1))]
    origins: list[BitOrigin] = []
    sets: list[list[int]] = []  # every measured set, as transcript slots
    num_bits = 0
    # a gadget's trailing swap-back and the script Cliffords after it run as
    # one batch per group, before the consumed triple's rows are dropped
    pending: list[Gate] = []

    for gi, gate in enumerate(script.gates):
        if gate.kind != "TOFFOLI":
            pending.extend(transversal_expand(gate, layout).gates)
            continue
        triple = available.pop(0)
        gadget = toffoli_gadget(tuple(gate.qubits), work.ancilla_triple_rows(0), work)
        for g in gadget.gates:
            if g.kind == "MEASURE_Z":
                # a gadget measures data rows, which keep their grid numbers
                row, col = divmod(g.qubits[0], m)
                origins.append(
                    BitOrigin(
                        slot=num_bits + g.classical_bit,
                        gadget_id=gi,
                        triple=triple,
                        row=row + 1,
                        column=col + 1,
                        participant=layout.owner(col + 1),
                    )
                )
        for grp in groups:
            grp.op = _settled(grp.op, pending, width).tensor(_encoded_triple(m))
        groups, gadget_sets, pending = _run_gadget(gadget, groups, rng)
        sets += [[num_bits + s for s in st] for st in gadget_sets]
        # each row of parities stands for 2^(free bits) bit histories
        count = sum(len(grp.probs) for grp in groups) << sum(len(st) - 1 for st in sets)
        if count > branch_cap:
            raise ResourceError(
                f"exact branch enumeration reached {count} bit histories, over "
                f"the cap of {branch_cap}, in the TOFFOLI at script gate "
                f"{gi}; rerun in sampled mode or raise branch_cap"
            )
        num_bits += gadget.num_classical_bits
    for grp in groups:
        grp.op = _settled(grp.op, pending, width)

    bits, probs, op_index = _histories(groups, sets, num_bits)
    left = frozenset(available)
    merged = [SharedState(layout, grp.op, left) for grp in groups]
    states = tuple([merged[i] for i in op_index.tolist()])
    return states, Transcript(tuple(origins), bits, probs)


def _settled(op: PauliOperator, gates: Sequence[Gate], width: int) -> PauliOperator:
    """The core after ``gates``: an operator wider than ``width`` qubits
    still holds the rows of the triple its gadget consumed, past the secret
    rows, and the gadget has left them at I/2. Every term must be the
    identity there, else ProtocolError. Dropping them is a partial trace,
    which keeps every expectation value as it is."""
    op = op.conjugate_circuit(gates)
    if op.num_qubits == width:
        return op
    rows = range(width, op.num_qubits)
    clear, _ = op._identity_on(rows)
    if not clear.all():
        raise ProtocolError(
            f"{int((~clear).sum())} terms keep a non-identity letter on the rows "
            "of the consumed ancilla triple"
        )
    return op.partial_trace(rows)


# ---------------------------------------------------------------------------
# canonical secrets
# ---------------------------------------------------------------------------


def canonical_secret_family(s: int) -> list[tuple[str, PauliOperator]]:
    """All-zero, all-one and all-plus product secrets on s qubits.

    The basis secrets are built densely, so s above the dense cap is refused
    before the 2^s x 2^s outer products are allocated. |+...+> is built from
    its 2^s words in {I, X}^s, each <P> exactly 1, with no 2^(-s/2) rounding."""
    _check_cap(s, "canonical secrets")
    dim = 2**s
    zero = np.zeros(dim)
    zero[0] = 1.0
    one = np.zeros(dim)
    one[-1] = 1.0
    plus = ["".join(word) for word in itertools.product("IX", repeat=s)]
    return [
        ("|" + "0" * s + ">", PauliOperator.from_dense(np.outer(zero, zero))),
        ("|" + "1" * s + ">", PauliOperator.from_dense(np.outer(one, one))),
        ("|" + "+" * s + ">", PauliOperator.from_words(s, plus, np.ones(dim))),
    ]


# ---------------------------------------------------------------------------
# secret files
# ---------------------------------------------------------------------------


def _as_complex(value: object) -> complex:
    """A JSON number or [re, im] pair of numbers. The exact type test
    refuses a JSON true or false, which Python reads as an int, and any
    string."""
    if type(value) in (int, float):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(type(part) in (int, float) for part in value):
        return complex(*value)
    raise UsageError(f"cannot read {value!r} as a complex number")


def parse_secret(obj: dict, s: int | None = None) -> PauliOperator:
    """Secret from its JSON form: {"amplitudes": [...]} for a pure state
    (entries are numbers or [re, im] pairs) or {"pauli": {"XYZ": c}} for
    rho = sum_P c_P P, letters keyed left-to-right by row."""
    if not isinstance(obj, dict):
        raise UsageError("secret file must hold a JSON object")
    if "amplitudes" in obj:
        if not isinstance(obj["amplitudes"], list):
            raise UsageError("'amplitudes' must be a list of numbers or [re, im] pairs")
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
        # <P> = Tr(rho P) = 2^num c_P; deal refuses one that overflows as trace != 1
        coeffs = np.array([_as_complex(c) for c in words.values()])
        with np.errstate(over="ignore"):
            expectations = np.ldexp(coeffs.view(float), num).view(complex)
        op = PauliOperator.from_words(num, list(words), expectations)
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
