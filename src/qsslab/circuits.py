"""Circuit and layout vocabulary.

Gates are immutable records; a circuit is an ordered gate list over flat
qubit indices plus classical bit slots. The share layout maps the protocol's
(row, column) grid onto flat indices row-major: ``index_of(x, y) =
(x-1)*(columns) + (y-1)`` with 1-based rows/columns, column 1 held by the
dealer (Alice) and column y by participant y-1.

The file format (one JSON object per line) is::

    {"g": "CNOT", "q": [0, 3]}

A file holds unitary gates only: scripts measure nothing, so a line with a
``c`` (classical bit) or ``cond`` (condition) key, or a MEASURE_Z gate, is
refused as it is read. Conditions are XOR combinations of previously written
classical bits; a gate holds its condition as the tuple of bit slots the XOR
reads.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from typing import Sequence

from .dense import GATE_MATRICES
from .errors import UnsupportedGateError, UsageError
from .paulis import SINGLE_QUBIT_CLIFFORDS, TWO_QUBIT_CLIFFORDS, PauliString

GATE_ARITY = {
    kind: mat.shape[0].bit_length() - 1 for kind, mat in GATE_MATRICES.items()
} | {"MEASURE_Z": 1}

CLIFFORD_KINDS = SINGLE_QUBIT_CLIFFORDS + TWO_QUBIT_CLIFFORDS


class Gate(namedtuple("Gate", "kind qubits classical_bit condition")):
    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        qubits: tuple[int, ...],
        classical_bit: int | None = None,
        condition: tuple[int, ...] | None = None,  # distinct bit slots, XORed
    ) -> Gate:
        if kind not in GATE_ARITY:
            raise UsageError(f"unknown gate kind {kind!r}")
        qs = tuple(qubits)
        if len(qs) != GATE_ARITY[kind]:
            raise UsageError(f"{kind} takes {GATE_ARITY[kind]} qubits, got {len(qs)}")
        if len(set(qs)) != len(qs):
            raise UsageError(f"{kind} qubits must be distinct")
        if kind == "MEASURE_Z":
            if classical_bit is None:
                raise UsageError("MEASURE_Z needs a classical bit slot")
            if condition is not None:
                raise UsageError("measurements cannot be conditioned")
        elif classical_bit is not None:
            raise UsageError("only MEASURE_Z writes a classical bit")
        if condition is not None and not isinstance(condition, tuple):
            raise UsageError(f"a condition is a slot tuple, not {type(condition).__name__}")
        return super().__new__(cls, kind, qs, classical_bit, condition)


class Circuit:
    def __init__(self, num_qubits: int, num_classical_bits: int = 0, gates: tuple[Gate, ...] = ()) -> None:
        self.num_qubits = num_qubits
        self.num_classical_bits = num_classical_bits
        self.gates = tuple(gates)
        written: set[int] = set()
        # written slots only grow, so a condition object that passed once
        # passes at every later gate sharing it
        checked: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise UsageError(f"gate {g.kind} touches qubit {q}, out of range")
            if g.condition is not None and id(g.condition) not in checked:
                checked.add(id(g.condition))
                if len(set(g.condition)) != len(g.condition):
                    raise UsageError(f"condition {g.condition!r} repeats a bit slot")
                for slot in g.condition:
                    if slot not in written:
                        raise UsageError(
                            f"condition {g.condition!r} reads bit b{slot} before it is written"
                        )
            if g.kind == "MEASURE_Z":
                if not 0 <= g.classical_bit < self.num_classical_bits:
                    raise UsageError(f"classical bit b{g.classical_bit} out of range")
                written.add(g.classical_bit)

    def inverse(self) -> Circuit:
        """Inverse of a measurement-free Clifford+Toffoli circuit."""
        inv = {"S": "Sdg", "Sdg": "S"}
        gates = []
        for g in reversed(self.gates):
            if g.kind == "MEASURE_Z" or g.condition is not None:
                raise UsageError("cannot invert measurements or conditioned gates")
            gates.append(Gate(inv.get(g.kind, g.kind), g.qubits))
        return Circuit(self.num_qubits, 0, tuple(gates))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def gates_from_lines(text: str) -> list[Gate]:
    gates = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise UsageError(f"line {ln}: not valid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or "g" not in obj or "q" not in obj:
            raise UsageError(f"line {ln}: expected keys 'g' and 'q'")
        kind, qubits = str(obj["g"]), obj["q"]
        if "c" in obj or "cond" in obj or kind == "MEASURE_Z":
            raise UsageError(f"line {ln}: scripts hold unitary gates only, not MEASURE_Z, 'c' or 'cond'")
        # a JSON true is a Python int, and 1.7 would truncate to 1
        if not isinstance(qubits, list) or any(type(q) is not int for q in qubits):
            raise UsageError(f"line {ln}: 'q' must be a list of integers")
        try:
            gates.append(Gate(kind, tuple(qubits)))
        except UsageError as exc:
            raise UsageError(f"line {ln}: {exc}") from None
    return gates


# ---------------------------------------------------------------------------
# the encoding ladder and its closed-form conjugation
# ---------------------------------------------------------------------------


@cache
def _ladder_cnots(j: int) -> tuple[Gate, Gate]:
    """Column j's fan-out CNOT (0 -> j) and fan-in CNOT (j -> 0). Every
    ladder of more than j columns holds the same two gates, so each is built
    once and shared across widths."""
    return Gate("CNOT", (0, j)), Gate("CNOT", (j, 0))


def ladder_gates(m: int) -> tuple[Gate, ...]:
    """Per-row encoding unitary on m qubits: CNOT fan-out from qubit 0 to
    each other qubit, then CNOT fan-in from each back onto qubit 0 —
    2(m-1) gates in total. The fan-out half equals the block map
    |0><0| (x) I^(m-1) + |1><1| (x) X^(m-1)."""
    if m < 2:
        raise UsageError("the ladder needs at least 2 qubits")
    fan_out, fan_in = zip(*(_ladder_cnots(j) for j in range(1, m)))
    return fan_out + fan_in


@cache
def ladder_circuit(m: int) -> Circuit:
    """ladder_gates(m) as a circuit. Nothing writes a circuit after it is
    built, so each width is built and validated once per process."""
    return Circuit(m, 0, ladder_gates(m))


@cache
def ladder_fanout_circuit(m: int) -> Circuit:
    """The fan-out half alone (used by the lemma checks)."""
    if m < 2:
        raise UsageError("the ladder needs at least 2 qubits")
    return Circuit(m, 0, tuple(_ladder_cnots(j)[0] for j in range(1, m)))


def expected_ladder_pauli(m: int, sigma: str) -> PauliString:
    """Closed form of conjugating sigma (x) I^(m-1) through the ladder.

    With the Hermitian Y convention the Y image carries a real sign,
    (-1)^floor((m-1)/2): phase 0 for m = 1, 2 (mod 4), phase 2 (a minus
    sign) for m = 3, 0 (mod 4). X and Z images are phase-free.

      odd m:   X -> X^m,  Y -> +-Y^m,        Z -> Z^m
      even m:  X -> I (x) X^(m-1),  Y -> +-Z (x) Y^(m-1),  Z -> Z^m

    The masks follow from conjugation being linear over GF(2): Y is X times
    Z up to phase, so Y's image takes its x mask from X's image and its z
    mask from Z's. X reaches every column but the dealer's (bit 0) at even
    m, and Z reaches every column.
    """
    if m < 1:
        raise UsageError("m must be positive")
    if sigma not in ("I", "X", "Y", "Z"):
        raise UsageError(f"unknown Pauli letter {sigma!r}")
    every = (1 << m) - 1
    x = (every if m % 2 else every - 1) if sigma in "XY" else 0
    z = every if sigma in "YZ" else 0
    phase = 2 * (((m - 1) // 2) % 2) if sigma == "Y" else 0
    return PauliString(m, x, z, phase)


def magic_state_circuit() -> Circuit:
    """Prepares (|000> + |010> + |100> + |111>)/2 from |000>."""
    return Circuit(
        3,
        0,
        (Gate("H", (0,)), Gate("H", (1,)), Gate("TOFFOLI", (0, 1, 2))),
    )


# ---------------------------------------------------------------------------
# share layout
# ---------------------------------------------------------------------------


class ShareLayout(namedtuple("ShareLayout", "s t n")):
    """(s+t) x (n+1) qubit grid; rows are logical slots, columns are parties.

    n = 0 (a single column, no co-participants) is admitted as the degenerate
    plaintext layout used by gadget oracle checks; the protocol proper
    requires n >= 1.
    """

    __slots__ = ()

    def __new__(cls, s: int, t: int, n: int) -> ShareLayout:
        if s < 1 or t < 0 or n < 0:
            raise UsageError("layout needs s >= 1, t >= 0, n >= 0")
        return super().__new__(cls, s, t, n)

    @property
    def rows(self) -> int:
        return self.s + self.t

    @property
    def columns(self) -> int:
        return self.n + 1

    @property
    def num_qubits(self) -> int:
        return self.rows * self.columns

    def index_of(self, x: int, y: int) -> int:
        if not 1 <= x <= self.rows:
            raise UsageError(f"row {x} out of range 1..{self.rows}")
        if not 1 <= y <= self.columns:
            raise UsageError(f"column {y} out of range 1..{self.columns}")
        return (x - 1) * self.columns + (y - 1)

    def row_qubits(self, x: int) -> tuple[int, ...]:
        return tuple(self.index_of(x, y) for y in range(1, self.columns + 1))

    def column_qubits(self, y: int) -> tuple[int, ...]:
        return tuple(self.index_of(x, y) for x in range(1, self.rows + 1))

    def owner(self, y: int) -> str:
        if not 1 <= y <= self.columns:
            raise UsageError(f"column {y} out of range")
        return "alice" if y == 1 else f"p{y - 1}"

    def ancilla_triple_rows(self, triple: int) -> tuple[int, int, int]:
        """Rows of the ``triple``-th (0-based) auxiliary block."""
        if self.t % 3 != 0:
            raise UsageError("ancilla rows do not form triples")
        if not 0 <= triple < self.t // 3:
            raise UsageError(f"no ancilla triple {triple}")
        base = self.s + 3 * triple
        return (base + 1, base + 2, base + 3)


# ---------------------------------------------------------------------------
# transversal expansion of logical gates
# ---------------------------------------------------------------------------

_EVEN_UNSUPPORTED = (
    "no column-local realization of logical {kind} exists when the column "
    "count m = n+1 is even: the encoded X carries identity on the dealer's "
    "column while the encoded Z carries Z there, and per-column operations "
    "preserve 'identity on a column', so the required exchange is impossible"
)


@cache
def column_kinds(kind: str, m: int) -> tuple[str, ...]:
    """The gate each of the m columns applies, on its qubits of the row (or
    of both rows for CNOT and CZ), to realize a logical Clifford; "I" marks
    a column left alone. The one parity rule of column-local evaluation:

      I, X, Y, Z: the letters of expected_ladder_pauli(m, kind) at every m,
              since an encoded Pauli is its ladder image (signs are global);
      CNOT:   a uniform copy at every m: the ladder is the same GF(2)-linear
              map on every row, so a column-wise XOR of rows commutes with it;
      H, S, Sdg, CZ: uniform copies at odd m, with S and Sdg swapped at
              m = 3 (mod 4), where the encoded Y flips sign. Even m has none:
              see _EVEN_UNSUPPORTED.
    """
    if kind in ("I", "X", "Y", "Z"):
        return tuple(expected_ladder_pauli(m, kind).letters())
    if kind not in CLIFFORD_KINDS:
        raise UsageError(f"{kind} is not a logical Clifford gate")
    if kind != "CNOT":
        if m % 2 == 0:
            raise UnsupportedGateError(_EVEN_UNSUPPORTED.format(kind=kind))
        if m % 4 == 3:
            kind = {"S": "Sdg", "Sdg": "S"}.get(kind, kind)
    return (kind,) * m


def _row_gates(
    kind: str, rows: Sequence[int], layout: ShareLayout, condition: tuple[int, ...] | None = None
) -> list[Gate]:
    """Column-local gates realizing logical ``kind`` on the given rows, each
    carrying ``condition``; identity columns emit nothing."""
    return [
        Gate(col_kind, tuple(layout.index_of(r, y) for r in rows), condition=condition)
        for y, col_kind in enumerate(column_kinds(kind, layout.columns), start=1)
        if col_kind != "I"
    ]


def transversal_expand(logical_gate: Gate, layout: ShareLayout) -> Circuit:
    """Expand a logical Clifford on rows into column-local share gates.

    Never emits a gate touching two different columns. Logical qubit indices
    are 1-based rows in 1..s.
    """
    kind = logical_gate.kind
    if kind == "TOFFOLI":
        raise UsageError("TOFFOLI is not transversal here; use toffoli_gadget")
    rows = logical_gate.qubits
    for r in rows:
        if not 1 <= r <= layout.s:
            raise UsageError(f"logical row {r} out of range 1..{layout.s}")
    return Circuit(layout.num_qubits, 0, tuple(_row_gates(kind, rows, layout)))


# ---------------------------------------------------------------------------
# the Toffoli gadget
# ---------------------------------------------------------------------------


@cache
def toffoli_gadget(
    data_rows: tuple[int, int, int],
    ancilla_rows: tuple[int, int, int],
    layout: ShareLayout,
) -> Circuit:
    """Share-level doubly-controlled NOT on logical rows (c1, c2, t) by
    teleporting through an encoded (|000>+|010>+|100>+|111>)/2 triple.

    Only column-local Cliffords, per-qubit Z measurements and broadcast-bit
    conditioned Clifford corrections are emitted:

      1. transversal CNOT a1 -> c1 and a2 -> c2, transversal CNOT t -> a3;
      2. rows c1, c2 measured qubit-wise in Z; row t measured qubit-wise in
         X (per-qubit H then Z); one broadcast bit per qubit, laid out
         row-major (c1's columns, then c2's, then t's);
      3. each logical outcome is the XOR of the row's m broadcast bits;
         corrections: b(c1) -> X(a1), CNOT(a2->a3); b(c2) -> X(a2),
         CNOT(a1->a3); b(t) -> Z(a3), CZ(a1, a2);
      4. ancilla rows are swapped back onto the data rows (three transversal
         CNOTs per pair), leaving the consumed rows in broadcast basis
         states.

    The CZ correction step has no column-local form when m = n+1 is even
    (raises UnsupportedGateError); the plaintext m = 1 and all odd-m cases
    are exact on every measurement branch. Each gadget is built once per
    process.
    """
    m = layout.columns
    try:
        column_kinds("CZ", m)
    except UnsupportedGateError as exc:
        raise UnsupportedGateError(f"the gadget's CZ correction step: {exc}") from None
    c1, c2, t = data_rows
    a1, a2, a3 = ancilla_rows
    if len({c1, c2, t, a1, a2, a3}) != 6:
        raise UsageError("data and ancilla rows must be six distinct rows")
    for r in data_rows:
        if not 1 <= r <= layout.s:
            raise UsageError(f"data row {r} out of range 1..{layout.s}")
    for r in ancilla_rows:
        if not layout.s < r <= layout.rows:
            raise UsageError(f"ancilla row {r} out of range {layout.s + 1}..{layout.rows}")

    gates = _row_gates("CNOT", (a1, c1), layout)
    gates += _row_gates("CNOT", (a2, c2), layout)
    gates += _row_gates("CNOT", (t, a3), layout)
    # X-basis readout of row t: rotate each qubit, then measure everything
    for y in range(1, m + 1):
        gates.append(Gate("H", (layout.index_of(t, y),)))
    cond = {}
    for i, row in enumerate((c1, c2, t)):
        # one slot tuple per row, shared by all of the row's corrections
        cond[row] = tuple(range(i * m, (i + 1) * m))
        for y, bit in enumerate(cond[row], start=1):
            gates.append(Gate("MEASURE_Z", (layout.index_of(row, y),), classical_bit=bit))

    gates += _row_gates("X", (a1,), layout, cond[c1])
    gates += _row_gates("CNOT", (a2, a3), layout, cond[c1])
    gates += _row_gates("X", (a2,), layout, cond[c2])
    gates += _row_gates("CNOT", (a1, a3), layout, cond[c2])
    gates += _row_gates("Z", (a3,), layout, cond[t])
    gates += _row_gates("CZ", (a1, a2), layout, cond[t])
    # swap the teleported rows back onto the data rows
    for anc, dat in ((a1, c1), (a2, c2), (a3, t)):
        gates += _row_gates("CNOT", (anc, dat), layout)
        gates += _row_gates("CNOT", (dat, anc), layout)
        gates += _row_gates("CNOT", (anc, dat), layout)
    return Circuit(layout.num_qubits, 3 * m, tuple(gates))
