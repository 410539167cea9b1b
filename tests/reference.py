"""Plain reference forms and checkers the tests hold the package to.

The matrix helpers build their result entry by entry or factor by factor,
with no shared kernel, so a test can compare the package's output with
them exactly. The operator helpers stand in for constructors only the
tests need, is_column_local is the locality check the circuit tests hold
expansions to, and generic_secret is the input of the audit's enumeration
oracle.
random_density_matrix, supported_logical_kinds and random_clifford_script
draw the random secrets and Clifford scripts of the logical-action tests.
announce_distribution (criterion c10) and eq16_form_check (the form of
Eq. 16 after a Toffoli) are acceptance checks of the scheme that no
command runs.
"""

import itertools
from functools import reduce
from typing import NamedTuple

import numpy as np

from qsslab.audit import AUDIT_TOLERANCE, Coalition
from qsslab.circuits import CLIFFORD_KINDS, GATE_ARITY, Gate, column_kinds
from qsslab.dense import GATE_MATRICES
from qsslab.errors import UnsupportedGateError, UsageError
from qsslab.paulis import PauliOperator, PauliString
from qsslab.protocol import EvaluationScript, canonical_secret_family, deal, evaluate


def embedded_unitary(num_qubits, kind, qubits):
    """The 2^n x 2^n matrix of a gate acting on the given qubits, filled one
    basis column at a time (qubit 0 is the most significant index bit)."""
    mat = GATE_MATRICES[kind]
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    k = len(qubits)
    for col in range(dim):
        bits = [(col >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        sub = 0
        for q in qubits:
            sub = (sub << 1) | bits[q]
        for sub_out in range(2**k):
            amp = mat[sub_out, sub]
            if amp == 0:
                continue
            nb = bits[:]
            for j, q in enumerate(qubits):
                nb[q] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for b in nb:
                row = (row << 1) | b
            out[row, col] += amp
    return out


def circuit_unitary(num_qubits, gates):
    """Product of the embedded gate matrices, first gate rightmost."""
    u = np.eye(2**num_qubits, dtype=complex)
    for kind, qubits in gates:
        u = embedded_unitary(num_qubits, kind, qubits) @ u
    return u


def kron_matrix(ps):
    """i^phase times the Kronecker product of the letter matrices."""
    mats = [GATE_MATRICES[ps.letter(q)] for q in range(ps.num_qubits)]
    return ps.phase_factor() * reduce(np.kron, mats, np.eye(1, dtype=complex))


def column_of(layout, qubit):
    """1-based column owning a flat qubit index (qubits are row-major)."""
    if not 0 <= qubit < layout.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return qubit % layout.columns + 1


def is_column_local(circuit, layout):
    """True iff no gate touches two different columns."""
    return all(len({column_of(layout, q) for q in g.qubits}) <= 1 for g in circuit.gates)


def pauli_operator(ps, coeff=1.0):
    """The one-term operator coeff * ps."""
    return PauliOperator.from_terms(ps.num_qubits, [(ps, coeff)])


def basis_secret(s, index):
    """The computational basis state |index><index| on s qubits."""
    vec = np.zeros(2**s)
    vec[index] = 1.0
    return PauliOperator.from_dense(np.outer(vec, vec))


def maximally_mixed(num_qubits):
    """I / 2^n as a one-term operator."""
    return pauli_operator(PauliString.identity(num_qubits), 2.0**-num_qubits)


# per-qubit factor (I + 0.30 X + 0.24 Y + 0.18 Z)/2 of the generic secret:
# positive (Bloch norm < 1), trace 1, and every product word in the s-qubit
# expansion gets a nonzero coefficient
_GENERIC_WEIGHTS = {"I": 0.5, "X": 0.15, "Y": 0.12, "Z": 0.09}


def generic_secret(s):
    """Full-support product secret: every s-qubit word has a coefficient."""
    entries = []
    for word in itertools.product("IXYZ", repeat=s):
        coeff = 1.0
        for letter in word:
            coeff *= _GENERIC_WEIGHTS[letter]
        entries.append((PauliString.from_letters("".join(word)), coeff))
    return PauliOperator.from_terms(s, entries)


def random_density_matrix(num_qubits, rng):
    """Full-rank random mixed state via the Ginibre construction G G^dag / tr."""
    d = 2**num_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def supported_logical_kinds(m):
    """Logical Clifford kinds with a column-local realization at column
    count m, in CLIFFORD_KINDS order: those circuits.column_kinds accepts."""
    kinds = []
    for kind in CLIFFORD_KINDS:
        try:
            column_kinds(kind, m)
        except UnsupportedGateError:
            continue
        kinds.append(kind)
    return tuple(kinds)


def random_clifford_script(m, num_rows, length, rng):
    """Random Clifford-only script drawn from the kinds supported at column
    count m (seeded by the caller's generator)."""
    kinds = supported_logical_kinds(m)
    gates = []
    for _ in range(length):
        kind = str(rng.choice(kinds))
        arity = GATE_ARITY[kind]
        if arity > num_rows:
            # the first supported kind acts on one qubit (H or X)
            kind, arity = kinds[0], 1
        rows = rng.choice(np.arange(1, num_rows + 1), size=arity, replace=False)
        gates.append(Gate(kind, tuple(int(r) for r in rows)))
    return EvaluationScript(num_rows, tuple(gates))


def joint_distribution(transcript):
    """Probability of each tuple of broadcast bits, in bit_origins order."""
    slots = [o.slot for o in transcript.bit_origins]
    dist = {}
    for bits, p in transcript.branches:
        key = tuple(bits[s] for s in slots)
        dist[key] = dist.get(key, 0.0) + p
    return dist


class Announcements(NamedTuple):
    marginals: tuple
    max_half_deviation: float
    max_marginal_variation: float
    max_joint_variation: float
    secrets_compared: tuple


def announce_distribution(params, script, secret):
    """Exact statistics of the broadcast bits: each bit's marginal for the
    secret, its worst deviation from 1/2, and, across the secret and the
    canonical_secret_family members that differ from it, the worst variation
    of the marginals and of the joint distribution. A Clifford-only script
    announces nothing."""
    if script.toffoli_count == 0:
        return Announcements((), 0.0, 0.0, 0.0, ())
    runs = [("secret", secret)]
    runs += [(label, op) for label, op in canonical_secret_family(params.s) if op != secret]
    transcripts = [evaluate(deal(params, op), script)[1] for _, op in runs]
    slots = [o.slot for o in transcripts[0].bit_origins]
    marginals = tuple(transcripts[0].marginal(slot) for slot in slots)
    pairs = itertools.combinations([joint_distribution(tr) for tr in transcripts], 2)
    return Announcements(
        marginals,
        max(abs(p - 0.5) for p in marginals),
        max(abs(tr.marginal(slot) - p) for tr in transcripts for slot, p in zip(slots, marginals)),
        max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for a, b in pairs for k in a.keys() | b.keys()),
        tuple(label for label, _ in runs),
    )


class HonestView(NamedTuple):
    honest: str
    branches_checked: int
    max_mixedness_deviation: float
    max_bit_half_deviation: float | None
    verdict: str
    notes: tuple


def eq16_form_check(branches, honest, transcript=None, announcement=None):
    """Testable consequences of the post-evaluation form: in every branch
    the honest participant's unmeasured qubits are maximally mixed, and the
    broadcast bits are uniform (read from the announcement statistics when
    given, else from the transcript)."""
    if not branches:
        raise UsageError("no branches to check")
    layout = branches[0].layout
    columns = Coalition.parse(str(honest), layout.n).columns()
    if len(columns) != 1 or columns[0] == 1:
        raise UsageError("honest party must be one participant, e.g. 'p2'")
    (y,) = columns

    worst = 0.0
    for br in branches:
        dead_rows = {x for t in br.consumed_ancillas for x in layout.ancilla_triple_rows(t)}
        live = [layout.index_of(x, y) for x in range(1, layout.rows + 1) if x not in dead_rows]
        reduced = br.state.partial_trace([q for q in range(layout.num_qubits) if q not in live])
        for ps, c in reduced.items():
            expected = 2.0 ** -len(live) if ps.x == ps.z == 0 else 0.0
            worst = max(worst, abs(c - expected))

    notes = ()
    if announcement is not None and announcement.marginals:
        bit_dev = announcement.max_half_deviation
    elif transcript is not None and transcript.bit_origins:
        bit_dev = max(abs(transcript.marginal(o.slot) - 0.5) for o in transcript.bit_origins)
    else:
        bit_dev = None
        notes = ("no announcements: bit uniformity vacuously satisfied",)
    ok = worst <= AUDIT_TOLERANCE and (bit_dev is None or bit_dev <= AUDIT_TOLERANCE)
    return HonestView(f"p{y - 1}", len(branches), worst, bit_dev, "pass" if ok else "fail", notes)
