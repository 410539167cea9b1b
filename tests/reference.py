"""Plain reference forms and checkers the tests hold the package to.

The matrix helpers build their result entry by entry or factor by factor,
with no shared kernel, so a test can compare the package's output with
them exactly; monomial_matrix scatters a (perm, phase) pair into one,
word_monomials builds Pauli words' (perm, phase) pairs letter by letter, and
branches runs a circuit's measurement branches with full gate and projector
matrices.
The operator helpers stand in for constructors only the tests need,
coeff reads one word's coefficient, bit_planes builds the bit
planes of the Clifford kernel term by term, ladder_word is the ladder's
closed-form image written out letter by letter, ladder_sweep is
verify-ladder's symbolic sweep run one operator per width, row_kernel reads the
audit's K_C off those letters, is_column_local is the locality
check the circuit tests hold expansions to, condition_slots and parity read
a gate condition by counting slots one at a time, and generic_secret is the input
of the audit's enumeration oracle. flat_deal is the dealt grid state
expanded in one block, the form the factored SharedState.state must match,
and dense_plus_secret the all-plus secret as a dense outer product.
random_density_matrix, supported_logical_kinds and random_clifford_script
draw the random secrets and Clifford scripts of the logical-action tests.
announce_distribution (criterion c10) and eq16_form_check (the form of
Eq. 16 after a Toffoli) are acceptance checks of the scheme that no
command runs.
"""

import itertools
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from qsslab.audit import AUDIT_TOLERANCE, Coalition
from qsslab.circuits import (
    CLIFFORD_KINDS,
    GATE_ARITY,
    Circuit,
    Gate,
    column_kinds,
    expected_ladder_pauli,
    ladder_gates,
)
from qsslab.dense import GATE_MATRICES, PROBABILITY_CUTOFF, monomial_unitary
from qsslab.errors import UnsupportedGateError, UsageError
from qsslab.paulis import PauliOperator, PauliString
from qsslab.protocol import (
    EvaluationScript,
    canonical_secret_family,
    deal,
    encoding_circuit,
    evaluate,
    magic_state_operator,
)


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


def monomial_matrix(perm, phase):
    """The matrix whose column c holds phase[c] in row perm[c], zeros elsewhere."""
    u = np.zeros((perm.size, perm.size), dtype=complex)
    u[perm, np.arange(perm.size)] = phase
    return u


@cache
def _letter_monomial(letter):
    return monomial_unitary(Circuit(1, 0, (Gate(letter, (0,)),)))


def word_monomials(words):
    """Equal-width Pauli words' matrices as (perms, phases), one word per
    row: i^phase times the Kronecker product of the word's letter gates'
    one-qubit monomials, qubit 0 the most significant index bit."""
    perm = np.zeros((len(words), 1), dtype=np.intp)
    phase = np.array([[word.phase_factor()] for word in words])
    for letters in zip(*(word.letters() for word in words)):
        letter_perm, letter_phase = (np.array(part) for part in zip(*map(_letter_monomial, letters)))
        perm = (perm[:, :, None] << 1 | letter_perm[:, None]).reshape(len(words), -1)
        phase = (phase[:, :, None] * letter_phase[:, None]).reshape(len(words), -1)
    return perm, phase


def branches(circuit, amplitudes):
    """Every measurement branch of a circuit as [(bits, probability,
    post-state)]: each gate is its embedded_unitary, and measuring qubit q
    applies the projector (I +- Z_q)/2, Z_q the embedded Z, to the branch's
    unnormalised vector, whose squared norm is the branch's probability. An
    outcome of conditional probability at or under the cutoff is dropped."""
    n = circuit.num_qubits
    eye = np.eye(2**n)
    out = [((0,) * circuit.num_classical_bits, np.asarray(amplitudes, dtype=complex))]
    for gate in circuit.gates:
        nxt = []
        for bits, vec in out:
            if gate.condition is not None and not parity(gate.condition, bits):
                nxt.append((bits, vec))
            elif gate.kind != "MEASURE_Z":
                nxt.append((bits, embedded_unitary(n, gate.kind, gate.qubits) @ vec))
            else:
                z = embedded_unitary(n, "Z", gate.qubits)
                slot = gate.classical_bit
                for outcome, sign in ((0, 1), (1, -1)):
                    part = ((eye + sign * z) / 2) @ vec
                    if np.vdot(part, part).real > PROBABILITY_CUTOFF * np.vdot(vec, vec).real:
                        nxt.append((bits[:slot] + (outcome,) + bits[slot + 1 :], part))
        out = nxt
    return [(bits, np.vdot(vec, vec).real, vec / np.linalg.norm(vec)) for bits, vec in out]


def dense_error(u, images):
    """The largest entry of |U U^dag - I| and, for each letter sigma with
    image Q, of |U P - Q U| with P = sigma on qubit 0: every P and Q a
    Kronecker matrix and every product a full matrix product."""
    m = len(u).bit_length() - 1
    worst = np.max(np.abs(u @ u.conj().T - np.eye(len(u))))
    for sigma, image in images.items():
        p = kron_matrix(PauliString.from_letters(sigma + "I" * (m - 1)))
        worst = max(worst, np.max(np.abs(u @ p - kron_matrix(image) @ u)))
    return float(worst)


def ladder_word(m, sigma):
    """The image of sigma (x) I^(m-1) under the m-column ladder, spelled as
    the table of expected_ladder_pauli's docstring and parsed from letters."""
    if sigma == "I":
        return PauliString.identity(m)
    phase = 2 * (((m - 1) // 2) % 2) if sigma == "Y" else 0
    if m % 2 == 1:
        return PauliString.from_letters(sigma * m, phase)
    word = {"X": "I" + "X" * (m - 1), "Y": "Z" + "Y" * (m - 1), "Z": "Z" * m}[sigma]
    return PauliString.from_letters(word, phase)


def ladder_sweep(lo, hi, gates=ladder_gates):
    """verify-ladder's symbolic sweep one width at a time: I, X, Y and Z on
    qubit 0 as one 4-term operator, conjugated by conjugate_circuit(gates(m)),
    each letter's image looked up by its expected word. Yields (m,
    mismatches, images), images the (x, z, phase) of the stored terms in
    letter order, phase 2 for coefficient -1."""
    for m in range(lo, hi + 1):
        letters = [sigma + "I" * (m - 1) for sigma in "IXYZ"]
        image = PauliOperator.from_words(m, letters, np.ones(4)).conjugate_circuit(gates(m))
        mismatches = 4  # a lost or merged term leaves every letter unverified
        if image.num_terms == 4:
            mismatches = sum(coeff(image, expected_ladder_pauli(m, sigma)) != 1 for sigma in "IXYZ")
        images = [(ps.x, ps.z, {1: 0, -1: 2}[c]) for ps, c in image.items()]
        yield m, mismatches, images


def column_of(layout, qubit):
    """1-based column owning a flat qubit index (qubits are row-major)."""
    if not 0 <= qubit < layout.num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return qubit % layout.columns + 1


def is_column_local(circuit, layout):
    """True iff no gate touches two different columns."""
    return all(len({column_of(layout, q) for q in g.qubits}) <= 1 for g in circuit.gates)


def condition_slots(expr):
    """The slot tuple of an XOR text condition like "b0^b2": the slots read
    an odd number of times, ascending."""
    counts = {}
    for token in expr.split("^"):
        slot = int(token.removeprefix("b"))
        counts[slot] = counts.get(slot, 0) + 1
    return tuple(sorted(slot for slot, count in counts.items() if count % 2 == 1))


def parity(condition, bits):
    """Whether a slot-tuple condition fires on bits: the XOR of its slots."""
    acc = 0
    for slot in condition:
        acc ^= bits[slot]
    return acc == 1


def pauli_operator(ps, coeff=1.0):
    """The one-term operator coeff * ps."""
    return PauliOperator.from_terms(ps.num_qubits, [(ps, coeff)])


def coeff(op, word):
    """The coefficient of ``word`` (a PauliString or letters) in ``op``, the
    word's phase divided out; 0 if absent."""
    if isinstance(word, str):
        word = PauliString.from_letters(word)
    if word.num_qubits != op.num_qubits:
        raise UsageError(f"word spans {word.num_qubits} qubits, operator {op.num_qubits}")
    return op.terms.get((word.x, word.z), 0j) * word.phase_factor().conjugate()


def bit_planes(masks, num_planes):
    """The planes of Python-int masks, one bit at a time: bit i of plane q
    is bit q of masks[i]."""
    planes = [0] * num_planes
    for i, mask in enumerate(masks):
        for q in range(num_planes):
            planes[q] |= ((mask >> q) & 1) << i
    return planes


def basis_secret(s, index):
    """The computational basis state |index><index| on s qubits."""
    vec = np.zeros(2**s)
    vec[index] = 1.0
    return PauliOperator.from_dense(np.outer(vec, vec))


def maximally_mixed(num_qubits):
    """I / 2^n as a one-term operator: <I> = 1, every other <P> = 0."""
    return pauli_operator(PauliString.identity(num_qubits), 1.0)


# per-qubit factor (I + 0.30 X + 0.24 Y + 0.18 Z)/2 of the generic secret,
# as expectation values: positive (Bloch norm < 1), trace 1, and every
# product word in the s-qubit expansion gets a nonzero coefficient
_GENERIC_WEIGHTS = {"I": 1.0, "X": 0.30, "Y": 0.24, "Z": 0.18}


def generic_secret(s):
    """Full-support product secret: every s-qubit word has a coefficient."""
    entries = []
    for word in itertools.product("IXYZ", repeat=s):
        coeff = 1.0
        for letter in word:
            coeff *= _GENERIC_WEIGHTS[letter]
        entries.append((PauliString.from_letters("".join(word)), coeff))
    return PauliOperator.from_terms(s, entries)


def row_kernel(params, coalition):
    """K_C letter by letter: each letter whose ladder_word is I on every
    honest column, mapped to its letters on the coalition's columns."""
    m, columns = params.n + 1, coalition.columns
    kernel = {}
    for sigma in "IXYZ":
        image = ladder_word(m, sigma).letters()
        if all(image[y - 1] == "I" for y in range(1, m + 1) if y not in columns):
            kernel[sigma] = "".join(image[y - 1] for y in columns)
    return kernel


def tagged_residuals(params, coalition):
    """(|K_C|^s - 1) R_C^budget, with K_C from row_kernel and R_C counted
    by reading each magic-state word's letters and keeping it when all lie
    in K_C."""
    kernel = row_kernel(params, coalition)
    kept = sum(set(ps.letters()) <= kernel.keys() for ps, _ in magic_state_operator().items())
    return (len(kernel) ** params.s - 1) * kept**params.budget


def flat_deal(params, secret):
    """The dealt grid state built in one block: the secret and one magic
    state per triple on the dealer's column, every other qubit I/2,
    tensored in row order and then encoded by the ladder on every row."""
    layout = params.layout()
    m = layout.columns

    def on_dealer_column(rows):
        width = rows.num_qubits * m
        return rows.embedded(width, range(0, width, m))

    block = on_dealer_column(secret)
    for _ in range(params.t // 3):
        block = block.tensor(on_dealer_column(magic_state_operator()))
    return block.conjugate_circuit(encoding_circuit(layout).gates)


def dense_plus_secret(s):
    """|+...+><+...+| on s qubits from 2^(-s/2) amplitudes, expanded densely."""
    plus = np.full(2**s, 2 ** (-s / 2))
    return PauliOperator.from_dense(np.outer(plus, plus))


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
    columns = Coalition.parse(str(honest), layout.n).columns
    if len(columns) != 1 or columns[0] == 1:
        raise UsageError("honest party must be one participant, e.g. 'p2'")
    (y,) = columns

    worst = 0.0
    for br in branches:
        dead_rows = {x for t in br.consumed_ancillas for x in layout.ancilla_triple_rows(t)}
        live = [layout.index_of(x, y) for x in range(1, layout.rows + 1) if x not in dead_rows]
        reduced = br.state.partial_trace([q for q in range(layout.num_qubits) if q not in live])
        for ps, c in reduced.items():
            expected = 1.0 if ps.x == ps.z == 0 else 0.0
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
