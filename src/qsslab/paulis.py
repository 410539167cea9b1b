"""Sparse Pauli-basis operator algebra with bit-packed strings.

A Pauli word on N qubits is stored as two N-bit integers (x, z): bit q of x
set means the letter on qubit q has an X component, bit q of z a Z component.
Letter table per qubit:

    (x, z) = (0, 0) -> I     (1, 0) -> X     (1, 1) -> Y     (0, 1) -> Z

Y is the standard Hermitian Pauli, Y = i|1><0| - i|0><1| = i X Z. A string
carries a global phase i^phase (phase mod 4); Hermitian strings have an even
phase. Qubit 0 is the leftmost tensor factor everywhere in this package.

Operators (class:`PauliOperator`) are sparse maps from *phase-free* words to
complex coefficients; the i^phase of a string is folded into its coefficient,
so a Hermitian operator has exactly one real entry per physical Pauli.
Multiplication runs on the packed integers via symplectic bit arithmetic.

Clifford conjugation runs on bit planes: a run of Clifford gates unpacks the
term keys once into per-qubit boolean arrays x[q] and z[q] over all T terms,
turns each gate into a few whole-array XOR/AND operations on the planes it
touches plus a sign mask, and packs the keys back once. A Clifford relabels
words bijectively, so keys keep their order and coefficients are only
negated; the result equals gate-by-gate application exactly. Any qubit count
works, including the 101-column ladder check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotation only
    from .circuits import Gate

from .dense import DENSE_CAP
from .errors import ProtocolError, ResourceError, UsageError

LETTERS = ("I", "X", "Y", "Z")

# Letter <-> (x, z) bit pair. Index order I, X, Y, Z is fixed package-wide.
_BITS_OF = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {v: k for k, v in _BITS_OF.items()}

#: relative pruning tolerance: after branching operations, terms with
#: |coeff| < PRUNE_TOL * max|coeff| are treated as exact-zero cancellations
#: and dropped. Relative, not absolute: a global state on N qubits has
#: coefficients scaled by 2^-N, and an absolute cutoff would silently delete
#: genuine terms once N grows past ~36.
PRUNE_TOL = 1e-12

#: relative tolerance of approx_equal: two operators with the same words are
#: equal when no coefficient differs by more than EQUAL_TOL times the larger
#: of their biggest |coeff|
EQUAL_TOL = 1e-12

_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# stacked basis for tensor-network style to/from_dense: _BASIS[l, a, b]
_BASIS = np.stack([_MATS[l] for l in LETTERS])


def _bit(mask: int, q: int) -> int:
    return (mask >> q) & 1


@dataclass(frozen=True)
class PauliString:
    """i^phase times an N-qubit Pauli word, packed as (x, z) bit masks."""

    num_qubits: int
    x: int = 0
    z: int = 0
    phase: int = 0  # exponent of i, mod 4

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise UsageError("negative qubit count")
        mask = (1 << self.num_qubits) - 1
        object.__setattr__(self, "x", self.x & mask)
        object.__setattr__(self, "z", self.z & mask)
        object.__setattr__(self, "phase", self.phase % 4)

    @staticmethod
    def identity(num_qubits: int) -> PauliString:
        return PauliString(num_qubits)

    @staticmethod
    def from_letters(letters: str, phase: int = 0) -> PauliString:
        """Build from a word like ``"XIZY"`` (qubit 0 is the first character)."""
        x = z = 0
        for q, letter in enumerate(letters):
            try:
                xb, zb = _BITS_OF[letter]
            except KeyError:
                raise UsageError(f"unknown Pauli letter {letter!r}") from None
            x |= xb << q
            z |= zb << q
        return PauliString(len(letters), x, z, phase)

    @staticmethod
    def single(num_qubits: int, qubit: int, letter: str, phase: int = 0) -> PauliString:
        if not 0 <= qubit < num_qubits:
            raise UsageError(f"qubit {qubit} out of range for {num_qubits}")
        xb, zb = _BITS_OF[letter]
        return PauliString(num_qubits, xb << qubit, zb << qubit, phase)

    def letter(self, q: int) -> str:
        return _LETTER_OF[(_bit(self.x, q), _bit(self.z, q))]

    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(self.num_qubits))

    @property
    def key(self) -> tuple[int, int]:
        """Phase-free map key of this word."""
        return (self.x, self.z)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def _check_len(self, other: PauliString) -> None:
        if self.num_qubits != other.num_qubits:
            raise UsageError(
                f"length mismatch: {self.num_qubits} vs {other.num_qubits}"
            )

    def __mul__(self, other: PauliString) -> PauliString:
        """Operator product, with the exact accumulated i^k phase.

        Per qubit, writing a letter as i^(x&z) X^x Z^z, the product picks up
        i^(x1z1 + x2z2 - x3z3) * (-1)^(z1x2) with (x3, z3) = (x1^x2, z1^z2);
        summed over qubits via popcounts.
        """
        self._check_len(other)
        x3 = self.x ^ other.x
        z3 = self.z ^ other.z
        k = (
            (self.x & self.z).bit_count()
            + (other.x & other.z).bit_count()
            - (x3 & z3).bit_count()
            + 2 * (self.z & other.x).bit_count()
        )
        return PauliString(self.num_qubits, x3, z3, (self.phase + other.phase + k) % 4)

    def tensor(self, other: PauliString) -> PauliString:
        return PauliString(
            self.num_qubits + other.num_qubits,
            self.x | (other.x << self.num_qubits),
            self.z | (other.z << self.num_qubits),
            self.phase + other.phase,
        )

    def phase_factor(self) -> complex:
        return 1j ** (self.phase % 4)

    def to_matrix(self) -> np.ndarray:
        if self.num_qubits > DENSE_CAP:
            raise ResourceError(f"dense cap {DENSE_CAP} exceeded")
        mats = [_MATS[self.letter(q)] for q in range(self.num_qubits)]
        out = reduce(np.kron, mats, np.eye(1, dtype=complex))
        return self.phase_factor() * out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase % 4]
        return f"{sign}{self.letters()}"


Key = tuple[int, int]


def _real_probability(prob: complex) -> float:
    if abs(prob.imag) >= 1e-9:
        raise ProtocolError(
            f"measurement probability {prob} is not real; the operator is not Hermitian"
        )
    return float(prob.real)


@dataclass(frozen=True)
class PauliOperator:
    """Sparse Hermitian-friendly operator: sum of coeff * phase-free word."""

    num_qubits: int
    terms: Mapping[Key, complex] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(num_qubits: int) -> PauliOperator:
        return PauliOperator(num_qubits, {})

    @staticmethod
    def from_terms(
        num_qubits: int,
        entries: Iterable[tuple[PauliString, complex]],
    ) -> PauliOperator:
        terms: dict[Key, complex] = {}
        for ps, coeff in entries:
            if ps.num_qubits != num_qubits:
                raise UsageError("term length mismatch")
            c = coeff * ps.phase_factor()
            terms[ps.key] = terms.get(ps.key, 0j) + c
        return PauliOperator(num_qubits, terms)._pruned()

    @staticmethod
    def from_string(ps: PauliString, coeff: complex = 1.0) -> PauliOperator:
        return PauliOperator.from_terms(ps.num_qubits, [(ps, coeff)])

    @staticmethod
    def maximally_mixed(num_qubits: int) -> PauliOperator:
        return PauliOperator(num_qubits, {(0, 0): 2.0 ** -num_qubits})

    # -- inspection --------------------------------------------------------

    def coeff(self, word: str | PauliString) -> complex:
        if isinstance(word, str):
            word = PauliString.from_letters(word)
        return self.terms.get(word.key, 0j) * word.phase_factor().conjugate()

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        for (x, z), c in self.terms.items():
            yield PauliString(self.num_qubits, x, z), c

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def trace(self) -> complex:
        return self.terms.get((0, 0), 0j) * 2**self.num_qubits

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= PRUNE_TOL for c in self.terms.values())

    def approx_equal(self, other: PauliOperator) -> bool:
        """Same words and every coefficient within EQUAL_TOL of the larger
        operator's biggest |coeff|. Decided term by term, never by a hash of
        the coefficients."""
        if self.num_qubits != other.num_qubits or self.terms.keys() != other.terms.keys():
            return False
        if not self.terms:
            return True
        scale = max(
            max(abs(c) for c in self.terms.values()),
            max(abs(c) for c in other.terms.values()),
        )
        tol = EQUAL_TOL * scale
        theirs = other.terms
        return all(abs(c - theirs[k]) <= tol for k, c in self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _pruned(self) -> PauliOperator:
        if not self.terms:
            return self
        biggest = max(abs(c) for c in self.terms.values())
        if biggest == 0.0:
            return PauliOperator(self.num_qubits, {})
        tol = PRUNE_TOL * biggest
        terms = {k: c for k, c in self.terms.items() if abs(c) >= tol}
        return PauliOperator(self.num_qubits, terms)

    def scaled(self, factor: complex) -> PauliOperator:
        return PauliOperator(
            self.num_qubits, {k: c * factor for k, c in self.terms.items()}
        )._pruned()

    def add(self, other: PauliOperator) -> PauliOperator:
        if self.num_qubits != other.num_qubits:
            raise UsageError("qubit count mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0j) + c
        return PauliOperator(self.num_qubits, terms)._pruned()

    def tensor(self, other: PauliOperator) -> PauliOperator:
        shift = self.num_qubits
        terms: dict[Key, complex] = {}
        for (xa, za), ca in self.terms.items():
            for (xb, zb), cb in other.terms.items():
                k = (xa | (xb << shift), za | (zb << shift))
                terms[k] = terms.get(k, 0j) + ca * cb
        return PauliOperator(self.num_qubits + other.num_qubits, terms)._pruned()

    # -- Clifford conjugation ---------------------------------------------

    def conjugate_clifford(self, gate: "Gate") -> PauliOperator:
        """Apply U . U^dag for a Clifford gate: a bijective relabeling of
        words with +-1 signs, so the term count, trace and Hermiticity are
        untouched. The one-gate case of the bit-plane kernel."""
        return self._conjugate_cliffords((gate,))

    def conjugate_circuit(self, gates: Iterable["Gate"]) -> PauliOperator:
        """Conjugate by a gate list: each maximal run of Cliffords goes to the
        bit-plane kernel in one call, each TOFFOLI to conjugate_toffoli."""
        op = self
        run: list[Gate] = []
        for g in gates:
            if g.kind == "TOFFOLI":
                op = op._conjugate_cliffords(run).conjugate_toffoli(g.qubits)
                run = []
            else:
                run.append(g)
        return op._conjugate_cliffords(run)

    def _conjugate_cliffords(self, gates: Sequence["Gate"]) -> PauliOperator:
        """Conjugate by a run of Clifford gates on bit planes.

        Every gate is validated before any work. The keys are unpacked once
        into boolean planes x[q], z[q] over the terms, each gate updates the
        planes it touches and a per-term sign mask, and the keys are packed
        back once. Sign rules are stated on input bits; all were verified
        against the dense 4x4/8x8 conjugation oracle (see tests).
        """
        n = self.num_qubits
        for g in gates:
            if g.kind == "TOFFOLI":
                raise UsageError("TOFFOLI is not Clifford; use conjugate_toffoli")
            if g.kind not in _CLIFFORD_KINDS:
                raise UsageError(f"unsupported Clifford kind {g.kind!r}")
            for q in g.qubits:
                if not 0 <= q < n:
                    raise UsageError(f"qubit {q} out of range")
        count = len(self.terms)
        if not gates or not count:
            return self
        # one row of little-endian bytes per term, x then z, each padded to
        # whole 64-bit words; gates never touch the padding planes
        width = (n + 63) // 64  # 64-bit words per mask
        raw = b"".join(
            [
                x.to_bytes(8 * width, "little") + z.to_bytes(8 * width, "little")
                for x, z in self.terms
            ]
        )
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(count, 16 * width)
        planes = np.unpackbits(np.ascontiguousarray(rows.T), axis=0, bitorder="little")
        x = list(planes[: 64 * width].view(bool))
        z = list(planes[64 * width :].view(bool))
        sign = np.zeros(count, dtype=bool)
        for g in gates:
            kind = g.kind
            if kind == "CNOT":
                c, t = g.qubits
                sign ^= x[c] & z[t] & ~(x[t] ^ z[c])  # X(x)Z / Y(x)Y pick up -1
                x[t] ^= x[c]
                z[c] ^= z[t]
                continue
            if kind == "CZ":
                a, b = g.qubits
                sign ^= x[a] & x[b] & (z[a] ^ z[b])
                z[a] ^= x[b]
                z[b] ^= x[a]
                continue
            (q,) = g.qubits
            if kind == "H":
                sign ^= x[q] & z[q]  # Y -> -Y
                x[q], z[q] = z[q], x[q]
            elif kind == "S":
                sign ^= x[q] & z[q]  # Y -> -X
                z[q] ^= x[q]
            elif kind == "Sdg":
                sign ^= x[q] & ~z[q]  # X -> -Y
                z[q] ^= x[q]
            elif kind == "X":
                sign ^= z[q]
            elif kind == "Y":
                sign ^= x[q] ^ z[q]
            else:  # Z
                sign ^= x[q]
        # back to rows of little-endian uint64 words, then to Python ints
        packed = np.packbits(np.stack(x + z, axis=1), axis=1, bitorder="little").view("<u8")
        ints = packed[:, ::width].astype(object)
        for w in range(1, width):
            ints |= packed[:, w::width].astype(object) << (64 * w)
        new_keys = list(zip(*ints.T.tolist()))
        coeffs = list(self.terms.values())
        for i in np.flatnonzero(sign).tolist():
            coeffs[i] = -coeffs[i]
        return PauliOperator(n, dict(zip(new_keys, coeffs)))

    # -- Toffoli conjugation ------------------------------------------------

    def conjugate_toffoli(self, qubits: tuple[int, int, int]) -> PauliOperator:
        """Conjugate by the doubly-controlled NOT on (c1, c2, t).

        Non-Clifford: each word maps to a sum of at most 8 words (table
        precomputed once from the dense 8x8 oracle; coefficients are exact
        dyadic rationals). Trace and Hermiticity are preserved; near-zero
        cancellations are pruned.
        """
        c1, c2, t = qubits
        if len({c1, c2, t}) != 3:
            raise UsageError("Toffoli qubits must be distinct")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise UsageError(f"qubit {q} out of range")
        table = _toffoli_table()
        terms: dict[Key, complex] = {}
        for (x, z), c in self.terms.items():
            triple = (
                (_bit(x, c1), _bit(z, c1)),
                (_bit(x, c2), _bit(z, c2)),
                (_bit(x, t), _bit(z, t)),
            )
            base_x = x & ~((1 << c1) | (1 << c2) | (1 << t))
            base_z = z & ~((1 << c1) | (1 << c2) | (1 << t))
            for (b1, b2, b3), w in table[triple]:
                nx = base_x | (b1[0] << c1) | (b2[0] << c2) | (b3[0] << t)
                nz = base_z | (b1[1] << c1) | (b2[1] << c2) | (b3[1] << t)
                terms[(nx, nz)] = terms.get((nx, nz), 0j) + c * w
        return PauliOperator(self.num_qubits, terms)._pruned()

    # -- partial trace / measurement ----------------------------------------

    def partial_trace(self, traced: Iterable[int]) -> PauliOperator:
        """Trace out qubits: a term survives iff it is identity on every
        traced qubit (traceless letters kill it), gaining a factor
        2^len(traced); remaining qubits keep their order.
        """
        traced_set = set(traced)
        for q in traced_set:
            if not 0 <= q < self.num_qubits:
                raise UsageError(f"qubit {q} out of range")
        kept = [q for q in range(self.num_qubits) if q not in traced_set]
        kill = 0
        for q in traced_set:
            kill |= 1 << q
        factor = 2.0 ** len(traced_set)
        terms: dict[Key, complex] = {}
        for (x, z), c in self.terms.items():
            if (x | z) & kill:
                continue
            nx = 0
            nz = 0
            for i, q in enumerate(kept):
                nx |= _bit(x, q) << i
                nz |= _bit(z, q) << i
            terms[(nx, nz)] = terms.get((nx, nz), 0j) + c * factor
        return PauliOperator(len(kept), terms)._pruned()

    def reset_to_mixed(self, qubits: Iterable[int]) -> PauliOperator:
        """Replace the marginal on the given qubits by I/2 each, i.e.
        Tr_qs(rho) (x) (I/2)^len(qs) reinserted in place: every term with a
        non-identity letter there is dropped, masks unchanged.

        Used to store measured-out qubits compactly; the measurement outcome
        itself lives in the caller's classical record, so no information is
        lost from the pair (state, record).
        """
        mask = 0
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise UsageError(f"qubit {q} out of range")
            mask |= 1 << q
        terms = {k: c for k, c in self.terms.items() if not ((k[0] | k[1]) & mask)}
        return PauliOperator(self.num_qubits, terms)

    def project_z(self, qubit: int, outcome: int) -> tuple[float, PauliOperator]:
        """Projective Z measurement: returns (tr(Pi_b rho), Pi_b rho Pi_b).

        The returned operator is unnormalized; the caller divides by the
        probability. Words with X/Y on the qubit are annihilated; I/Z words
        split into (word + (-1)^b word*Z_q)/2.
        """
        if not 0 <= qubit < self.num_qubits:
            raise UsageError(f"qubit {qubit} out of range")
        if outcome not in (0, 1):
            raise UsageError("outcome must be 0 or 1")
        sign = -1.0 if outcome else 1.0
        zbit = 1 << qubit
        terms: dict[Key, complex] = {}
        for (x, z), c in self.terms.items():
            if x & zbit:  # X or Y on the measured qubit: Pi P Pi = 0
                continue
            terms[(x, z)] = terms.get((x, z), 0j) + c / 2
            k = (x, z ^ zbit)
            terms[k] = terms.get(k, 0j) + sign * c / 2
        post = PauliOperator(self.num_qubits, terms)._pruned()
        return _real_probability(post.trace()), post

    def measure_z(
        self, qubit: int
    ) -> tuple[tuple[float, PauliOperator | None], tuple[float, PauliOperator | None]]:
        """Both outcomes of a Z measurement in one pass over the terms.

        Entry b is (p_b, state_b): the probability of outcome b and the
        normalised post-measurement state with the qubit reset to I/2, equal
        to project_z(qubit, b) -> scaled(1 / p_b) -> reset_to_mixed((qubit,)).
        The state is None when p_b is not positive.

        After the reset only words with I on the qubit remain, and word k
        collects c(k)/2 + (-1)^b c(k Z_q)/2. Its Z_q partner in project_z's
        output has the same |coeff|, so the relative prune reads the same
        largest term; scaling by 1/p_b > 0 cannot change a relative prune.
        """
        if not 0 <= qubit < self.num_qubits:
            raise UsageError(f"qubit {qubit} out of range")
        zbit = 1 << qubit
        acc0: dict[Key, complex] = {}
        acc1: dict[Key, complex] = {}
        for key, c in self.terms.items():
            x, z = key
            if x & zbit:  # X or Y on the measured qubit: Pi P Pi = 0
                continue
            if z & zbit:
                # project_z's own sign * c / 2, so the sums agree bit for bit
                k = (x, z ^ zbit)
                c0, c1 = 1.0 * c / 2, -1.0 * c / 2
            else:
                k = key
                c0 = c1 = c / 2
            acc0[k] = acc0.get(k, 0j) + c0
            acc1[k] = acc1.get(k, 0j) + c1
        return self._measured(acc0), self._measured(acc1)

    def _measured(self, acc: dict[Key, complex]) -> tuple[float, PauliOperator | None]:
        """Prune one outcome of measure_z, read its probability and normalise."""
        biggest = max(map(abs, acc.values()), default=0.0)
        if biggest == 0.0:
            return 0.0, None
        tol = PRUNE_TOL * biggest
        ident = acc.get((0, 0), 0j)
        p = _real_probability((ident if abs(ident) >= tol else 0j) * 2**self.num_qubits)
        if p <= 0.0:
            return p, None
        factor = 1 / p
        terms = {k: c * factor for k, c in acc.items() if abs(c) >= tol}
        return p, PauliOperator(self.num_qubits, terms)

    def trace_distance(self, other: PauliOperator) -> float:
        """Half the trace norm of self - other, from the eigenvalues of the
        dense difference (to_dense's cap applies); 0.0 when no term differs."""
        diff = self.add(other.scaled(-1.0))
        if diff.num_terms == 0:
            return 0.0
        eigs = np.linalg.eigvalsh(diff.to_dense())
        return 0.5 * float(np.abs(eigs).sum())

    # -- dense bridge --------------------------------------------------------

    def to_dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        if self.num_qubits > cap:
            raise ResourceError(
                f"to_dense refused: {self.num_qubits} qubits exceeds cap {cap}"
            )
        n = self.num_qubits
        if n == 0:
            return np.array([[sum(self.terms.values(), 0j)]])
        coeffs = np.zeros((4,) * n, dtype=complex)
        for (x, z), c in self.terms.items():
            idx = tuple(
                {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1) : 3}[(_bit(x, q), _bit(z, q))]
                for q in range(n)
            )
            coeffs[idx] = c
        out = coeffs
        # contract letter axes front-to-back; each step appends (row, col)
        for _ in range(n):
            out = np.tensordot(out, _BASIS, axes=([0], [0]))
        # axes now (r0, c0, r1, c1, ...) -> (r..., c...)
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return out.transpose(perm).reshape(2**n, 2**n)

    @staticmethod
    def from_dense(rho: np.ndarray, cap: int = DENSE_CAP) -> PauliOperator:
        """Expansion with coefficient 2^-N tr(P rho) per word P."""
        dim = rho.shape[0]
        n = int(dim).bit_length() - 1
        if rho.shape != (dim, dim) or 2**n != dim:
            raise UsageError("density matrix shape must be (2^N, 2^N)")
        if n > cap:
            raise ResourceError(f"from_dense refused: {n} qubits exceeds cap {cap}")
        t = np.ascontiguousarray(rho.T).reshape((2,) * (2 * n))
        # interleave to (r0, c0, r1, c1, ...)
        perm: list[int] = []
        for q in range(n):
            perm += [q, n + q]
        t = t.transpose(perm)
        for _ in range(n):
            # contract leading (row, col) pair with the basis stack
            t = np.tensordot(t, _BASIS, axes=([0, 1], [1, 2]))
        t = t / 2**n
        terms: dict[Key, complex] = {}
        flat = t.reshape(-1)
        peak = float(np.max(np.abs(flat))) if flat.size else 0.0
        tol = PRUNE_TOL * peak
        for flat_idx, c in enumerate(flat):
            if abs(c) <= tol:
                continue
            x = z = 0
            rem = flat_idx
            # axis order after the loop is qubit 0 first
            for q in range(n):
                letter = (rem // 4 ** (n - 1 - q)) % 4
                xb, zb = _BITS_OF[LETTERS[letter]]
                x |= xb << q
                z |= zb << q
            terms[(x, z)] = complex(c)
        return PauliOperator(n, terms)


SINGLE_QUBIT_CLIFFORDS = ("H", "S", "Sdg", "X", "Y", "Z")
TWO_QUBIT_CLIFFORDS = ("CNOT", "CZ")
_CLIFFORD_KINDS = frozenset(SINGLE_QUBIT_CLIFFORDS + TWO_QUBIT_CLIFFORDS)


@cache
def _toffoli_table() -> dict[tuple, tuple]:
    """Map each 3-qubit letter triple to its conjugated Pauli expansion.

    Built once from the dense 8x8 matrix; the doubly-controlled NOT is real
    orthogonal, so Hermitian words map to real combinations.
    """
    tof = np.eye(8, dtype=complex)
    tof[6, 6] = tof[7, 7] = 0.0
    tof[6, 7] = tof[7, 6] = 1.0
    pairs = [(0, 0), (1, 0), (1, 1), (0, 1)]  # I, X, Y, Z
    table: dict[tuple, tuple] = {}
    for i1, p1 in enumerate(pairs):
        for i2, p2 in enumerate(pairs):
            for i3, p3 in enumerate(pairs):
                mat = reduce(
                    np.kron,
                    (_MATS[LETTERS[i1]], _MATS[LETTERS[i2]], _MATS[LETTERS[i3]]),
                )
                conj = tof @ mat @ tof
                entries = []
                for j1, q1 in enumerate(pairs):
                    for j2, q2 in enumerate(pairs):
                        for j3, q3 in enumerate(pairs):
                            basis = reduce(
                                np.kron,
                                (
                                    _MATS[LETTERS[j1]],
                                    _MATS[LETTERS[j2]],
                                    _MATS[LETTERS[j3]],
                                ),
                            )
                            w = np.trace(basis @ conj) / 8
                            if abs(w) > 1e-13:
                                entries.append(((q1, q2, q3), complex(w)))
                if not 1 <= len(entries) <= 8:
                    raise ProtocolError(
                        f"Toffoli conjugation of {LETTERS[i1]}{LETTERS[i2]}{LETTERS[i3]} "
                        f"gave {len(entries)} words, expected 1..8"
                    )
                table[(p1, p2, p3)] = tuple(entries)
    return table
