"""Sparse Pauli-basis operator algebra on packed words.

A Pauli word on N qubits is two N-bit masks (x, z): bit q of x set means the
letter on qubit q has an X component, bit q of z a Z component. Letter table
per qubit:

    (x, z) = (0, 0) -> I     (1, 0) -> X     (1, 1) -> Y     (0, 1) -> Z

Y is the standard Hermitian Pauli, Y = i|1><0| - i|0><1| = i X Z. A string
(class:`PauliString`) holds its masks as Python ints and carries a global
phase i^phase (phase mod 4); Hermitian strings have an even phase. Qubit 0
is the leftmost tensor factor everywhere in this package.

An operator (class:`PauliOperator`) is a sum of coefficients times distinct
*phase-free* words; the i^phase of a string is folded into its coefficient,
so a Hermitian operator has exactly one real entry per physical Pauli. It is
stored as arrays: the x and z masks of the T words as uint64 rows of shape
(T, ceil(N/64)), bit q in word q // 64 at position q % 64 (any N works,
including the 101-column ladder check), and a complex128 vector of the T
coefficients. Every operation is a handful of whole-array steps:

- a run of Clifford gates bit-transposes the word rows once (64 x 64 bit
  blocks, as in Stim) into per-qubit planes of T bits, turns each gate into
  XOR/AND operations on the planes it touches plus a sign plane, and
  transposes back once; a Clifford relabels words bijectively, so the word
  order is kept and coefficients are only negated;
- the merging operations (Z projection and measurement, add, from_terms)
  emit candidate rows and merge equal words in one grouping pass: a stable
  lexsort, then per-group sums in candidate order, so each output word
  accumulates its contributions in the order a term-by-term loop would;
- partial_trace is a mask test plus a bit compaction, which is injective on
  the surviving words, so nothing is summed; tensor is a broadcast.

These are the Gottesman-Knill operations: the engine has no non-Clifford
gate. A logical Toffoli reaches the shares only as the measured magic-state
gadget, a Clifford circuit with Z measurements.

Words are kept in order of first appearance, the order a term-by-term loop
filling a dict would produce; equality (``==``, approx_equal) compares word
sets and does not depend on that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotation only
    from .circuits import Gate

from .dense import DENSE_CAP, GATE_MATRICES
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

# stacked letter matrices for tensor-network style to/from_dense: _BASIS[l, a, b]
_BASIS = np.stack([GATE_MATRICES[l] for l in LETTERS])

# index into LETTERS of the letter with bits (x, z), looked up at x + 2 z
_LETTER_INDEX = np.array([0, 1, 3, 2])

_WORD_MASK = (1 << 64) - 1


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

    def letter(self, q: int) -> str:
        return _LETTER_OF[(_bit(self.x, q), _bit(self.z, q))]

    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(self.num_qubits))

    def phase_factor(self) -> complex:
        return 1j ** (self.phase % 4)

    def _signed_permutation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix's nonzero entries as (rows, cols, vals), one per column.

        With Y = i X Z the string is i^(phase + |x & z|) X^x Z^z, so column c
        (qubit 0 the most significant index bit) has its one entry in row
        c ^ x, equal to i^(phase + |x & z|) (-1)^|z & c|.
        """
        if self.num_qubits > DENSE_CAP:
            raise ResourceError(f"dense cap {DENSE_CAP} exceeded")
        n = self.num_qubits
        cols = np.arange(2**n)
        flip = 0
        parity = np.zeros(2**n, dtype=np.intp)
        for q in range(n):
            bit = n - 1 - q
            flip |= _bit(self.x, q) << bit
            if _bit(self.z, q):
                parity ^= (cols >> bit) & 1
        unit = (1, 1j, -1, -1j)[(self.phase + (self.x & self.z).bit_count()) % 4]
        return cols ^ flip, cols, unit * (1 - 2 * parity).astype(complex)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase % 4]
        return f"{sign}{self.letters()}"


# -- packed words --------------------------------------------------------------


def _num_words(num_qubits: int) -> int:
    """uint64 words per mask; at least one, so a 0-qubit word is a row too."""
    return max(1, (num_qubits + 63) // 64)


def _words_of(masks: Sequence[int], width: int) -> np.ndarray:
    """Python-int masks -> (T, width) uint64 rows, low word first."""
    rows = [[(v >> (64 * w)) & _WORD_MASK for w in range(width)] for v in masks]
    return np.array(rows, dtype=np.uint64).reshape(-1, width)


def _masks_of(words: np.ndarray) -> list[int]:
    """(T, W) uint64 rows -> Python-int masks."""
    ints = words[:, 0].astype(object)
    for w in range(1, words.shape[1]):
        ints |= words[:, w].astype(object) << (64 * w)
    return ints.tolist()


def _unpack(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """(T, W) uint64 rows -> (T, num_qubits) uint8 bits, qubit q in column q."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=num_qubits, bitorder="little")


def _pack(bits: np.ndarray, width: int) -> np.ndarray:
    """(T, k) bits -> (T, width) uint64 rows; the bits past column k are 0."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw = np.zeros((bits.shape[0], 8 * width), dtype=np.uint8)
    raw[:, : packed.shape[1]] = packed
    return raw.view("<u8").astype(np.uint64, copy=False)


def _select(words: np.ndarray, num_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """New word rows holding the bits of ``qubits``, in that order."""
    return _pack(_unpack(words, num_qubits)[:, qubits], _num_words(len(qubits)))


def _column(qubit: int) -> tuple[int, np.uint64]:
    """Word index and bit mask of one qubit."""
    return qubit >> 6, np.uint64(1 << (qubit & 63))


# (shift j, mask) of each swap stage of a 64 x 64 bit-matrix transpose: the
# stage swaps bit j of the row index with bit j of the bit index; the mask
# selects the bit positions with bit j clear
_TRANSPOSE_STAGES = [
    (np.uint64(j), np.uint64(sum(1 << p for p in range(64) if not p & j)))
    for j in (32, 16, 8, 4, 2, 1)
]


def _transpose64(blocks: np.ndarray) -> None:
    """Transpose in place the 64 x 64 bit matrix blocks[k, :, b] for every k
    and b of a C-contiguous (K, 64, B) uint64 array: bit c of word r becomes
    bit r of word c. B is the innermost axis, so every step is a whole-array
    operation on contiguous runs."""
    count, _, inner = blocks.shape
    for shift, mask in _TRANSPOSE_STAGES:
        j = int(shift)
        pairs = blocks.reshape(count, 32 // j, 2, j, inner)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        swap = ((lo >> shift) ^ hi) & mask
        hi ^= swap
        lo ^= swap << shift


def _planes(x: np.ndarray, z: np.ndarray) -> tuple[list[int], list[int]]:
    """Word rows -> bit planes: for each of the 64W mask bits q of x and of z,
    a T-bit Python int whose bit i is bit q of term i's word. The terms are
    padded to whole 64-term blocks, and each block is bit-transposed."""
    count, width = x.shape
    blocks = -(-count // 64)
    rows = np.zeros((2 * width, 64 * blocks), dtype=np.uint64)
    rows[:width, :count] = x.T
    rows[width:, :count] = z.T
    # [mask word, term within block, block], then [mask word, bit, block]
    words = rows.reshape(2 * width, blocks, 64).transpose(0, 2, 1).copy()
    _transpose64(words)
    raw = words.astype("<u8", copy=False).tobytes()
    size = 8 * blocks
    ints = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return ints[: 64 * width], ints[64 * width :]


def _words_from_planes(x: list[int], z: list[int], count: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _planes: the (T, W) x and z word rows of ``count`` terms."""
    width = len(x) // 64
    blocks = -(-count // 64)
    size = 8 * blocks
    raw = b"".join(plane.to_bytes(size, "little") for plane in x + z)
    words = np.frombuffer(raw, dtype="<u8").reshape(2 * width, 64, blocks).astype(np.uint64)
    _transpose64(words)
    rows = words.transpose(0, 2, 1).reshape(2 * width, 64 * blocks)[:, :count]
    return np.ascontiguousarray(rows[:width].T), np.ascontiguousarray(rows[width:].T)


def _is_zero(words: np.ndarray) -> np.ndarray:
    """Per row: no bit set in any of its words."""
    out = words[:, 0] == 0
    for w in range(1, words.shape[1]):
        out &= words[:, w] == 0
    return out


def _sort_order(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stable order sorting the rows of (x, z) by their words."""
    return np.lexsort(tuple(z.T[::-1]) + tuple(x.T[::-1]))


def _group(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal (x, z) rows: returns (first, inverse), where first[g] is
    the first row of group g, groups numbered in order of first appearance,
    and inverse[i] the group of row i."""
    count = x.shape[0]
    if not count:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = _sort_order(x, z)
    starts = np.zeros(count, dtype=bool)
    starts[0] = True
    for words in (x, z):
        for column in words.T:
            column = column[order]
            starts[1:] |= column[1:] != column[:-1]
    leaders = order[starts]  # the first row of each group: the sort is stable
    is_first = np.zeros(count, dtype=bool)
    is_first[leaders] = True
    rank = np.cumsum(is_first) - 1  # a leader's rank among leaders, by row
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = rank[leaders][np.cumsum(starts) - 1]
    return np.flatnonzero(is_first), inverse


def _sum_groups(inverse: np.ndarray, values: np.ndarray, groups: int) -> np.ndarray:
    """Per-group sums, each accumulated in row order from 0."""
    out = np.empty(groups, dtype=complex)
    out.real = np.bincount(inverse, weights=values.real, minlength=groups)
    out.imag = np.bincount(inverse, weights=values.imag, minlength=groups)
    return out


def _product(a: np.ndarray, b: complex | np.ndarray) -> np.ndarray:
    """a * b rounded as Python's complex product: four real products, then
    one subtraction and one addition, each rounded. numpy's vectorized
    complex multiply may fuse them and differ in the last bit."""
    b = np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _magnitudes(coeffs: np.ndarray) -> np.ndarray:
    """|c| per coefficient, rounded as Python's abs(complex) rounds it (libm
    hypot); numpy's vectorized complex absolute value can differ in the last
    bit, which would move terms across the prune boundary."""
    return np.hypot(coeffs.real, coeffs.imag)


def _real_probability(prob: complex) -> float:
    if abs(prob.imag) >= 1e-9:
        raise ProtocolError(
            f"measurement probability {prob} is not real; the operator is not Hermitian"
        )
    return float(prob.real)


@dataclass(frozen=True, eq=False)
class PauliOperator:
    """Sparse Hermitian-friendly operator: sum of coeff * phase-free word.

    ``x`` and ``z`` are (T, ceil(N/64)) uint64 word rows of T distinct words,
    with no bit set at or above ``num_qubits``; ``coeffs`` holds their T
    complex coefficients. The arrays are shared between operators and never
    written after construction. Build operators through the constructors
    below; ``==`` is exact equality of the word sets and coefficients.
    """

    num_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero(num_qubits: int) -> PauliOperator:
        empty = np.zeros((0, _num_words(num_qubits)), dtype=np.uint64)
        return PauliOperator(num_qubits, empty, empty, np.zeros(0, dtype=complex))

    @staticmethod
    def from_terms(
        num_qubits: int,
        entries: Iterable[tuple[PauliString, complex]],
    ) -> PauliOperator:
        xs: list[int] = []
        zs: list[int] = []
        cs: list[complex] = []
        for ps, coeff in entries:
            if ps.num_qubits != num_qubits:
                raise UsageError("term length mismatch")
            xs.append(ps.x)
            zs.append(ps.z)
            cs.append(coeff * ps.phase_factor())
        width = _num_words(num_qubits)
        return PauliOperator._merged(
            num_qubits, _words_of(xs, width), _words_of(zs, width), np.array(cs, dtype=complex)
        )._pruned()

    @staticmethod
    def _merged(num_qubits: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> PauliOperator:
        """Candidate rows with repeated words summed, in first-appearance order."""
        first, inverse = _group(x, z)
        return PauliOperator(
            num_qubits, x[first], z[first], _sum_groups(inverse, coeffs, first.size)
        )

    def _with(self, keep: np.ndarray) -> PauliOperator:
        """The terms where ``keep`` holds."""
        return PauliOperator(self.num_qubits, self.x[keep], self.z[keep], self.coeffs[keep])

    # -- inspection --------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    @cached_property
    def terms(self) -> Mapping[tuple[int, int], complex]:
        """Read-only map from (x, z) int masks to coefficient, built on first
        use; iteration follows the stored word order."""
        keys = zip(_masks_of(self.x), _masks_of(self.z))
        return MappingProxyType(dict(zip(keys, self.coeffs.tolist())))

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        n = self.num_qubits
        for x, z, c in zip(_masks_of(self.x), _masks_of(self.z), self.coeffs.tolist()):
            yield PauliString(n, x, z), c

    def _row_of(self, x: int, z: int) -> int | None:
        width = self.x.shape[1]
        hit = np.flatnonzero(
            _is_zero(self.x ^ _words_of([x], width)) & _is_zero(self.z ^ _words_of([z], width))
        )
        return int(hit[0]) if hit.size else None

    def coeff(self, word: str | PauliString) -> complex:
        """Coefficient of ``word`` (its phase divided out); 0 if absent."""
        if isinstance(word, str):
            word = PauliString.from_letters(word)
        if word.num_qubits != self.num_qubits:
            raise UsageError(f"word spans {word.num_qubits} qubits, operator {self.num_qubits}")
        row = self._row_of(word.x, word.z)
        c = 0j if row is None else complex(self.coeffs[row])
        return c * word.phase_factor().conjugate()

    def trace(self) -> complex:
        row = self._row_of(0, 0)
        return (0j if row is None else complex(self.coeffs[row])) * 2**self.num_qubits

    @property
    def is_hermitian(self) -> bool:
        return bool(np.all(np.abs(self.coeffs.imag) <= PRUNE_TOL))

    @cached_property
    def _canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Words and coefficients sorted by word, for order-blind comparison."""
        order = _sort_order(self.x, self.z)
        return self.x[order], self.z[order], self.coeffs[order]

    def _aligned(self, other: PauliOperator) -> tuple[np.ndarray, np.ndarray] | None:
        """Both coefficient vectors in one word order, or None when the
        qubit counts or word sets differ."""
        if self.num_qubits != other.num_qubits or self.num_terms != other.num_terms:
            return None
        xa, za, ca = self._canonical
        xb, zb, cb = other._canonical
        if not (np.array_equal(xa, xb) and np.array_equal(za, zb)):
            return None
        return ca, cb

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        pair = self._aligned(other)
        return pair is not None and bool(np.array_equal(*pair))

    def approx_equal(self, other: PauliOperator) -> bool:
        """Same words and every coefficient within EQUAL_TOL of the larger
        operator's biggest |coeff|. Decided term by term, never by a hash of
        the coefficients."""
        pair = self._aligned(other)
        if pair is None:
            return False
        ca, cb = pair
        if not ca.size:
            return True
        tol = EQUAL_TOL * max(_magnitudes(ca).max(), _magnitudes(cb).max())
        return bool(_magnitudes(ca - cb).max() <= tol)

    # -- arithmetic --------------------------------------------------------

    def _pruned(self) -> PauliOperator:
        if not self.num_terms:
            return self
        mags = _magnitudes(self.coeffs)
        biggest = mags.max()
        if biggest == 0.0:
            return PauliOperator.zero(self.num_qubits)
        keep = mags >= PRUNE_TOL * biggest
        return self if keep.all() else self._with(keep)

    def scaled(self, factor: complex) -> PauliOperator:
        product = _product(self.coeffs, factor)
        return PauliOperator(self.num_qubits, self.x, self.z, product)._pruned()

    def add(self, other: PauliOperator) -> PauliOperator:
        if self.num_qubits != other.num_qubits:
            raise UsageError("qubit count mismatch")
        return PauliOperator._merged(
            self.num_qubits,
            np.concatenate([self.x, other.x]),
            np.concatenate([self.z, other.z]),
            np.concatenate([self.coeffs, other.coeffs]),
        )._pruned()

    def embedded(self, num_qubits: int, positions: Sequence[int]) -> PauliOperator:
        """This operator with its qubit i placed at ``positions[i]`` of a
        ``num_qubits`` register, identity elsewhere; coefficients unchanged."""
        positions = list(positions)
        if len(positions) != self.num_qubits or len(set(positions)) != len(positions):
            raise UsageError("embedding needs one distinct position per qubit")
        for q in positions:
            if not 0 <= q < num_qubits:
                raise UsageError(f"qubit {q} out of range")
        width = _num_words(num_qubits)
        words = []
        for src in (self.x, self.z):
            bits = np.zeros((self.num_terms, num_qubits), dtype=np.uint8)
            bits[:, positions] = _unpack(src, self.num_qubits)
            words.append(_pack(bits, width))
        return PauliOperator(num_qubits, words[0], words[1], self.coeffs)

    def tensor(self, other: PauliOperator) -> PauliOperator:
        """self (x) other: other's qubits follow self's. Words on disjoint
        qubits never collide, so the product pairs are the terms."""
        n = self.num_qubits + other.num_qubits
        a = self.embedded(n, range(self.num_qubits))
        b = other.embedded(n, range(self.num_qubits, n))
        width = a.x.shape[1]
        return PauliOperator(
            n,
            (a.x[:, None, :] | b.x[None, :, :]).reshape(-1, width),
            (a.z[:, None, :] | b.z[None, :, :]).reshape(-1, width),
            _product(a.coeffs[:, None], b.coeffs[None, :]).reshape(-1),
        )._pruned()

    # -- Clifford conjugation ---------------------------------------------

    # stays for perfbench/tracing.py, which wraps it by name, until the tracer is retargeted
    def conjugate_clifford(self, gate: "Gate") -> PauliOperator:
        """Apply U . U^dag for a Clifford gate: a bijective relabeling of
        words with +-1 signs, so the term count, trace and Hermiticity are
        untouched. The one-gate case of the bit-plane kernel."""
        return self._conjugate_cliffords((gate,))

    def conjugate_circuit(self, gates: Iterable["Gate"]) -> PauliOperator:
        """Conjugate by a list of Clifford gates in one bit-plane kernel call.
        A TOFFOLI is refused: on shares a logical Toffoli runs only as the
        measured magic-state gadget (circuits.toffoli_gadget)."""
        return self._conjugate_cliffords(list(gates))

    def _conjugate_cliffords(self, gates: Sequence["Gate"]) -> PauliOperator:
        """Conjugate by a run of Clifford gates on bit planes.

        Every gate is validated before any work. The word rows are
        bit-transposed once into planes x[q], z[q], each a T-bit int holding
        bit q of every term, so a gate is a few XOR/AND operations on the
        planes it touches plus a T-bit sign mask, whatever T is; the planes
        are transposed back into word rows once. Sign rules are stated on
        input bits; all were verified against the dense 4x4/8x8 conjugation
        oracle (see tests).
        """
        n = self.num_qubits
        for g in gates:
            if g.kind == "TOFFOLI":
                raise UsageError(
                    "TOFFOLI is not Clifford; a logical Toffoli runs on shares as the "
                    "measured gadget (circuits.toffoli_gadget)"
                )
            if g.kind not in _CLIFFORD_KINDS:
                raise UsageError(f"unsupported Clifford kind {g.kind!r}")
            for q in g.qubits:
                if not 0 <= q < n:
                    raise UsageError(f"qubit {q} out of range")
        count = self.num_terms
        if not gates or not count:
            return self
        x, z = _planes(self.x, self.z)
        sign = 0
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
        new_x, new_z = _words_from_planes(x, z, count)
        flip = np.unpackbits(
            np.frombuffer(sign.to_bytes(8 * -(-count // 64), "little"), dtype=np.uint8),
            count=count,
            bitorder="little",
        ).view(bool)
        return PauliOperator(n, new_x, new_z, np.where(flip, -self.coeffs, self.coeffs))

    # -- partial trace / measurement ----------------------------------------

    def _identity_on(self, qubits: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Validated, deduplicated qubits and the mask of terms with I on all
        of them."""
        qs = sorted(set(qubits))
        for q in qs:
            if not 0 <= q < self.num_qubits:
                raise UsageError(f"qubit {q} out of range")
        mask = _words_of([sum(1 << q for q in qs)], self.x.shape[1])
        return _is_zero((self.x | self.z) & mask), qs

    def partial_trace(self, traced: Iterable[int]) -> PauliOperator:
        """Trace out qubits: a term survives iff it is identity on every
        traced qubit (traceless letters kill it), gaining a factor
        2^len(traced); remaining qubits keep their order. Distinct survivors
        stay distinct once the traced (identity) letters are dropped.
        """
        keep, traced_qs = self._identity_on(traced)
        traced_set = set(traced_qs)
        kept = [q for q in range(self.num_qubits) if q not in traced_set]
        return PauliOperator(
            len(kept),
            _select(self.x[keep], self.num_qubits, kept),
            _select(self.z[keep], self.num_qubits, kept),
            self.coeffs[keep] * 2.0 ** len(traced_set),
        )._pruned()

    # stays for perfbench/tracing.py, which wraps it by name, until the tracer is retargeted
    def reset_to_mixed(self, qubits: Iterable[int]) -> PauliOperator:
        """Replace the marginal on the given qubits by I/2 each, i.e.
        Tr_qs(rho) (x) (I/2)^len(qs) reinserted in place: every term with a
        non-identity letter there is dropped, words unchanged.

        Used to store measured-out qubits compactly; the measurement outcome
        itself lives in the caller's classical record, so no information is
        lost from the pair (state, record).
        """
        keep, _ = self._identity_on(qubits)
        return self._with(keep)

    def _z_split(self, qubit: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Projection onto each Z outcome of a qubit, before pruning: the
        words k with I on the qubit, and for outcome b the coefficient
        c(k)/2 + (-1)^b c(k Z_q)/2 of k (k Z_q gets (-1)^b times it). Words
        with X/Y on the qubit are annihilated."""
        if not 0 <= qubit < self.num_qubits:
            raise UsageError(f"qubit {qubit} out of range")
        w, bit = _column(qubit)
        keep = (self.x[:, w] & bit) == 0
        x = self.x[keep]
        z = self.z[keep]
        has_z = (z[:, w] & bit) != 0
        z[:, w] &= ~bit
        first, inverse = _group(x, z)
        half = self.coeffs[keep] / 2
        sums = [_sum_groups(inverse, v, first.size) for v in (half, np.where(has_z, -half, half))]
        return x[first], z[first], sums

    # stays for perfbench/tracing.py, which wraps it by name, until the tracer is retargeted
    def project_z(self, qubit: int, outcome: int) -> tuple[float, PauliOperator]:
        """Projective Z measurement: returns (tr(Pi_b rho), Pi_b rho Pi_b).

        The returned operator is unnormalized; the caller divides by the
        probability. Words with X/Y on the qubit are annihilated; I/Z words
        split into (word + (-1)^b word*Z_q)/2.
        """
        if outcome not in (0, 1):
            raise UsageError("outcome must be 0 or 1")
        x, z, sums = self._z_split(qubit)
        w, bit = _column(qubit)
        flipped = z.copy()
        flipped[:, w] |= bit
        acc = sums[outcome]
        post = PauliOperator(
            self.num_qubits,
            np.concatenate([x, x]),
            np.concatenate([z, flipped]),
            np.concatenate([acc, -acc if outcome else acc]),
        )._pruned()
        return _real_probability(post.trace()), post

    def measure_z(
        self, qubit: int
    ) -> tuple[tuple[float, PauliOperator | None], tuple[float, PauliOperator | None]]:
        """Both outcomes of a Z measurement in one grouping pass.

        Entry b is (p_b, state_b): the probability of outcome b and the
        normalised post-measurement state with the qubit reset to I/2, equal
        to project_z(qubit, b) -> scaled(1 / p_b) -> reset_to_mixed((qubit,)).
        The state is None when p_b is not positive. A word and its Z_q
        partner in project_z's output have the same |coeff|, so the relative
        prune reads the same largest term; scaling by 1/p_b > 0 cannot
        change a relative prune.
        """
        x, z, sums = self._z_split(qubit)
        return self._measured(x, z, sums[0]), self._measured(x, z, sums[1])

    def _measured(
        self, x: np.ndarray, z: np.ndarray, acc: np.ndarray
    ) -> tuple[float, PauliOperator | None]:
        """Prune one outcome of measure_z, read its probability and normalise."""
        mags = _magnitudes(acc)
        biggest = mags.max(initial=0.0)
        if biggest == 0.0:
            return 0.0, None
        keep = mags >= PRUNE_TOL * biggest
        ident = np.flatnonzero(_is_zero(x | z) & keep)
        p = _real_probability(
            (complex(acc[ident[0]]) if ident.size else 0j) * 2**self.num_qubits
        )
        if p <= 0.0:
            return p, None
        return p, PauliOperator(self.num_qubits, x[keep], z[keep], acc[keep] * (1 / p))

    def trace_distance(self, other: PauliOperator) -> float:
        """Half the trace norm of self - other, from the eigenvalues of the
        dense difference (to_dense's cap applies); 0.0 when no term differs."""
        diff = self.add(other.scaled(-1.0))
        if diff.num_terms == 0:
            return 0.0
        eigs = np.linalg.eigvalsh(diff.to_dense())
        return 0.5 * float(np.abs(eigs).sum())

    # -- dense bridge --------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        if self.num_qubits > DENSE_CAP:
            raise ResourceError(
                f"to_dense refused: {self.num_qubits} qubits exceeds cap {DENSE_CAP}"
            )
        n = self.num_qubits
        if n == 0:
            return np.array([[self.coeffs.sum()]], dtype=complex)
        # coefficient tensor over letter axes (qubit 0 first), filled at each
        # word's flat index sum_q letter_q 4^(n-1-q)
        letters = _LETTER_INDEX[_unpack(self.x, n) + 2 * _unpack(self.z, n)]
        flat = letters @ (4 ** np.arange(n - 1, -1, -1))
        coeffs = np.zeros(4**n, dtype=complex)
        coeffs[flat] = self.coeffs
        out = coeffs.reshape((4,) * n)
        # contract letter axes front-to-back; each step appends (row, col)
        for _ in range(n):
            out = np.tensordot(out, _BASIS, axes=([0], [0]))
        # axes now (r0, c0, r1, c1, ...) -> (r..., c...)
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return out.transpose(perm).reshape(2**n, 2**n)

    @staticmethod
    def from_dense(rho: np.ndarray) -> PauliOperator:
        """Expansion with coefficient 2^-N tr(P rho) per word P."""
        dim = rho.shape[0]
        n = int(dim).bit_length() - 1
        if rho.shape != (dim, dim) or 2**n != dim:
            raise UsageError("density matrix shape must be (2^N, 2^N)")
        if n > DENSE_CAP:
            raise ResourceError(f"from_dense refused: {n} qubits exceeds cap {DENSE_CAP}")
        t = np.ascontiguousarray(rho.T).reshape((2,) * (2 * n))
        # interleave to (r0, c0, r1, c1, ...)
        perm: list[int] = []
        for q in range(n):
            perm += [q, n + q]
        t = t.transpose(perm)
        for _ in range(n):
            # contract leading (row, col) pair with the basis stack
            t = np.tensordot(t, _BASIS, axes=([0, 1], [1, 2]))
        flat = (t / 2**n).reshape(-1)
        mags = _magnitudes(flat)
        peak = float(mags.max()) if flat.size else 0.0
        found = np.flatnonzero(mags > PRUNE_TOL * peak)
        # axis order after the loop is qubit 0 first: digit q of the flat
        # index is qubit q's letter
        digits = (found[:, None] // 4 ** np.arange(n - 1, -1, -1)) % 4
        width = _num_words(n)
        return PauliOperator(
            n,
            _pack((digits == 1) | (digits == 2), width),
            _pack((digits == 2) | (digits == 3), width),
            flat[found].astype(complex),
        )


SINGLE_QUBIT_CLIFFORDS = ("H", "S", "Sdg", "X", "Y", "Z")
TWO_QUBIT_CLIFFORDS = ("CNOT", "CZ")
_CLIFFORD_KINDS = frozenset(SINGLE_QUBIT_CLIFFORDS + TWO_QUBIT_CLIFFORDS)

