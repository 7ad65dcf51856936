"""Stabilizer tableaus: images of every X_j and Z_j under conjugation.

Row j (0 <= j < n) of a tableau for the unitary U is U X_j U^-1 and row
n + j is U Z_j U^-1, stored with exact signs. The internal layout is
column-major: for each qubit q, ``_x[q]`` and ``_z[q]`` are 2n-bit
integers whose bit r holds the X / Z component of row r on qubit q.
Phases live in two bit planes over rows, ``i**(e0_r + 2*e1_r)``. This
makes a gate application O(1) big-int operations instead of O(n).

Global phase is never represented: two circuits are considered equal
when all 2n rows agree including signs.

A gate applies on the left through ``pauli.conjugate_columns``.
``row_bits`` reads one row; ``rows_bits`` reads all rows by one
bit-matrix transpose, its own inverse, which also writes them back.
Tableaus compose by one rule: row r of U.V is U's image of row r of V,
the product (``pauli.product_bits``) of the rows of U its bits name.
``then``, ``right_apply_circuit``, ``conjugate`` and ``conjugate_pauli``
are this rule;
``inverse`` inverts ``ag_canonical``'s (Aaronson-Gottesman) circuit.
"""

from __future__ import annotations

import functools
import random

from .circuit import Circuit, Gate, _expect, _integer, _same_width
from .pauli import PauliOperator, anticommute_bits, conjugate_columns, product_bits


class CliffordTableau:
    __slots__ = ("n", "_x", "_z", "_e0", "_e1")

    def __init__(self, n: int, _x=None, _z=None, _e0: int = 0, _e1: int = 0):
        n = _integer(n, "tableau width n")
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        self.n = n
        # By default the identity: row j is X_j and row n+j is Z_j.
        self._x = [1 << q for q in range(n)] if _x is None else _x
        self._z = [1 << (n + q) for q in range(n)] if _z is None else _z
        self._e0, self._e1 = _e0, _e1

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(n)

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(
            self.n, list(self._x), list(self._z), self._e0, self._e1
        )

    def _key(self) -> tuple:
        return self.n, tuple(self._x), tuple(self._z), self._e0, self._e1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # ------------------------------------------------------------------
    # Row access

    def _check_row(self, r: int) -> int:
        r = _integer(r, "row")
        if not 0 <= r < 2 * self.n:
            raise ValueError(f"row {r} out of range")
        return r

    def row_bits(self, r: int) -> tuple[int, int]:
        """(x_bits, z_bits) of row r as qubit-indexed integers."""
        r = self._check_row(r)
        x = z = 0
        for q in range(self.n):
            x |= ((self._x[q] >> r) & 1) << q
            z |= ((self._z[q] >> r) & 1) << q
        return x, z

    def rows_bits(self) -> list[tuple[int, int]]:
        """``row_bits(r)`` of every row r: the columns ``_x`` then ``_z``
        transposed, so line r holds row r's x then z bits."""
        low = (1 << self.n) - 1
        return [(v & low, v >> self.n) for v in _transpose(self._x + self._z)]

    def _signed_rows(self) -> list[tuple[int, int, int]]:
        """(x_bits, z_bits, phase_exp) of every row."""
        e0, e1 = self._e0, self._e1
        return [
            (x, z, (e0 >> r & 1) | (e1 >> r & 1) << 1)
            for r, (x, z) in enumerate(self.rows_bits())
        ]

    def row_phase(self, r: int) -> int:
        r = self._check_row(r)
        return ((self._e0 >> r) & 1) + 2 * ((self._e1 >> r) & 1)

    def row(self, r: int) -> PauliOperator:
        x, z = self.row_bits(r)
        return PauliOperator(self.n, x, z, self.row_phase(r))

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """The image U p U^-1 of a Pauli operator, by the rule of ``then``
        with p as the one row."""
        _expect(p, PauliOperator, "p")
        _same_width(p.n, self.n)
        image = _image(self._signed_rows(), p.x_bits, p.z_bits, p.phase_exp)
        return PauliOperator(self.n, *image)

    # ------------------------------------------------------------------
    # Left application: tableau of (gate . U)

    def _apply_inplace(self, gate: Gate) -> None:
        self._e0, self._e1 = conjugate_columns(
            gate, self._x, self._z, self._e0, self._e1
        )

    def apply_circuit(self, circuit: Circuit) -> "CliffordTableau":
        _expect(circuit, Circuit, "circuit")
        _same_width(circuit.n, self.n)
        out = self.copy()
        for gate in circuit.gates:
            out._apply_inplace(gate)
        return out

    # ------------------------------------------------------------------
    # Derived operations

    def right_apply_circuit(self, circuit: Circuit) -> "CliffordTableau":
        """Tableau of U . C where C is the circuit unitary: the circuit's
        own tableau, ``then`` U. Rows of qubits C leaves alone are U's."""
        return circuit_to_tableau(circuit).then(self)

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other_unitary . self_unitary). Row r is other's image
        of self's row r, and a row of self that is still X_r or Z_{r-n},
        sign included, is simply other's row r."""
        _expect(other, CliffordTableau, "other")
        _same_width(other.n, self.n)
        n = self.n
        images = other._signed_rows()
        rows = [
            images[r] if x | z << n == 1 << r and not e
            else _image(images, x, z, e)
            for r, (x, z, e) in enumerate(self._signed_rows())
        ]
        cols = _transpose([x | z << n for x, z, _ in rows])
        e0 = sum((e & 1) << r for r, (_, _, e) in enumerate(rows))
        e1 = sum((e >> 1) << r for r, (_, _, e) in enumerate(rows))
        return CliffordTableau(n, cols[:n], cols[n:], e0, e1)

    def inverse(self) -> "CliffordTableau":
        """Tableau of the inverse unitary."""
        from .synth.canonical import ag_canonical

        return circuit_to_tableau(ag_canonical(self).inverse())

    def is_identity(self) -> bool:
        return self == CliffordTableau(self.n)

    def __repr__(self) -> str:
        rows = ", ".join(self.row(r).to_label() for r in range(2 * self.n))
        return f"CliffordTableau({self.n}: {rows})"


def _image(rows: list, x: int, z: int, e: int) -> tuple[int, int, int]:
    """(x_bits, z_bits, phase_exp) of U (i**e X^x Z^z) U^-1 for U with
    the signed rows ``rows``: the product of the images of X^x, then of
    Z^z."""
    n = len(rows) // 2
    acc = (0, 0, e)
    for base, bits in ((0, x), (n, z)):
        while bits:
            low = bits & -bits
            acc = product_bits(*acc, *rows[base + low.bit_length() - 1])
            bits ^= low
    return acc


def _transpose(lines: list[int]) -> list[int]:
    """Transpose the square bit matrix with line i = lines[i]: bit k of
    line i becomes bit i of line k. It is its own inverse. The lines are
    padded to a size x size matrix and moved as one integer."""
    size = max(8, 1 << (len(lines) - 1).bit_length())
    w = size // 8
    m = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in lines]), "little")
    for shift, mask in _transpose_steps(size):
        t = ((m >> shift) ^ m) & mask
        m ^= t ^ (t << shift)
    low = (1 << size) - 1
    return [m >> (i * size) & low for i in range(len(lines))]


@functools.cache
def _transpose_steps(size: int) -> tuple[tuple[int, int], ...]:
    """Delta swaps (shift, mask) transposing a size x size bit matrix with
    entry (i, k) at bit i * size + k. For each block width j, entry
    (i, k) with i & j clear and k & j set trades with (i + j, k - j)."""
    steps = []
    for j in (size >> s for s in range(1, size.bit_length())):
        line = sum(1 << k for k in range(size) if k & j)
        mask = sum(line << (i * size) for i in range(size) if not i & j)
        steps.append((j * (size - 1), mask))
    return tuple(steps)


def circuit_to_tableau(circuit: Circuit) -> CliffordTableau:
    """The tableau of a circuit's unitary."""
    _expect(circuit, Circuit, "circuit")
    return CliffordTableau.identity(circuit.n).apply_circuit(circuit)


def conjugate_pauli(circuit: Circuit, p: PauliOperator) -> PauliOperator:
    """Conjugate p by the circuit unitary: returns G p G^-1, the image of p
    under the circuit's tableau."""
    return circuit_to_tableau(circuit).conjugate(p)


def random_clifford(n: int, seed: int) -> CliffordTableau:
    """A uniformly random n-qubit Clifford tableau, deterministic in seed.

    Built by the standard recursive construction: for m = 1..n draw a
    uniform anticommuting Hermitian pair on the first m qubits, extend
    the current tableau by the circuit that creates the pair from
    (X_{m-1}, Z_{m-1}), and continue. Every Clifford arises from exactly
    one such sequence of pairs, so the output is uniform.
    """
    from .synth.disentangle import clean_pair_gates

    rng = random.Random(_integer(seed, "seed"))

    def draw(accept) -> tuple[int, int, int]:
        """The signed row of a uniform Hermitian Pauli on qubits 0..m-1,
        m the loop's current width, whose x and z bits pass accept; its
        sign is uniform."""
        while True:
            bits = rng.getrandbits(2 * m)
            x, z = bits & ((1 << m) - 1), bits >> m
            if accept(x, z):
                y = (x & z).bit_count()
                return x, z, (y + 2 * rng.getrandbits(1)) % 4

    tab = CliffordTableau.identity(n)
    for m in range(1, n + 1):
        o = draw(lambda x, z: x or z)
        o2 = draw(lambda x, z: anticommute_bits(o[0], o[1], x, z))
        d_gates = clean_pair_gates(o, o2, m - 1)
        # The creation circuit is the inverse of the cleaning sequence.
        for gate in reversed(d_gates):
            tab._apply_inplace(gate.inverse())
    return tab
