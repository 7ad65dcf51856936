"""Stabilizer tableaus: images of every X_j and Z_j under conjugation.

Row j (0 <= j < n) of a tableau for the unitary U is U X_j U^-1 and row
n + j is U Z_j U^-1, stored with exact signs. The internal layout is
column-major: for each qubit q, ``_x[q]`` and ``_z[q]`` are 2n-bit
integers whose bit r holds the X / Z component of row r on qubit q.
Phases live in two bit planes over rows, ``i**(e0_r + 2*e1_r)``. This
makes a gate application O(1) big-int operations instead of O(n).

Global phase is never represented: two circuits are considered equal
when all 2n rows agree including signs.

Two primitives act on this layout: row read and write (``row_bits``,
``row``, ``_set_row``, ``conjugate``) and left application of a gate
(``pauli.conjugate_columns``). The rest is derived. Row r of U.C is
U (C P_r C^-1) U^-1, where C P_r C^-1 is a row of the circuit's own
tableau; ``then`` and ``inverse`` write a tableau as a circuit by
``ag_canonical``'s elimination (Aaronson-Gottesman), then apply or
invert that circuit.
"""

from __future__ import annotations

import operator
import random

from .circuit import Circuit, Gate
from .pauli import PauliOperator, anticommute_bits, conjugate_columns


class CliffordTableau:
    __slots__ = ("n", "_x", "_z", "_e0", "_e1")

    def __init__(self, n: int, _x=None, _z=None, _e0: int = 0, _e1: int = 0):
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(
                f"tableau width n={n!r} is not an integer"
            ) from None
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        self.n = n
        if _x is None:
            # Identity: row j has X on qubit j, row n+j has Z on qubit j.
            self._x = [1 << q for q in range(n)]
            self._z = [1 << (n + q) for q in range(n)]
            self._e0 = 0
            self._e1 = 0
        else:
            self._x = _x
            self._z = _z
            self._e0 = _e0
            self._e1 = _e1

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        return cls(n)

    def copy(self) -> "CliffordTableau":
        return CliffordTableau(
            self.n, list(self._x), list(self._z), self._e0, self._e1
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n == other.n
            and self._x == other._x
            and self._z == other._z
            and self._e0 == other._e0
            and self._e1 == other._e1
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._x), tuple(self._z), self._e0, self._e1))

    # ------------------------------------------------------------------
    # Row access

    def row_bits(self, r: int) -> tuple[int, int]:
        """(x_bits, z_bits) of row r as qubit-indexed integers."""
        x = z = 0
        for q in range(self.n):
            x |= ((self._x[q] >> r) & 1) << q
            z |= ((self._z[q] >> r) & 1) << q
        return x, z

    def row_phase(self, r: int) -> int:
        return ((self._e0 >> r) & 1) + 2 * ((self._e1 >> r) & 1)

    def row(self, r: int) -> PauliOperator:
        if not 0 <= r < 2 * self.n:
            raise ValueError(f"row {r} out of range")
        x, z = self.row_bits(r)
        return PauliOperator(self.n, x, z, self.row_phase(r))

    def _set_row(self, r: int, p: PauliOperator) -> None:
        for q in range(self.n):
            mask = 1 << r
            if ((self._x[q] >> r) & 1) != ((p.x_bits >> q) & 1):
                self._x[q] ^= mask
            if ((self._z[q] >> r) & 1) != ((p.z_bits >> q) & 1):
                self._z[q] ^= mask
        if ((self._e0 >> r) & 1) != (p.phase_exp & 1):
            self._e0 ^= 1 << r
        if ((self._e1 >> r) & 1) != ((p.phase_exp >> 1) & 1):
            self._e1 ^= 1 << r

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """The image U p U^-1 of an arbitrary Pauli operator."""
        if p.n != self.n:
            raise ValueError(f"width mismatch: {p.n} vs {self.n}")
        acc = PauliOperator(self.n, 0, 0, p.phase_exp)
        for q in range(self.n):
            if (p.x_bits >> q) & 1:
                acc = acc * self.row(q)
            if (p.z_bits >> q) & 1:
                acc = acc * self.row(self.n + q)
        return acc

    # ------------------------------------------------------------------
    # Left application: tableau of (gate . U)

    def _apply_inplace(self, gate: Gate) -> None:
        self._e0, self._e1 = conjugate_columns(
            gate, self._x, self._z, self._e0, self._e1
        )

    def apply_circuit(self, circuit: Circuit) -> "CliffordTableau":
        if circuit.n != self.n:
            raise ValueError(f"width mismatch: {circuit.n} vs {self.n}")
        out = self.copy()
        for gate in circuit.gates:
            out._apply_inplace(gate)
        return out

    # ------------------------------------------------------------------
    # Derived operations

    def right_apply_circuit(self, circuit: Circuit) -> "CliffordTableau":
        """Tableau of U . C where C is the circuit unitary."""
        if circuit.n != self.n:
            raise ValueError(f"width mismatch: {circuit.n} vs {self.n}")
        # Row r of U.C is U (C P_r C^-1) U^-1 for P_r = X_r or Z_{r-n},
        # and C P_r C^-1 is row r of the circuit's own tableau. Only the
        # rows of the circuit's qubits change.
        inner = circuit_to_tableau(circuit)
        out = self.copy()
        for q in {q for gate in circuit.gates for q in gate.qubits}:
            for r in (q, self.n + q):
                out._set_row(r, self.conjugate(inner.row(r)))
        return out

    def then(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau of (other_unitary . self_unitary)."""
        from .synth.canonical import ag_canonical

        if other.n != self.n:
            raise ValueError(f"width mismatch: {other.n} vs {self.n}")
        return self.apply_circuit(ag_canonical(other))

    def inverse(self) -> "CliffordTableau":
        """Tableau of the inverse unitary."""
        from .synth.canonical import ag_canonical

        return circuit_to_tableau(ag_canonical(self).inverse())

    def is_identity(self) -> bool:
        if self._e0 or self._e1:
            return False
        for q in range(self.n):
            if self._x[q] != (1 << q) or self._z[q] != (1 << (self.n + q)):
                return False
        return True

    def __repr__(self) -> str:
        rows = ", ".join(self.row(r).to_label() for r in range(2 * self.n))
        return f"CliffordTableau({self.n}: {rows})"


def circuit_to_tableau(circuit: Circuit) -> CliffordTableau:
    """The tableau of a circuit's unitary."""
    return CliffordTableau.identity(circuit.n).apply_circuit(circuit)


def random_clifford(n: int, seed: int) -> CliffordTableau:
    """A uniformly random n-qubit Clifford tableau, deterministic in seed.

    Built by the standard recursive construction: for m = 1..n draw a
    uniform anticommuting Hermitian pair on the first m qubits, extend
    the current tableau by the circuit that creates the pair from
    (X_{m-1}, Z_{m-1}), and continue. Every Clifford arises from exactly
    one such sequence of pairs, so the output is uniform.
    """
    from .synth.disentangle import clean_pair_gates

    rng = random.Random(seed)
    tab = CliffordTableau.identity(n)
    for m in range(1, n + 1):
        o, o2 = _random_anticommuting_pair(rng, m, n)
        d_gates = clean_pair_gates(o, o2, target=m - 1)
        # The creation circuit is the inverse of the cleaning sequence.
        for gate in reversed(d_gates):
            tab._apply_inplace(gate.inverse())
    return tab


def _random_anticommuting_pair(
    rng: random.Random, m: int, n: int
) -> tuple[PauliOperator, PauliOperator]:
    """Uniform Hermitian anticommuting pair supported on qubits 0..m-1."""
    mask = (1 << m) - 1
    while True:
        bits = rng.getrandbits(2 * m)
        x1, z1 = bits & mask, bits >> m
        if x1 or z1:
            break
    y1 = (x1 & z1).bit_count()
    o = PauliOperator(n, x1, z1, (y1 + 2 * rng.getrandbits(1)) % 4)
    while True:
        bits = rng.getrandbits(2 * m)
        x2, z2 = bits & mask, bits >> m
        if anticommute_bits(x1, z1, x2, z2):
            break
    y2 = (x2 & z2).bit_count()
    o2 = PauliOperator(n, x2, z2, (y2 + 2 * rng.getrandbits(1)) % 4)
    return o, o2
