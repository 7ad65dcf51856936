"""Canonical Gaussian-elimination synthesis, used as a cost baseline.

Processes qubits in order. For qubit k it reduces the image of X_k to
exactly X_k with column operations (H to create an X component, CX to
move and clear it, CZ and S to clear Z components), then reduces the
image of Z_k, which anticommutation already pins to Y_k or Z_k at k
plus a Z tail. This plain elimination spends Theta(n^2) gates, about
0.88 n^2 two-qubit gates on random Cliffords (3622 at n=64, seed 1),
so greedy synthesis usually beats it; it exists as the reference point
optimizers are measured against. The elimination of qubit k runs as a
step of the greedy drivers' peel loop, ``greedy._peel``.
"""

from __future__ import annotations

from ..circuit import Circuit, cx, cz, h, s, x, z
from ..tableau import CliffordTableau
from .disentangle import _bits
from .greedy import _peel


def ag_canonical(t: CliffordTableau) -> Circuit:
    """A circuit with tableau exactly t, built by Gaussian elimination."""

    def step(work, ordered, emit):
        k, n = ordered[0], work.n

        def pivot(mask: int, part: str) -> int:
            """The lowest qubit at or after k in mask. Once qubits below k
            are reduced, row k of a symplectic tableau has one there."""
            bits = _bits(mask, k)
            if not bits:
                raise AssertionError(
                    f"row {k} has no {part} support at or after qubit {k}: "
                    "the tableau is not symplectic"
                )
            return bits[0]

        px, pz = work.row_bits(k)
        if px == 0:
            emit(h(pivot(pz, "X or Z")))
            px, pz = work.row_bits(k)
        if not (px >> k) & 1:
            emit(cx(pivot(px, "X"), k))
            px, pz = work.row_bits(k)
        for j in _bits(px, k + 1):
            emit(cx(k, j))
        px, pz = work.row_bits(k)
        # CZ(k, j) leaves z_k alone, as x_j = 0 for every j > k by now.
        for j in _bits(pz, k + 1):
            emit(cz(k, j))
        if (pz >> k) & 1:
            emit(s(k))

        qx, qz = work.row_bits(n + k)
        for j in _bits(qx, k + 1):
            if (qz >> j) & 1:
                emit(s(j))
            emit(h(j))
        qx, qz = work.row_bits(n + k)
        if (qx >> k) & 1:
            emit(h(k))
            emit(s(k))
            emit(h(k))
        qx, qz = work.row_bits(n + k)
        for j in _bits(qz, k + 1):
            emit(cx(j, k))

        if work.row_phase(k) == 2:
            emit(z(k))
        if work.row_phase(n + k) == 2:
            emit(x(k))
        return (), k

    return _peel(t, step)
