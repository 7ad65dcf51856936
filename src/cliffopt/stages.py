"""Stage partition: circuit = compute stage, wire permutation, Pauli layer.

Every circuit factors as U = F . P . C where C (the compute stage)
contains no Pauli or SWAP gates, P is a wire permutation, and F is a
layer of Pauli gates. Pauli gates commute outward through Cliffords by
conjugation, and SWAP gates by relabeling, so both can be pulled out of
the gate stream and handled for free: the permutation by renaming
wires, the Pauli layer by reinterpreting measurement outcomes. The
partition carries the Pauli layer in column form, as a one-row tableau
that ``pauli.conjugate_columns`` updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit, Gate, PAULI_KINDS, _expect, _gate, _integer, cx, h, swap
)
from .pauli import _AXIS_BITS, _BITS_AXIS, PauliOperator, conjugate_columns


@dataclass(frozen=True)
class StagePartition:
    """compute, then wire permutation, then Pauli layer.

    ``permutation`` is the tuple p with the action X_w -> X_{p[w]}; the
    ``pauli`` operator's overall phase is meaningless (a Pauli layer is
    only defined up to global phase) and is kept at whatever the
    bookkeeping produced.
    """

    compute: Circuit
    permutation: tuple[int, ...]
    pauli: PauliOperator

    def __post_init__(self) -> None:
        _expect(self.compute, Circuit, "compute")
        n = self.compute.n
        try:
            perm = tuple(_integer(w, "permutation element") for w in self.permutation)
        except TypeError:
            perm = ()
        if sorted(perm) != list(range(n)):
            raise ValueError(
                f"permutation {self.permutation} does not permute range({n})"
            )
        object.__setattr__(self, "permutation", perm)
        _expect(self.pauli, PauliOperator, "pauli")
        if self.pauli.n != n:
            raise ValueError(f"pauli has {self.pauli.n} qubit(s), compute {n}")

    def to_circuit(self) -> Circuit:
        """Expand back into one circuit with explicit SWAPs and Paulis."""
        gates = list(self.compute.gates)
        gates += [swap(a, b) for a, b in _transpositions(self.permutation)]
        gates += pauli_layer_gates(self.pauli)
        return Circuit(self.compute.n, tuple(gates))


def pauli_layer_gates(p: PauliOperator) -> list[Gate]:
    _expect(p, PauliOperator, "p")
    xs, zs = p.x_bits, p.z_bits
    return [
        _gate(_BITS_AXIS[xs >> q & 1, zs >> q & 1].lower(), (q,))
        for q in range(p.n)
        if (xs | zs) >> q & 1
    ]


def _transpositions(perm) -> list[tuple[int, int]]:
    """Wire pairs (a, b) whose SWAPs, in this time order, realize perm:
    the lowest unfixed wire a and b = perm[a], then the same for the
    permutation of (swap_ab then rest), n - cycles pairs in all."""
    cur = list(perm)
    pairs = []
    for a in range(len(cur)):
        while cur[a] != a:
            b = cur[a]
            pairs.append((a, b))
            cur[a], cur[b] = cur[b], cur[a]
    return pairs


def partition_stages(c: Circuit) -> StagePartition:
    """Factor c into compute, permutation, and Pauli stages."""
    _expect(c, Circuit, "c")
    n = c.n
    # The Pauli layer as a one-row tableau: one-bit columns and phase planes.
    px, pz = [0] * n, [0] * n
    e0 = e1 = 0
    # wire[w]: the compute-stage wire that holds what c has on wire w so far.
    wire = list(range(n))
    compute: list[Gate] = []
    for g in c.gates:
        if g.kind in PAULI_KINDS:
            # Left-multiply by X^xb Z^zb on q: its Z passes the layer's X.
            xb, zb = _AXIS_BITS[g.kind.upper()]
            q = g.qubits[0]
            e1 ^= zb & px[q]
            px[q] ^= xb
            pz[q] ^= zb
            continue
        e0, e1 = conjugate_columns(g, px, pz, e0, e1)
        if g.kind == "swap":
            a, b = g.qubits
            wire[a], wire[b] = wire[b], wire[a]
        else:
            compute.append(g.relabeled(wire))
    perm = tuple(wire.index(w) for w in range(n))
    xs, zs = (sum(b << q for q, b in enumerate(col)) for col in (px, pz))
    pauli = PauliOperator(n, xs, zs, e0 + 2 * e1)
    return StagePartition(Circuit._of(n, compute), perm, pauli)


def merge_swaps(p: StagePartition) -> Circuit:
    """One circuit for (compute then permutation), absorbing the SWAPs.

    The transposition (a b) fuses into a two-qubit gate on wires a and b
    in one permutation cycle (CX plus SWAP is two CX; CZ plus SWAP is two
    CX in an H sandwich). The later gates are relabeled by (a b), and the
    permutation left is perm o (a b): the cycle of a and b splits. What
    no gate absorbs is appended as three-CX SWAPs. The Pauli stage is
    not included.

    One scan from the last gate to the first decides every fusion.
    Cycles only get finer: relabeled by (a b), the later gates meet the
    cycles of perm o (a b) as they met those of (a b) o perm, and both
    refine the cycles of perm. So a gate the scan has passed can never
    become mergeable, and the scan fuses what repeatedly taking the
    latest mergeable gate would.
    """
    _expect(p, StagePartition, "p")
    n = p.compute.n
    gates = p.compute.gates
    perm = list(p.permutation)
    # cycle[w] names the cycle of w by one of its wires.
    cycle = [-1] * n
    for w in range(n):
        if cycle[w] < 0:
            _label_cycle(perm, cycle, w)
    fused = set()
    for i in range(len(gates) - 1, -1, -1):
        qubits = gates[i].qubits
        # Same cycle implies a non-trivial one: distinct fixed points
        # sit in distinct singleton cycles.
        if len(qubits) == 2 and cycle[qubits[0]] == cycle[qubits[1]]:
            a, b = qubits
            fused.add(i)
            # The permutation of (swap_ab then perm).
            perm[a], perm[b] = perm[b], perm[a]
            _label_cycle(perm, cycle, a)
            _label_cycle(perm, cycle, b)
    # relabel[w]: the wire that the fusions so far have moved wire w to.
    relabel = list(range(n))
    out: list[Gate] = []
    for i, g in enumerate(gates):
        if i in fused:
            # Relabel the combo, not g: CZ sorts its operands, so the
            # combo of a relabeled CZ can list its gates differently.
            out += [c.relabeled(relabel) for c in _swap_combo(g)]
            a, b = g.qubits
            relabel[a], relabel[b] = relabel[b], relabel[a]
        else:
            out.append(g.relabeled(relabel))
    for a, b in _transpositions(perm):
        out += [cx(a, b), cx(b, a), cx(a, b)]
    return Circuit._of(n, out)


def _label_cycle(perm: list[int], cycle: list[int], start: int) -> None:
    w = start
    while True:
        cycle[w] = start
        w = perm[w]
        if w == start:
            return


def _swap_combo(g: Gate) -> list[Gate]:
    """Time-ordered gates equal to (g then swap of its wires)."""
    a, b = g.qubits
    if g.kind == "cx":
        return [cx(b, a), cx(a, b)]
    if g.kind == "cz":
        return [h(a), cx(a, b), cx(b, a), h(b)]
    if g.kind == "swap":
        return []
    raise ValueError(f"cannot merge a swap into {g.kind!r}")
