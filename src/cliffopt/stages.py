"""Stage partition: circuit = compute stage, wire permutation, Pauli layer.

Every circuit factors as U = F . P . C where C (the compute stage)
contains no Pauli or SWAP gates, P is a wire permutation, and F is a
layer of Pauli gates. Pauli gates commute outward through Cliffords by
conjugation, and SWAP gates by relabeling, so both can be pulled out of
the gate stream and handled for free: the permutation by renaming
wires, the Pauli layer by reinterpreting measurement outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, PAULI_KINDS, cx, h, swap, x, y, z
from .pauli import _AXIS_BITS, PauliOperator


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

    def to_circuit(self) -> Circuit:
        """Expand back into one circuit with explicit SWAPs and Paulis."""
        gates = list(self.compute.gates)
        gates += permutation_to_swaps(self.permutation)
        gates += pauli_layer_gates(self.pauli)
        return Circuit(self.compute.n, tuple(gates))


def pauli_layer_gates(p: PauliOperator) -> list[Gate]:
    gates = []
    for q in range(p.n):
        axis = p.axis(q)
        if axis == "X":
            gates.append(x(q))
        elif axis == "Y":
            gates.append(y(q))
        elif axis == "Z":
            gates.append(z(q))
    return gates


def permutation_to_swaps(perm: tuple[int, ...]) -> list[Gate]:
    """Time-ordered SWAP gates realizing the permutation action."""
    gates: list[Gate] = []
    cur = list(perm)
    # Selection sort toward the identity; emission order is time order.
    for w in range(len(cur)):
        if cur[w] == w:
            continue
        src = cur.index(w)
        gates.append(swap(w, src))
        cur[w], cur[src] = cur[src], cur[w]
    return gates


def partition_stages(c: Circuit) -> StagePartition:
    """Factor c into compute, permutation, and Pauli stages."""
    n = c.n
    pauli = PauliOperator.identity(n)
    # wire[w]: the compute-stage wire that holds what c has on wire w so far.
    wire = list(range(n))
    compute: list[Gate] = []
    for g in c.gates:
        if g.kind in PAULI_KINDS:
            xb, zb = _AXIS_BITS[g.kind.upper()]
            q = g.qubits[0]
            pauli = PauliOperator(n, xb << q, zb << q) * pauli
            continue
        pauli = pauli.conjugated(g)
        if g.kind == "swap":
            a, b = g.qubits
            wire[a], wire[b] = wire[b], wire[a]
        else:
            compute.append(g.relabeled(wire))
    perm = tuple(wire.index(w) for w in range(n))
    return StagePartition(Circuit(n, tuple(compute)), perm, pauli)


def merge_swaps(p: StagePartition) -> Circuit:
    """One circuit for (compute then permutation), absorbing the SWAPs.

    Walking the permutation down to the identity: each round either
    fuses a transposition into the latest two-qubit gate whose wires sit
    in one permutation cycle (a CX plus a SWAP is two back-to-back CX;
    a CZ plus a SWAP is two CX in an H sandwich), or, when no such gate
    exists, appends an explicit three-CX expansion at the end. The
    Pauli stage is not included.
    """
    n = p.compute.n
    gates = list(p.compute.gates)
    perm = list(p.permutation)
    identity = list(range(n))
    while perm != identity:
        pair = _latest_mergeable(gates, perm)
        if pair is None:
            a = next(w for w in range(n) if perm[w] != w)
            b = perm[a]
            gates += [cx(a, b), cx(b, a), cx(a, b)]
        else:
            idx, (a, b) = pair
            relabel = list(identity)
            relabel[a], relabel[b] = b, a
            suffix = [g.relabeled(relabel) for g in gates[idx + 1:]]
            gates = gates[:idx] + _swap_combo(gates[idx]) + suffix
        # The permutation of (swap_ab then perm).
        perm[a], perm[b] = perm[b], perm[a]
    return Circuit(n, tuple(gates))


def _cycle_id(perm: list[int]) -> dict[int, int]:
    label = {}
    for start in range(len(perm)):
        if start in label:
            continue
        w = start
        while w not in label:
            label[w] = start
            w = perm[w]
    return label


def _latest_mergeable(
    gates: list[Gate], perm: list[int]
) -> tuple[int, tuple[int, int]] | None:
    cycles = _cycle_id(perm)
    for idx in range(len(gates) - 1, -1, -1):
        g = gates[idx]
        if len(g.qubits) != 2:
            continue
        a, b = g.qubits
        # Same cycle implies a non-trivial one: distinct fixed points
        # sit in distinct singleton cycles.
        if cycles[a] == cycles[b]:
            return idx, (a, b)
    return None


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
