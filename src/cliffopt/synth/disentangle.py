"""Reduce an anticommuting Pauli pair to (X_t, Z_t) with CX-optimal cost.

Given Hermitian anticommuting operators (O, O'), a single-qubit layer
first standardizes the action on every supported qubit, which splits the
support into classes:

  A: both act, with different letters  -> (X, Z)
  B: both act, with the same letter    -> (X, X)
  C: only O acts                       -> (X, I)
  D: only O' acts                      -> (I, Z)
  E: neither acts

Anticommutation forces |A| to be odd, so an anchor a = min(A) exists.
A CX network then folds classes C, D, B and the remaining A pairs onto
the anchor, a Pauli gate repairs the signs, and a final SWAP moves the
anchor to the requested target qubit. The CX count is exactly

  |C| + |D| + (|B| + 1 if B else 0) + 3(|A| - 1)/2.

The returned circuit is the inverse of that cleaning sequence: it maps
(X_t, Z_t) back to (O, O') under conjugation, and any SWAP it contains
is its leading gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import Circuit, Gate, cx, h, swap, x, y, z
from ..pauli import PauliOperator, anticommute

# Time-ordered single-qubit word standardizing one qubit's (O, O') letters.
_LOCAL_WORDS: dict[tuple[str, str], tuple[str, ...]] = {
    ("X", "Z"): (),
    ("Z", "X"): ("h",),
    ("X", "Y"): ("h", "s", "h"),
    ("Y", "Z"): ("s",),
    ("Y", "X"): ("h", "sdg"),
    ("Z", "Y"): ("s", "h"),
    ("X", "X"): (),
    ("Y", "Y"): ("s",),
    ("Z", "Z"): ("h",),
    ("X", "I"): (),
    ("Y", "I"): ("s",),
    ("Z", "I"): ("h",),
    ("I", "Z"): (),
    ("I", "X"): ("h",),
    ("I", "Y"): ("s", "h"),
}


@dataclass(frozen=True)
class StandardFormPartition:
    """Single-qubit layer plus the induced support classes."""

    local_layer: Circuit
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    e: tuple[int, ...]


@dataclass(frozen=True)
class DisentangleResult:
    """Circuit mapping (X_t, Z_t) to a Pauli pair, with its CX cost."""

    circuit: Circuit
    cnot_cost: int


def _class_masks(
    x1: int, z1: int, x2: int, z2: int
) -> tuple[int, int, int, int]:
    """(A, B, C, D) class bitmasks of a pair given raw component bits."""
    occ1 = x1 | z1
    occ2 = x2 | z2
    both = occ1 & occ2
    diff = (x1 ^ x2) | (z1 ^ z2)
    a = both & diff
    b = both & ~diff
    c = occ1 & ~occ2
    d = occ2 & ~occ1
    return a, b, c, d


def pair_cost_bits(x1: int, z1: int, x2: int, z2: int) -> int:
    """CX cost of reducing a pair, straight from its component bits."""
    a, b, c, d = _class_masks(x1, z1, x2, z2)
    na = a.bit_count()
    nb = b.bit_count()
    cost = c.bit_count() + d.bit_count() + 3 * (na - 1) // 2
    if nb:
        cost += nb + 1
    return cost


def _bits(mask: int, start: int = 0) -> list[int]:
    """Indices of the set bits of mask at or above start, ascending."""
    out = []
    q = start
    mask >>= start
    while mask:
        if mask & 1:
            out.append(q)
        mask >>= 1
        q += 1
    return out


def _check_pair(o: PauliOperator, o2: PauliOperator) -> None:
    if o.n != o2.n:
        raise ValueError(f"width mismatch: {o.n} vs {o2.n}")
    if not (o.is_hermitian and o2.is_hermitian):
        raise ValueError("pair must be Hermitian")
    if not anticommute(o, o2):
        raise ValueError(
            f"{o.to_label()} and {o2.to_label()} commute; cannot disentangle"
        )


def standard_form(o: PauliOperator, o2: PauliOperator) -> StandardFormPartition:
    """Single-qubit layer standardizing the pair, and the class split."""
    _check_pair(o, o2)
    a, b, c, d = _class_masks(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
    support = a | b | c | d
    e = tuple(q for q in range(o.n) if not (support >> q) & 1)
    local_layer = tuple(
        Gate(kind, (q,))
        for q in _bits(support)
        for kind in _LOCAL_WORDS[(o.axis(q), o2.axis(q))]
    )
    return StandardFormPartition(
        local_layer=Circuit(o.n, local_layer),
        a=tuple(_bits(a)),
        b=tuple(_bits(b)),
        c=tuple(_bits(c)),
        d=tuple(_bits(d)),
        e=e,
    )


def clean_pair_gates(
    o: PauliOperator, o2: PauliOperator, target: int
) -> list[Gate]:
    """Time-ordered gates conjugating (o, o2) to exactly (X_t, Z_t).

    The anchor a = min(A) is reduced first; when it is not the target, a
    trailing SWAP moves it there. The CX count is ``pair_cost_bits``.
    """
    part = standard_form(o, o2)
    if not 0 <= target < o.n:
        raise ValueError(f"target {target} out of range")
    gates: list[Gate] = []

    def emit(gate: Gate) -> None:
        nonlocal o, o2
        gates.append(gate)
        o = o.conjugated(gate)
        o2 = o2.conjugated(gate)

    for gate in part.local_layer.gates:
        emit(gate)

    anchor = part.a[0]
    for q in part.c:
        emit(cx(anchor, q))
    for q in part.d:
        emit(cx(q, anchor))
    if part.b:
        i = part.b[0]
        for q in part.b[1:]:
            emit(cx(i, q))
        emit(cx(anchor, i))
        emit(h(i))
        emit(cx(i, anchor))
    rest = part.a[1:]
    for p, q in zip(rest[0::2], rest[1::2]):
        emit(cx(q, p))
        emit(cx(p, anchor))
        emit(cx(anchor, q))

    signs = (o.sign(), o2.sign())
    if signs == (-1, 1):
        emit(z(anchor))
    elif signs == (1, -1):
        emit(x(anchor))
    elif signs == (-1, -1):
        emit(y(anchor))

    if anchor != target:
        emit(swap(target, anchor))
    return gates


def disentangler(o: PauliOperator, o2: PauliOperator) -> DisentangleResult:
    """Circuit L with L X_0 L^-1 = o and L Z_0 L^-1 = o2, sign exact."""
    gates = clean_pair_gates(o, o2, target=0)
    circuit = Circuit(o.n, tuple(g.inverse() for g in reversed(gates)))
    cost = pair_cost_bits(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
    return DisentangleResult(circuit=circuit, cnot_cost=cost)


def disentangle_cost(o: PauliOperator, o2: PauliOperator) -> int:
    """CX cost the disentangler will spend on the pair, without building it."""
    _check_pair(o, o2)
    return pair_cost_bits(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
