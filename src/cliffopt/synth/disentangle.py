"""Reduce an anticommuting Pauli pair to (X_t, Z_t) with CX-optimal cost.

``clean_pair_gates`` does the whole reduction on the signed rows
(x bits, z bits, phase_exp) of Hermitian anticommuting operators
(O, O'). It first puts the pair in standard form: a single-qubit layer
standardizes the action on every supported qubit, which splits the
support into classes:

  A: both act, with different letters  -> (X, Z)
  B: both act, with the same letter    -> (X, X)
  C: only O acts                       -> (X, I)
  D: only O' acts                      -> (I, Z)

Anticommutation forces |A| to be odd, so an anchor a = min(A) exists.
A CX network then folds classes C, D, B and the remaining A pairs onto
the anchor. The signs left on the anchor follow by rule: a CX keeps the
phase of i^e X^x Z^z, and the network's one H acts on a qubit that
carries no Z by then, so the network moves no sign. Each row ends with
its own sign times the flips of its local words (``_LOCAL``). A
Pauli gate repairs the signs, and a SWAP moves the anchor to the target
qubit. The CX count is exactly

  |C| + |D| + (|B| + 1 if B else 0) + 3(|A| - 1)/2.

``disentangler`` returns the inverse of that cleaning sequence as a
``Circuit``: it maps (X_0, Z_0) back to (O, O') under conjugation, and
any SWAP it contains is its leading gate. It and ``disentangle_cost``
check their ``PauliOperator`` operands and pass the reducer their rows.
"""

from __future__ import annotations

from ..circuit import Circuit, Gate, _expect, _gate, _same_width, cx, h, swap, x, y, z
from ..pauli import _AXIS_BITS, PauliOperator, anticommute_bits, conjugate_columns

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


def _flip(letter: str, word: tuple[str, ...]) -> int:
    """1 when the word conjugates +letter on one qubit to a negative
    letter. The words leave no Y, so the phase ends as 0 or 2."""
    xb, zb = _AXIS_BITS[letter]
    xs, zs = [xb], [zb]
    e0, e1 = xb & zb, 0
    for kind in word:
        e0, e1 = conjugate_columns(_gate(kind, (0,)), xs, zs, e0, e1)
    return e1


# Per qubit, keyed by its bits x1 | z1 << 1 | x2 << 2 | z2 << 3 in the
# rows (o, o2): its local word and the sign flips the word gives o (bit
# 0) and o2 (bit 1).
_LOCAL: dict[int, tuple[tuple[str, ...], int]] = {
    xb1 | zb1 << 1 | xb2 << 2 | zb2 << 3: (
        word, _flip(l1, word) | _flip(l2, word) << 1
    )
    for (l1, l2), word in _LOCAL_WORDS.items()
    for (xb1, zb1), (xb2, zb2) in [(_AXIS_BITS[l1], _AXIS_BITS[l2])]
}


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


def _check_pair(o: PauliOperator, o2: PauliOperator) -> list[tuple]:
    """The signed rows of o and o2, once checked as a pair to reduce."""
    _expect(o, PauliOperator, "o")
    _expect(o2, PauliOperator, "o2")
    _same_width(o.n, o2.n)
    if not (o.is_hermitian and o2.is_hermitian):
        raise ValueError("pair must be Hermitian")
    if not anticommute_bits(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits):
        raise ValueError(
            f"{o.to_label()} and {o2.to_label()} commute; cannot disentangle"
        )
    return [(p.x_bits, p.z_bits, p.phase_exp) for p in (o, o2)]


def clean_pair_gates(o: tuple, o2: tuple, target: int) -> list[Gate]:
    """Time-ordered gates conjugating the rows (o, o2) to exactly (X_t, Z_t).

    o and o2 are the signed rows of a Hermitian anticommuting pair, checked
    by the caller; commuting rows raise an AssertionError. The anchor
    a = min(A) is reduced first; when it is not the target qubit, a
    trailing SWAP moves it there. The CX count is ``pair_cost_bits``.
    """
    (x1, z1, ph1), (x2, z2, ph2) = o, o2
    a, b, c, d = map(_bits, _class_masks(x1, z1, x2, z2))
    if len(a) % 2 == 0:
        raise AssertionError(f"rows {o} and {o2} commute; cannot reduce them")
    anchor = a[0]
    # Each row's own sign, (phase_exp - |x & z|) / 2 mod 2: bit 0 is o,
    # bit 1 o2. The standard form, one local word per supported qubit,
    # flips them.
    signs = (ph1 - (x1 & z1).bit_count()) >> 1 & 1
    signs |= ((ph2 - (x2 & z2).bit_count()) >> 1 & 1) << 1
    gates = []
    for q in _bits(x1 | z1 | x2 | z2):
        word, flips = _LOCAL[
            x1 >> q & 1 | (z1 >> q & 1) << 1
            | (x2 >> q & 1) << 2 | (z2 >> q & 1) << 3
        ]
        gates += [_gate(kind, (q,)) for kind in word]
        signs ^= flips
    gates += [cx(anchor, q) for q in c]
    gates += [cx(q, anchor) for q in d]
    if b:
        i = b[0]
        gates += [cx(i, q) for q in b[1:]]
        gates += [cx(anchor, i), h(i), cx(i, anchor)]
    rest = a[1:]
    for p, q in zip(rest[0::2], rest[1::2]):
        gates += [cx(q, p), cx(p, anchor), cx(anchor, q)]
    # The signs left on the anchor: -X fixed by Z, -Z by X, both by Y.
    if signs:
        gates.append((z, x, y)[signs - 1](anchor))
    if anchor != target:
        gates.append(swap(target, anchor))
    return gates


def disentangler(o: PauliOperator, o2: PauliOperator) -> Circuit:
    """Circuit L with L X_0 L^-1 = o and L Z_0 L^-1 = o2, sign exact."""
    gates = clean_pair_gates(*_check_pair(o, o2), 0)
    return Circuit(o.n, tuple(g.inverse() for g in reversed(gates)))


def disentangle_cost(o: PauliOperator, o2: PauliOperator) -> int:
    """CX cost the disentangler will spend on the pair, without building it."""
    (x1, z1, _), (x2, z2, _) = _check_pair(o, o2)
    return pair_cost_bits(x1, z1, x2, z2)
