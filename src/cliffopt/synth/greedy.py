"""Greedy tableau-to-circuit synthesis.

Both drivers peel off one qubit per step: they choose an anticommuting
pair, reduce it to (X_j, Z_j) with the pair disentangler, and recurse on
the remaining qubits. The unidirectional driver always reduces the
images of (X_p, Z_p) for the cheapest still-active p, emitting gates on
one side only. The bidirectional driver scans low-weight pairs (P, P')
of inputs, compares the cost of reducing (P, P') against the cost of
reducing their images (O, O') = (U P U^-1, U P' U^-1), and emits gates
on both sides at once, which empirically lowers the CX count.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from itertools import chain, combinations, permutations

from ..circuit import Circuit, Gate
from ..pauli import _AXIS_BITS, PauliOperator, anticommute_bits
from ..tableau import CliffordTableau
from .disentangle import _class_masks, clean_pair_gates, pair_cost_bits

# With an rng, the bidirectional scan draws from this many cheapest candidates.
_POOL = 4

# Ordered anticommuting letter pairs on one slot; they need no CX. (X, Z)
# leads so that cost ties resolve to the pair needing no local gates.
_SINGLE_PATTERNS = tuple(
    (((0, l1),), ((0, l2),), 0)
    for l1, l2 in (
        ("X", "Z"), ("X", "Y"), ("Y", "X"), ("Y", "Z"), ("Z", "X"), ("Z", "Y")
    )
)

Support = tuple[tuple[int, str], ...]


def _support_bits(ops: Support) -> tuple[int, int]:
    xb = zb = 0
    for slot, letter in ops:
        xv, zv = _AXIS_BITS[letter]
        xb |= xv << slot
        zb |= zv << slot
    return xb, zb


def _build_pair_patterns() -> tuple[tuple[Support, Support, int], ...]:
    """Ordered anticommuting pairs on two slots, each slot touched."""
    singles: list[Support] = []
    letters = (None, "X", "Y", "Z")
    for la in letters:
        for lb in letters:
            ops = tuple(
                (slot, l) for slot, l in ((0, la), (1, lb)) if l is not None
            )
            if ops:
                singles.append(ops)
    out = []
    for ops1 in singles:
        x1, z1 = _support_bits(ops1)
        for ops2 in singles:
            x2, z2 = _support_bits(ops2)
            if not anticommute_bits(x1, z1, x2, z2):
                continue
            if (x1 | z1 | x2 | z2) != 3:
                continue
            out.append((ops1, ops2, pair_cost_bits(x1, z1, x2, z2)))
    return tuple(out)


def _build_triple_patterns() -> tuple[tuple[Support, Support, int], ...]:
    """Weight-2 pairs sharing slot 0, partners on slots 1 and 2."""
    out = []
    for ls in "XYZ":
        for ms in "XYZ":
            if ls == ms:
                continue
            for lx in "XYZ":
                for my in "XYZ":
                    ops1: Support = ((0, ls), (1, lx))
                    ops2: Support = ((0, ms), (2, my))
                    x1, z1 = _support_bits(ops1)
                    x2, z2 = _support_bits(ops2)
                    out.append((ops1, ops2, pair_cost_bits(x1, z1, x2, z2)))
    return tuple(out)


_PAIR_PATTERNS = _build_pair_patterns()
_TRIPLE_PATTERNS = _build_triple_patterns()


def _by_support(patterns):
    """A pattern table's distinct first and second supports, and each
    pattern as (index of its first support, index of its second, cost,
    first support, second support)."""
    firsts = list(dict.fromkeys(ops1 for ops1, _, _ in patterns))
    seconds = list(dict.fromkeys(ops2 for _, ops2, _ in patterns))
    indexed = tuple(
        (firsts.index(ops1), seconds.index(ops2), pcost, ops1, ops2)
        for ops1, ops2, pcost in patterns
    )
    return tuple(firsts), tuple(seconds), indexed


_SINGLES = _by_support(_SINGLE_PATTERNS)
_PAIRS = _by_support(_PAIR_PATTERNS)
_TRIPLES = _by_support(_TRIPLE_PATTERNS)


def _images(
    contrib: dict[tuple[int, str], tuple[int, int]],
    qubits: tuple[int | None, ...],
    supports: tuple[Support, ...],
) -> list[tuple[int, int, int]]:
    """(x bits, z bits, their union) of the image of each support placed
    on qubits, slot s naming qubits[s]."""
    out = []
    for ops in supports:
        ox = oz = 0
        for slot, letter in ops:
            cb = contrib[(qubits[slot], letter)]
            ox ^= cb[0]
            oz ^= cb[1]
        out.append((ox, oz, ox | oz))
    return out


def _pauli_from_support(n: int, sup: Support) -> PauliOperator:
    xb, zb = _support_bits(sup)
    return PauliOperator(n, xb, zb, (xb & zb).bit_count() % 4)


def greedy_unidirectional(t: CliffordTableau) -> Circuit:
    """Synthesize a circuit for t, emitting gates on the output side only.

    Each step reduces the cheapest active qubit, the lowest index on ties.
    """
    n = t.n
    work = t.copy()
    act = set(range(n))
    parts: list[list[Gate]] = []
    while act:
        rows = work.rows_bits()
        p = min(
            sorted(act), key=lambda q: pair_cost_bits(*rows[q], *rows[n + q])
        )
        d_gates = clean_pair_gates(work.row(p), work.row(n + p), target=p)
        for g in d_gates:
            work._apply_inplace(g)
        parts.append([g.inverse() for g in reversed(d_gates)])
        act.remove(p)
    if not work.is_identity():
        raise AssertionError("synthesis left a non-identity residue")
    return Circuit(n, tuple(chain.from_iterable(reversed(parts))))


def greedy_bidirectional(
    t: CliffordTableau, rng: random.Random | None = None
) -> Circuit:
    """Synthesize a circuit for t, emitting gates on both sides.

    Each step scans anticommuting input pairs (P, P') of weight at most
    two whose supports overlap, scores them by the reduction cost of
    (P, P') plus that of their images, and reduces the best onto a fresh
    qubit from both ends. Without an rng the scan keeps the first
    cheapest candidate; with one it draws uniformly from the four
    cheapest. The left reduction lands on the anchor of the images, so
    it needs no SWAP; the right one may end with a SWAP onto it.

    The scan skips candidates that provably cannot be kept, so it keeps
    exactly what a full scan would. The images (O, O') of an
    anticommuting pair anticommute, so ``pair_cost_bits`` is at least
    |supp O u supp O'| - 1: each C and D qubit costs 1, B costs |B| + 1
    and A costs 3(|A| - 1)/2 >= |A| - 1. A candidate thus costs at least
    its pattern cost plus that union minus 1. A triple candidate's
    prefix (q0, l_s, q1, l_x) fixes O, so |supp O| bounds all 6(m - 2)
    partners of the prefix at once, m being the number of active
    qubits. The cut is the cost of the worst kept candidate once
    ``keep`` are kept; before that nothing is skipped. A candidate or
    prefix whose bound is not below the cut is skipped. That is exact:
    the scan runs in candidate-index order and skipped candidates still
    count in the index, so a skipped candidate could at best tie a kept
    one at a later index, and a later tie is never kept.
    """
    n = t.n
    work = t.copy()
    act = set(range(n))
    left_parts: list[list[Gate]] = []
    right_parts: list[list[Gate]] = []
    keep = 1 if rng is None else _POOL
    while act:
        ordered = sorted(act)
        rows = work.rows_bits()
        contrib: dict[tuple[int, str], tuple[int, int]] = {}
        for q in ordered:
            xq, zq = rows[q], rows[n + q]
            contrib[(q, "X")] = xq
            contrib[(q, "Z")] = zq
            contrib[(q, "Y")] = (xq[0] ^ zq[0], xq[1] ^ zq[1])

        best: list[tuple[int, int, Support, Support]] = []

        def admit(cost, idx, qubits, ops1, ops2) -> float:
            """Keep a candidate that beats the cut; return the new cut."""
            sup1 = tuple((qubits[s], l) for s, l in ops1)
            sup2 = tuple((qubits[s], l) for s, l in ops2)
            insort(best, (cost, idx, sup1, sup2))
            if len(best) > keep:
                best.pop()
            return best[-1][0] if len(best) == keep else math.inf

        # Slot s of a pattern names qubits[s]. The qubit tuples come in
        # the scan order that fixes the candidate indices and so the ties.
        cut = math.inf
        idx = 0
        for qubit_tuples, (firsts, seconds, patterns) in (
            (permutations(ordered, 1), _SINGLES),
            (combinations(ordered, 2), _PAIRS),
        ):
            for qubits in qubit_tuples:
                img1 = _images(contrib, qubits, firsts)
                img2 = _images(contrib, qubits, seconds)
                for i1, i2, pcost, ops1, ops2 in patterns:
                    ox, oz, occ = img1[i1]
                    o2x, o2z, occ2 = img2[i2]
                    if pcost - 1 + (occ | occ2).bit_count() < cut:
                        cost = pcost + pair_cost_bits(ox, oz, o2x, o2z)
                        if cost < cut:
                            cut = admit(cost, idx, qubits, ops1, ops2)
                    idx += 1

        # Triples in permutations(ordered, 3) order, one (q0, q1) block
        # of len(ordered) - 2 partner qubits q2 at a time. A pattern's
        # first support (the prefix) lies on q0 and q1, its second on q0
        # and q2, so partner images leave slot 1 unset.
        prefixes, partners, patterns = _TRIPLES
        block = len(patterns) * (len(ordered) - 2)
        for q0 in ordered:
            partner_img = {
                q2: _images(contrib, (q0, None, q2), partners)
                for q2 in ordered
                if q2 != q0
            }
            for q1 in ordered:
                if q1 == q0:
                    continue
                img1 = _images(contrib, (q0, q1), prefixes)
                low = [occ.bit_count() - 1 for _, _, occ in img1]
                live = [
                    (p, *img1[i1], i2, pcost)
                    for p, (i1, i2, pcost, _, _) in enumerate(patterns)
                    if pcost + low[i1] < cut
                ]
                if not live:
                    idx += block
                    continue
                for q2 in ordered:
                    if q2 == q0 or q2 == q1:
                        continue
                    img2 = partner_img[q2]
                    for p, ox, oz, occ, i2, pcost in live:
                        o2x, o2z, occ2 = img2[i2]
                        if pcost - 1 + (occ | occ2).bit_count() < cut:
                            cost = pcost + pair_cost_bits(ox, oz, o2x, o2z)
                            if cost < cut:
                                _, _, _, ops1, ops2 = patterns[p]
                                cut = admit(
                                    cost, idx + p, (q0, q1, q2), ops1, ops2
                                )
                    idx += len(patterns)

        _, _, sup1, sup2 = best[0 if rng is None else rng.randrange(len(best))]
        p = _pauli_from_support(n, sup1)
        p2 = _pauli_from_support(n, sup2)
        o = work.conjugate(p)
        o2 = work.conjugate(p2)
        a_mask, _, _, _ = _class_masks(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
        j = (a_mask & -a_mask).bit_length() - 1
        dl_gates = clean_pair_gates(o, o2, target=j)
        if dl_gates and dl_gates[-1].kind == "swap":
            raise AssertionError("left reduction should land on its anchor")
        dr_gates = clean_pair_gates(p, p2, target=j)
        for g in dl_gates:
            work._apply_inplace(g)
        work = work.right_apply_circuit(Circuit(n, tuple(dr_gates)).inverse())
        left_parts.append([g.inverse() for g in reversed(dl_gates)])
        right_parts.append(dr_gates)
        act.remove(j)
    if not work.is_identity():
        raise AssertionError("synthesis left a non-identity residue")
    gates = tuple(
        chain(
            chain.from_iterable(right_parts),
            chain.from_iterable(reversed(left_parts)),
        )
    )
    return Circuit(n, gates)
