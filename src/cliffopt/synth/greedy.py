"""Greedy tableau-to-circuit synthesis.

Both drivers peel off one qubit per step: they choose an anticommuting
pair, reduce it to (X_j, Z_j) with the pair disentangler, and recurse on
the remaining qubits. The unidirectional driver always reduces the
images of (X_p, Z_p) for the cheapest still-active p, emitting gates on
one side only. The bidirectional driver scans low-weight pairs (P, P')
of inputs, compares the cost of reducing (P, P') against the cost of
reducing their images (O, O') = (U P U^-1, U P' U^-1), and emits gates
on both sides at once, which empirically lowers the CX count. An rng
draws the order in which its scan walks the qubits, once per call.

The three synthesizers, ``greedy_unidirectional``, ``greedy_bidirectional``
and ``canonical.ag_canonical``, each run one step per qubit in one loop,
``_peel``, which owns the work copy, the residue check and the output
circuit. A step passes its left gates to ``emit``, which applies them to
the work tableau at once, and returns its right gates, possibly none,
and the qubit it freed.

The scan names a letter by its code, 0-3 for I, X, Y and Z, and a Pauli
on two qubits (a, b) by its grid index 4 la + lb: letter la on a and lb
on b. Each step reads the images of the four letters on every active
qubit, and the image of a two-qubit Pauli is the XOR of its two letter
images. The pair phase builds all 16 for each qubit pair it scores; the
triple phase builds only the 9 with both letters non-identity.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, groupby
from operator import itemgetter

from ..circuit import Circuit, Gate, _expect
from ..pauli import _AXIS_BITS, PauliOperator, anticommute_bits
from ..tableau import CliffordTableau, _image
from .disentangle import _class_masks, clean_pair_gates, pair_cost_bits

_LETTERS = "IXYZ"


def _pauli(n: int, qubits: tuple, f: int) -> PauliOperator:
    """The Pauli with grid index f on qubits: letter f // 4 on qubits[0]
    and f % 4 on qubits[1]."""
    xb = zb = 0
    for q, code in zip(qubits, divmod(f, 4)):
        if code:
            xv, zv = _AXIS_BITS[_LETTERS[code]]
            xb |= xv << q
            zb |= zv << q
    return PauliOperator(n, xb, zb, (xb & zb).bit_count() % 4)


def _patterns(pairs) -> tuple[tuple[int, int, int], ...]:
    """(f1, f2, CX cost of reducing the pair) for each anticommuting pair
    of grid indices on qubits (0, 1)."""
    out = []
    for f1, f2 in pairs:
        p, p2 = _pauli(2, (0, 1), f1), _pauli(2, (0, 1), f2)
        bits = (p.x_bits, p.z_bits, p2.x_bits, p2.z_bits)
        if anticommute_bits(*bits):
            out.append((f1, f2, pair_cost_bits(*bits)))
    return tuple(out)


# Ordered anticommuting letter pairs on one qubit, slot 1 on I; they need
# no CX. (X, Z) leads so that cost ties resolve to the pair needing no
# local gates.
_SINGLES = _patterns(
    (4 * _LETTERS.index(l1), 4 * _LETTERS.index(l2))
    for l1, l2 in ("XZ", "XY", "YX", "YZ", "ZX", "ZY")
)
# Anticommuting pairs on two qubits, each qubit touched, grouped by f1 as
# (f1, ((f2, cost), ...)); every cost is at least 1. Of (f1, f2) and its
# mirror (f2, f1), which costs the same, only the one with f1 < f2.
_PAIRS = tuple(
    (f1, tuple((f2, cost) for _, f2, cost in group))
    for f1, group in groupby(
        _patterns(
            (f1, f2)
            for f1 in range(1, 16)
            for f2 in range(f1 + 1, 16)
            if (f1 | f2) & 3 and (f1 | f2) >> 2
        ),
        key=itemgetter(0),
    )
)


def _letters(xq: tuple, zq: tuple) -> tuple:
    """(x bits, z bits) of the images of I, X, Y and Z on a qubit whose X
    and Z image rows start with those bits; a row's sign is dropped."""
    (xx, xz), (zx, zz) = xq[:2], zq[:2]
    return ((0, 0), (xx, xz), (xx ^ zx, xz ^ zz), (zx, zz))


def _grid(ia: tuple, ib: tuple) -> list[tuple[int, int, int]]:
    """(x bits, z bits, their union) of the image of every Pauli on two
    qubits with letter images ia and ib, at its grid index."""
    out = []
    for xa, za in ia:
        for xb, zb in ib:
            x, z = xa ^ xb, za ^ zb
            out.append((x, z, x | z))
    return out


def _peel(t: CliffordTableau, step) -> Circuit:
    """Reduce a private copy of t to the identity, one qubit per step.

    ``step(work, ordered, emit)`` gets the work tableau and its active
    qubits in ascending order, and returns (right gates, j): its emitted
    left gates reduce the pair on qubit j from the output side, and the
    right gates the matching pair from the input side.
    """
    _expect(t, CliffordTableau, "t")
    n = t.n
    work = t.copy()
    left: list[Gate] = []
    right: list[Gate] = []

    def emit(*gates: Gate) -> None:
        for g in gates:
            work._apply_inplace(g)
        left.extend(gates)

    act = set(range(n))
    while act:
        dr_gates, j = step(work, sorted(act), emit)
        if dr_gates:
            work = work.right_apply_circuit(Circuit(n, tuple(dr_gates)).inverse())
            right.extend(dr_gates)
        act.remove(j)
    if not work.is_identity():
        raise AssertionError("synthesis left a non-identity residue")
    return Circuit(n, (*right, *(g.inverse() for g in reversed(left))))


def greedy_unidirectional(t: CliffordTableau) -> Circuit:
    """Synthesize a circuit for t, emitting gates on the output side only.

    Each step reduces the cheapest active qubit, the lowest index on ties.
    """

    def step(work, ordered, emit):
        n = work.n
        rows = work.rows_bits()
        p = min(ordered, key=lambda q: pair_cost_bits(*rows[q], *rows[n + q]))
        emit(*clean_pair_gates(
            PauliOperator(n, *rows[p], work.row_phase(p)),
            PauliOperator(n, *rows[n + p], work.row_phase(n + p)),
            target=p,
        ))
        return (), p

    return _peel(t, step)


def greedy_bidirectional(
    t: CliffordTableau, rng: random.Random | None = None
) -> Circuit:
    """Synthesize a circuit for t, emitting gates on both sides.

    Each step scans anticommuting input pairs (P, P') of weight at most
    two whose supports overlap, scores them by the reduction cost of
    (P, P') plus that of their images, and reduces the best onto a fresh
    qubit from both ends, keeping the first cheapest candidate. The scan
    walks the active qubits in a qubit order: ascending without an rng,
    and with one an order drawn once per call by ``rng.sample``, so
    seeded restarts break ties and follow greedy paths differently. The
    left reduction lands on the anchor of the images, so it needs no
    SWAP; the right one may end with a SWAP onto it.

    A candidate is a pattern (f1, f2, cost of reducing (P, P')) placed on
    qubits. Singles put P and P' on one qubit q, at letters f1 // 4 and
    f2 // 4; pairs put both on a qubit pair (a, b). A triple (q0, q1, q2)
    puts P at grid index f1 = 4 ls + lx on (q0, q1) and P' at grid
    index f2 = 4 ms + my on (q0, q2), for letters ls != ms and any lx
    and my; it always costs 2.

    The scan skips candidates that provably cannot be kept, so it keeps
    exactly what a full scan would. The images (O, O') of an
    anticommuting pair anticommute, so ``pair_cost_bits`` is at least
    |supp O u supp O'| - 1: each C and D qubit costs 1, B costs |B| + 1
    and A costs 3(|A| - 1)/2 >= |A| - 1. A candidate thus costs at least
    its pattern cost minus 1 plus that union, or plus |supp O| alone.
    The cut is the cost of the kept candidate, infinite before the
    first. A candidate whose bound is not below the cut is skipped. That
    is exact: a skipped candidate could at best tie the kept one, found
    earlier, and a tie keeps the one found earlier.

    Each side is bounded on its own before any pairing. A pair pattern
    costs at least 1, so a pair grid entry with |supp O| >= cut is never
    paired. A triple costs 2, so for each q0 and partner q only the
    images with |supp O| < cut - 1 are paired, each the XOR of the
    images of letter ls on q0 and lx on q. The cut only falls, so a list
    filtered with an earlier cut is a superset.

    A mirror exchanges P and P': pair pattern (f2, f1) on the same
    qubits, or triple (q0, q2, q1) with the sides swapped. It costs the
    same, as ``pair_cost_bits`` is symmetric, and comes later in the
    scan under any qubit order: a pair mirror sits on the same qubits,
    later in f order, and a triple's mirror swaps q1 and q2. So the scan
    skips mirrors: pairs with f1 < f2 and triples with q1 before q2 in
    the qubit order only.
    """
    _expect(t, CliffordTableau, "t")
    if rng is not None and not isinstance(rng, random.Random):
        raise ValueError(f"rng {rng!r} is not a random.Random")
    order = range(t.n) if rng is None else rng.sample(range(t.n), t.n)

    def step(work, ordered, emit):
        ordered.sort(key=order.__getitem__)
        # One signed read serves the scan and the images (O, O').
        n = work.n
        rows = work._signed_rows()
        letters = {q: _letters(rows[q], rows[n + q]) for q in ordered}

        # (qubits of P, f1, qubits of P', f2) of the first cheapest candidate
        best = None
        cut = math.inf
        for q in ordered:
            images = [(x, z, x | z) for x, z in letters[q]]
            for f1, f2, pcost in _SINGLES:
                ox, oz, occ = images[f1 >> 2]
                o2x, o2z, occ2 = images[f2 >> 2]
                if pcost - 1 + (occ | occ2).bit_count() < cut:
                    cost = pcost + pair_cost_bits(ox, oz, o2x, o2z)
                    if cost < cut:
                        cut, best = cost, ((q, None), f1, (q, None), f2)

        for a, b in combinations(ordered, 2):
            grid = _grid(letters[a], letters[b])
            fits = [occ.bit_count() < cut for _, _, occ in grid]
            for f1, f2s in _PAIRS:
                if not fits[f1]:
                    continue
                ox, oz, occ = grid[f1]
                for f2, pcost in f2s:
                    if fits[f2]:
                        o2x, o2z, occ2 = grid[f2]
                        if pcost - 1 + (occ | occ2).bit_count() < cut:
                            cost = pcost + pair_cost_bits(ox, oz, o2x, o2z)
                            if cost < cut:
                                cut, best = cost, ((a, b), f1, (a, b), f2)

        # Triples (q0, q1, q2) by q0, then q1, then q2 in the qubit order,
        # and in (ls, ms, lx, my) order within each.
        for q0 in ordered:
            # Per partner q, the entries (4 ls + lx, x, z, x | z) of
            # (q0, q) by letter ls on q0.
            sides = {}
            for q in ordered:
                if q != q0:
                    side = []
                    for ls in (1, 2, 3):
                        xs, zs = letters[q0][ls]
                        row = []
                        for lx in (1, 2, 3):
                            xq, zq = letters[q][lx]
                            x, z = xs ^ xq, zs ^ zq
                            if (x | z).bit_count() < cut - 1:
                                row.append((4 * ls + lx, x, z, x | z))
                        if row:
                            side.append((ls, row))
                    if side:
                        sides[q] = side
            for q1, q2 in combinations(sides, 2):
                for ls, row1 in sides[q1]:
                    for ms, row2 in sides[q2]:
                        if ls == ms:
                            continue
                        for f1, ox, oz, occ in row1:
                            for f2, o2x, o2z, occ2 in row2:
                                if 1 + (occ | occ2).bit_count() < cut:
                                    cost = 2 + pair_cost_bits(ox, oz, o2x, o2z)
                                    if cost < cut:
                                        cut, best = cost, (
                                            (q0, q1), f1, (q0, q2), f2
                                        )

        qubits, f1, qubits2, f2 = best
        p = _pauli(n, qubits, f1)
        p2 = _pauli(n, qubits2, f2)
        o = PauliOperator(n, *_image(rows, p.x_bits, p.z_bits, p.phase_exp))
        o2 = PauliOperator(n, *_image(rows, p2.x_bits, p2.z_bits, p2.phase_exp))
        a_mask, _, _, _ = _class_masks(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
        j = (a_mask & -a_mask).bit_length() - 1
        dl_gates = clean_pair_gates(o, o2, target=j)
        if dl_gates and dl_gates[-1].kind == "swap":
            raise AssertionError("left reduction should land on its anchor")
        emit(*dl_gates)
        return clean_pair_gates(p, p2, target=j), j

    return _peel(t, step)
