"""Synthesis drivers: exactness, determinism, and cost behavior."""

import hashlib
import random
import statistics
from itertools import combinations, permutations, product

from cliffopt import (
    CliffordTableau,
    PauliOperator,
    ag_canonical,
    circuit_to_tableau,
    greedy_bidirectional,
    greedy_unidirectional,
    random_clifford,
)
from cliffopt.pauli import anticommute_bits
from cliffopt.stages import merge_swaps, partition_stages
from cliffopt.synth.disentangle import (
    _class_masks,
    clean_pair_gates,
    pair_cost_bits,
)
from cliffopt.synth.greedy import (
    _PAIRS,
    _SINGLES,
    _grid,
    _letters,
    _pauli,
    _patterns,
    _peel,
)
from cliffopt.tableau import _image

# Pair patterns (f1, f2, cost) on two qubits, each qubit touched, in both
# orientations; the scan's _PAIRS holds the f1 < f2 half.
ALL_PAIRS = _patterns(
    (f1, f2)
    for f1 in range(1, 16)
    for f2 in range(1, 16)
    if (f1 | f2) & 3 and (f1 | f2) >> 2
)

# Triple patterns (f1, f2) in scan order (ls, ms, lx, my): letter ls on
# q0 and lx on q1 for P, ms on q0 and my on q2 for P'.
TRIPLES = [
    (4 * ls + lx, 4 * ms + my)
    for ls, ms in permutations((1, 2, 3), 2)
    for lx in (1, 2, 3)
    for my in (1, 2, 3)
]


def test_unidirectional_exact():
    for n in (1, 2, 3, 5, 8):
        for seed in range(8):
            t = random_clifford(n, seed)
            c = greedy_unidirectional(t)
            assert c.n == n
            assert circuit_to_tableau(c) == t


def test_bidirectional_exact():
    for n in (1, 2, 3, 5, 8):
        for seed in range(8):
            t = random_clifford(n, seed)
            c = greedy_bidirectional(t)
            assert circuit_to_tableau(c) == t


def test_bidirectional_randomized_exact():
    for seed in range(10):
        t = random_clifford(5, seed + 200)
        c = greedy_bidirectional(t, rng=random.Random(seed))
        assert circuit_to_tableau(c) == t


def test_identity_needs_no_gates():
    for synth in (greedy_unidirectional, greedy_bidirectional):
        c = synth(CliffordTableau.identity(5))
        assert c.gates == ()


def test_deterministic_runs_repeat():
    t = random_clifford(6, seed=9)
    assert greedy_unidirectional(t) == greedy_unidirectional(t)
    assert greedy_bidirectional(t) == greedy_bidirectional(t)


def test_randomized_runs_are_seeded():
    t = random_clifford(6, seed=10)
    a = greedy_bidirectional(t, rng=random.Random(3))
    b = greedy_bidirectional(t, rng=random.Random(3))
    assert a == b
    variants = {
        greedy_bidirectional(t, rng=random.Random(k)).gates for k in range(6)
    }
    assert len(variants) > 1


def test_unidirectional_cx_bound_sample():
    n = 8
    bound = 3 * n * n / 4 + 4 * n
    for seed in range(50):
        c = greedy_unidirectional(random_clifford(n, seed))
        assert c.count_kind("cx") <= bound


def test_bidirectional_tracks_unidirectional_sample():
    # The two-sided scan should not lose to the one-sided one on average;
    # the wide version of this check lives in the acceptance suite.
    uni, bi = [], []
    for seed in range(25):
        t = random_clifford(6, seed + 300)
        uni.append(greedy_unidirectional(t).count_kind("cx"))
        bi.append(greedy_bidirectional(t).count_kind("cx"))
    assert statistics.mean(bi) <= statistics.mean(uni) + 0.5


def test_synthesis_leaves_input_unchanged():
    # The drivers reduce a private copy in place; the caller's tableau
    # must not move.
    for n in (1, 5, 12):
        for seed in range(2):
            t = random_clifford(n, seed)
            before = t.copy()
            greedy_unidirectional(t)
            greedy_bidirectional(t)
            greedy_bidirectional(t, rng=random.Random(seed))
            ag_canonical(t)
            assert t == before


def test_scan_grid_matches_conjugate():
    # Grid index 4 la + lb holds the image of letter la on a and lb on b,
    # codes 0-3 for I, X, Y and Z.
    for n in (2, 5, 8):
        for seed in range(2):
            t = random_clifford(n, seed)
            rows = t.rows_bits()
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    grid = _grid(
                        _letters(rows[a], rows[n + a]),
                        _letters(rows[b], rows[n + b]),
                    )
                    for f in range(1, 16):
                        o = t.conjugate(_pauli(n, (a, b), f))
                        assert grid[f] == (
                            o.x_bits, o.z_bits, o.x_bits | o.z_bits
                        )
    assert len(_SINGLES) == 6
    assert _SINGLES[0][:2] == (4 * 1, 4 * 3)  # (X, Z) leads


def test_scan_bounds_invariants():
    # The scan bounds each side of a candidate on its own: singles cost
    # 0, pairs at least 1 and triples exactly 2. It skips a mirror, P and
    # P' exchanged, which costs the same as its original since
    # pair_cost_bits is symmetric: it walks one orientation of each pair
    # pattern, and triples (q0, q1, q2) with q1 before q2 only.
    assert {pcost for _, _, pcost in _SINGLES} == {0}
    assert min(pcost for _, _, pcost in ALL_PAIRS) == 1
    for f1, f2 in TRIPLES:
        p, p2 = _pauli(3, (0, 1), f1), _pauli(3, (0, 2), f2)
        bits = (p.x_bits, p.z_bits, p2.x_bits, p2.z_bits)
        assert anticommute_bits(*bits)
        assert pair_cost_bits(*bits) == 2
    for x1, z1, x2, z2 in product(range(8), repeat=4):  # every width-3 pair
        assert pair_cost_bits(x1, z1, x2, z2) == pair_cost_bits(x2, z2, x1, z1)
    pairs = {(f1, f2): pcost for f1, f2, pcost in ALL_PAIRS}
    assert all(pairs[f2, f1] == pcost for (f1, f2), pcost in pairs.items())
    # One orientation of each, at its cost and in the full table's order.
    ascending = [(f1, f2, pcost) for f1, ps in _PAIRS for f2, pcost in ps]
    assert ascending == [(f1, f2, c) for f1, f2, c in ALL_PAIRS if f1 < f2]
    assert len(ascending) == len(pairs) // 2 == 54


def reference_bidirectional(t, rng=None):
    """greedy_bidirectional with an unpruned scan: every candidate, each
    mirror included, is scored in the same drawn qubit order, and the
    first cheapest is kept."""
    order = range(t.n) if rng is None else rng.sample(range(t.n), t.n)

    def step(work, ordered, emit):
        ordered = sorted(ordered, key=order.__getitem__)
        n = work.n
        rows = work._signed_rows()
        letters = {q: _letters(rows[q], rows[n + q]) for q in ordered}
        letters[None] = ((0, 0),) * 4
        grids = {
            (a, b): _grid(letters[a], letters[b])
            for a in ordered
            for b in (None, *ordered)
            if a != b
        }

        candidates = []  # (pattern cost, qubits of P, f1, qubits of P', f2)
        for q in ordered:
            for f1, f2, pcost in _SINGLES:
                candidates.append((pcost, (q, None), f1, (q, None), f2))
        for qubits in combinations(ordered, 2):
            for f1, f2, pcost in ALL_PAIRS:
                candidates.append((pcost, qubits, f1, qubits, f2))
        for q0, q1, q2 in permutations(ordered, 3):
            for f1, f2 in TRIPLES:
                candidates.append((2, (q0, q1), f1, (q0, q2), f2))

        scored = []
        for index, (pcost, qubits, f1, qubits2, f2) in enumerate(candidates):
            ox, oz, _ = grids[qubits][f1]
            o2x, o2z, _ = grids[qubits2][f2]
            cost = pcost + pair_cost_bits(ox, oz, o2x, o2z)
            scored.append((cost, index, qubits, f1, qubits2, f2))
        _, _, qubits, f1, qubits2, f2 = min(scored)
        p = _pauli(n, qubits, f1)
        p2 = _pauli(n, qubits2, f2)
        o = PauliOperator(n, *_image(rows, p.x_bits, p.z_bits, p.phase_exp))
        o2 = PauliOperator(n, *_image(rows, p2.x_bits, p2.z_bits, p2.phase_exp))
        a_mask, _, _, _ = _class_masks(o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
        j = (a_mask & -a_mask).bit_length() - 1
        emit(*clean_pair_gates(o, o2, target=j))
        return clean_pair_gates(p, p2, target=j), j

    return _peel(t, step)


def test_bidirectional_matches_unpruned_scan():
    # The recorded digests pin fixed seeds only; a pruned scan that keeps
    # a tied candidate out of scan order can pass them and still differ.
    # The reference scores every mirror, so a scan whose skipped mirror
    # came first in some drawn qubit order changes the output here.
    # (8, 368) is where a rng scan that drew from its four cheapest
    # candidates once had a triple and its tied mirror both among them.
    # The benchmark runs the scan at n = 6..16; (12, 0) and (16, 1) pin
    # its upper widths.
    cases = [(n, seed) for n in range(2, 10) for seed in range(3 if n < 8 else 1)]
    for n, seed in (*cases, (8, 368), (12, 0), (16, 1)):
        t = random_clifford(n, seed)
        assert greedy_bidirectional(t) == reference_bidirectional(t)
        for k in range(3):
            assert greedy_bidirectional(
                t, rng=random.Random(seed + k)
            ) == reference_bidirectional(t, rng=random.Random(seed + k))


def test_rng_is_read_once_per_call():
    # An rng draws one qubit order per call, which every step scans in.
    for n, seed in ((1, 0), (6, 3), (12, 1)):
        rng = random.Random(seed)
        greedy_bidirectional(random_clifford(n, seed), rng=rng)
        fresh = random.Random(seed)
        fresh.sample(range(n), n)
        assert rng.getstate() == fresh.getstate()


def test_restarts_find_cheaper_circuits():
    # Seeded restarts explore other qubit orders; the best of eight should
    # beat the deterministic scan in summed two-qubit count.
    def cost(c):
        return merge_swaps(partition_stages(c)).two_qubit_count

    deterministic = restarts = 0
    for s in range(1, 6):
        t = random_clifford(8, s)
        deterministic += cost(greedy_bidirectional(t))
        restarts += min(
            cost(greedy_bidirectional(t, rng=random.Random(k))) for k in range(8)
        )
    assert restarts < deterministic


def test_ag_canonical_exact():
    for n in (1, 2, 3, 4, 6):
        for seed in range(6):
            t = random_clifford(n, seed)
            c = ag_canonical(t)
            assert circuit_to_tableau(c) == t


def test_ag_canonical_deterministic():
    t = random_clifford(5, seed=77)
    assert ag_canonical(t) == ag_canonical(t)


def test_outputs_match_recorded_digest():
    # Recorded before the tableau, pair-class and stage helpers were
    # merged into one implementation each, again without the randomized
    # unidirectional run when its rng was removed, and again, on the scan
    # it replaced, without the randomized bidirectional run when that rng
    # came to draw a qubit order; outputs must not move.
    digest = hashlib.sha256()
    for n in range(2, 9):
        for seed in range(2):
            t = random_clifford(n, seed)
            for c in (
                greedy_unidirectional(t),
                greedy_bidirectional(t),
                ag_canonical(t),
            ):
                p = partition_stages(c)
                digest.update(c.to_text().encode())
                digest.update(f"{p.permutation} {p.pauli}\n".encode())
                digest.update(merge_swaps(p).to_text().encode())
    assert digest.hexdigest() == (
        "c707230f61a597eb93d6377035fcf0ad01a415bfbaa9521731a809eab92a2ba1"
    )


def test_wide_outputs_match_recorded_digest():
    # Recorded before the bidirectional scan learned to skip candidates
    # that cannot be kept, and again, on the scan it replaced, without the
    # randomized runs when the rng came to draw a qubit order. At these
    # widths whole prefix blocks are skipped, which n <= 8 rarely shows.
    digest = hashlib.sha256()
    for n in (10, 12, 14):
        for seed in (1, 2):
            digest.update(
                greedy_bidirectional(random_clifford(n, seed)).to_text().encode()
            )
    assert digest.hexdigest() == (
        "cb7de5314562801e3ae33a9e29495b8c5df540faf8ca91861b39a30d945b6904"
    )


def test_unidirectional_wide_outputs_match_recorded_digest():
    # Recorded before the unidirectional driver read its rows in bulk and
    # the stage partition carried its Pauli layer as columns, and again
    # without the randomized run when its rng was removed. These widths
    # use transpose sizes 64 and 128; n <= 8 never goes above 16.
    digest = hashlib.sha256()
    for n in (24, 33, 40):
        for seed in (1, 2):
            c = greedy_unidirectional(random_clifford(n, seed))
            p = partition_stages(c)
            digest.update(c.to_text().encode())
            digest.update(f"{p.permutation} {p.pauli}\n".encode())
            digest.update(merge_swaps(p).to_text().encode())
    assert digest.hexdigest() == (
        "597de2ea511b4b33b502a5d337d87bb58429d5a21dc832567a12ab25ee89ae1b"
    )


def test_bidirectional_transpose_size_digest():
    # Recorded before the tableau wrote its rows back in bulk. These
    # widths use transpose sizes 64 and 128; the digests above stop at 32.
    digest = hashlib.sha256()
    for n in (17, 33):
        digest.update(greedy_bidirectional(random_clifford(n, 1)).to_text().encode())
    assert digest.hexdigest() == (
        "47302d32dc0d90e5c12e64aaa899b1ea4f2cb5028791d233685618eb4dad8b53"
    )


def test_randomized_bidirectional_outputs_match_recorded_digest():
    # Recorded when the rng came to draw one qubit order per call in place
    # of a pick among the four cheapest candidates per step; the seeded
    # order must not move. It also holds the randomized runs that the two
    # digests of mixed runs above once carried, n = 2..8 with stage
    # partitions and n = 10..14.
    digest = hashlib.sha256()
    for n in range(3, 11):
        for seed in range(1, 4):
            c = greedy_bidirectional(
                random_clifford(n, seed), rng=random.Random(seed)
            )
            digest.update(c.to_text().encode())
    for n in range(2, 9):
        for seed in range(2):
            c = greedy_bidirectional(
                random_clifford(n, seed), rng=random.Random(seed)
            )
            p = partition_stages(c)
            digest.update(c.to_text().encode())
            digest.update(f"{p.permutation} {p.pauli}\n".encode())
            digest.update(merge_swaps(p).to_text().encode())
    for n in (10, 12, 14):
        for seed in (1, 2):
            c = greedy_bidirectional(
                random_clifford(n, seed), rng=random.Random(seed)
            )
            digest.update(c.to_text().encode())
    assert digest.hexdigest() == (
        "51ef075ee5a377cb32d48d263f812a6b6c714d572c80b7c991eae49b09b628e7"
    )


def test_ag_canonical_wide_outputs_match_recorded_digest():
    # Recorded before the elimination became a step of the shared peel
    # loop; the digest above pins ag_canonical only up to n = 8.
    digest = hashlib.sha256()
    for n in (*range(9, 17), 24, 33, 40):
        for seed in (1, 2):
            digest.update(ag_canonical(random_clifford(n, seed)).to_text().encode())
    assert digest.hexdigest() == (
        "e6cd2900b9abb22593a530fd089ae51b0f0c8c5219b39861d37dff959d9e2f4f"
    )
