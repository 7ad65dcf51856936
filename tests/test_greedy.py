"""Synthesis drivers: exactness, determinism, and cost behavior."""

import hashlib
import random
import statistics

from cliffopt import (
    CliffordTableau,
    ag_canonical,
    circuit_to_tableau,
    greedy_bidirectional,
    greedy_unidirectional,
    random_clifford,
)
from cliffopt.stages import merge_swaps, partition_stages
from cliffopt.synth.greedy import (
    _PAIRS,
    _SINGLES,
    _TRIPLES,
    _grid,
    _letters,
    _pauli,
)


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
    assert (len(_SINGLES), len(_PAIRS), len(_TRIPLES)) == (6, 108, 54)
    assert _SINGLES[0][:2] == (4 * 1, 4 * 3)  # (X, Z) leads


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
    # merged into one implementation each, and again without the
    # randomized unidirectional run when its rng was removed; outputs
    # must not move.
    digest = hashlib.sha256()
    for n in range(2, 9):
        for seed in range(2):
            t = random_clifford(n, seed)
            for c in (
                greedy_unidirectional(t),
                greedy_bidirectional(t),
                greedy_bidirectional(t, rng=random.Random(seed)),
                ag_canonical(t),
            ):
                p = partition_stages(c)
                digest.update(c.to_text().encode())
                digest.update(f"{p.permutation} {p.pauli}\n".encode())
                digest.update(merge_swaps(p).to_text().encode())
    assert digest.hexdigest() == (
        "c84e0f03bb829652f62847aca4866fb515a0cfcb82b8d0348159e3cc3c3f2aea"
    )


def test_wide_outputs_match_recorded_digest():
    # Recorded before the bidirectional scan learned to skip candidates
    # that cannot be kept. At these widths the rng pool fills and whole
    # prefix blocks are skipped, which n <= 8 rarely shows.
    digest = hashlib.sha256()
    for n in (10, 12, 14):
        for seed in (1, 2):
            t = random_clifford(n, seed)
            for c in (
                greedy_bidirectional(t),
                greedy_bidirectional(t, rng=random.Random(seed)),
            ):
                digest.update(c.to_text().encode())
    assert digest.hexdigest() == (
        "5156bf108b134014fa5bc736e5f33f4e19b52b999ea6b2743f9b28c351286894"
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
    # Recorded before both drivers shared one peel loop, which moved the
    # rng draw into the bidirectional step; the seeded pool choice must
    # not move.
    digest = hashlib.sha256()
    for n in range(3, 11):
        for seed in range(1, 4):
            c = greedy_bidirectional(
                random_clifford(n, seed), rng=random.Random(seed)
            )
            digest.update(c.to_text().encode())
    assert digest.hexdigest() == (
        "d6e7fd733710add33ecbf21ff47c7e21d42addfad73054728002c7eca90abf89"
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
