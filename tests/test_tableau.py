"""Tableau semantics against the dense reference."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffopt import (
    Circuit,
    CliffordTableau,
    PauliOperator,
    anticommute,
    circuit_to_tableau,
    cx,
    cz,
    h,
    random_clifford,
    s,
    sdg,
    swap,
    x,
    y,
    z,
)

from _dense import circuit_unitary, conjugate_dense, pauli_matrix
from _util import gate_pool

GATE_POOL = [
    h(0), h(1), h(2), s(0), s(1), sdg(2), x(0), y(1), z(2),
    cx(0, 1), cx(1, 2), cx(2, 0), cz(0, 1), cz(1, 2), swap(0, 2),
]


def random_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    pool = GATE_POOL if n == 3 else gate_pool(n)
    return Circuit(n, tuple(rng.choice(pool) for _ in range(length)))


def test_identity_tableau():
    t = CliffordTableau.identity(3)
    assert t.is_identity()
    assert t.row(0) == PauliOperator.from_label("XII")
    assert t.row(5) == PauliOperator.from_label("IIZ")
    assert repr(CliffordTableau(1)) == "CliffordTableau(1: +X, +Z)"
    with pytest.raises(ValueError, match="need at least one qubit"):
        CliffordTableau(0)


def test_rows_match_dense():
    rng = random.Random(7)
    for _ in range(25):
        c = random_circuit(rng, 3, rng.randrange(1, 15))
        t = circuit_to_tableau(c)
        u = circuit_unitary(c)
        for r in range(6):
            base = PauliOperator(3, 1 << r, 0, 0) if r < 3 else PauliOperator(
                3, 0, 1 << (r - 3), 0
            )
            want = conjugate_dense(u, pauli_matrix(base))
            assert np.allclose(pauli_matrix(t.row(r)), want)


def test_conjugate_matches_dense():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 6)
        c = random_circuit(rng, n, rng.randrange(0, 30))
        t = circuit_to_tableau(c)
        p = PauliOperator(
            n,
            rng.getrandbits(n),
            rng.getrandbits(n),
            rng.randrange(4),
        )
        want = conjugate_dense(circuit_unitary(c), pauli_matrix(p))
        assert np.allclose(pauli_matrix(t.conjugate(p)), want)


def test_then_composes():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(1, 5)
        c1 = random_circuit(rng, n, rng.randrange(0, 12))
        c2 = random_circuit(rng, n, rng.randrange(0, 12))
        combined = circuit_to_tableau(c1 + c2)
        assert combined == circuit_to_tableau(c1).then(circuit_to_tableau(c2))
        assert combined == circuit_to_tableau(c2).right_apply_circuit(c1)
    # At width, against circuit concatenation and against the row images
    # U2 (U1 P_r U1^-1) U2^-1. Widths 33 and 65 write their rows back
    # through transpose sizes 128 and 256.
    for n in (1, 8, 12):
        for seed in (1, 2):
            t1, t2 = random_clifford(n, seed), random_clifford(n, seed + 2)
            c1 = random_circuit(rng, n, 40)
            c2 = random_circuit(rng, n, 40)
            t_c1, t_c2 = circuit_to_tableau(c1), circuit_to_tableau(c2)
            assert t_c1.then(t_c2) == circuit_to_tableau(c1 + c2)
            assert t1.then(t_c1) == t1.apply_circuit(c1)
            composed = t1.then(t2)
            for r in range(2 * n):
                assert composed.row(r) == t2.conjugate(t1.row(r))
    for n in (33, 65):
        c1 = random_circuit(rng, n, 4 * n)
        c2 = random_circuit(rng, n, 4 * n)
        t_c1, t_c2 = circuit_to_tableau(c1), circuit_to_tableau(c2)
        assert t_c1.then(t_c2) == circuit_to_tableau(c1 + c2)
        assert t_c2.right_apply_circuit(c1) == circuit_to_tableau(c1 + c2)


def test_right_apply_matches_left():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 5)
        c = random_circuit(rng, n, rng.randrange(0, 15))
        left = CliffordTableau.identity(n).apply_circuit(c)
        right = CliffordTableau.identity(n).right_apply_circuit(c)
        assert left == right
    # Wider circuits with SWAPs, applied to the right of a non-identity U.
    for n in (2, 7, 12):
        c0 = random_circuit(rng, n, 30)
        c = random_circuit(rng, n, 30)
        c = c.extended(swap(q, (q + 1) % n) for q in range(n - 1, -1, -2))
        left = CliffordTableau.identity(n).apply_circuit(c)
        assert left == CliffordTableau.identity(n).right_apply_circuit(c)
        assert circuit_to_tableau(c + c0) == (
            circuit_to_tableau(c0).right_apply_circuit(c)
        )


def test_inverse():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randrange(1, 6)
        c = random_circuit(rng, n, rng.randrange(0, 20))
        t = circuit_to_tableau(c)
        ti = t.inverse()
        assert t.then(ti).is_identity()
        assert ti.then(t).is_identity()
        assert ti == circuit_to_tableau(c.inverse())
    # At width, against the inverted circuit, and against the rows: U^-1
    # maps row r of U back to X_r or Z_{r-n}, sign exact.
    for n in (1, 8, 12):
        c = random_circuit(rng, n, 60)
        assert circuit_to_tableau(c).inverse() == circuit_to_tableau(c.inverse())
        identity = CliffordTableau.identity(n)
        for seed in (1, 2):
            t = random_clifford(n, seed)
            ti = t.inverse()
            for r in range(2 * n):
                assert ti.conjugate(t.row(r)) == identity.row(r)
                assert t.conjugate(ti.row(r)) == identity.row(r)
    # Elimination does not accept a non-symplectic tableau: here both X_0
    # and Z_0 map to X_0; both map to the identity; and X_0 and X_1 both
    # map to X_0, Z_0 and Z_1 both to Z_1. The last two leave a row with
    # no pivot, which names the broken invariant.
    with pytest.raises(AssertionError):
        CliffordTableau(1, [0b11], [0b00]).inverse()
    for x, z in (([0], [0]), ([0b0011, 0], [0, 0b1100])):
        with pytest.raises(AssertionError, match="not symplectic"):
            CliffordTableau(len(x), x, z).inverse()


def test_rows_bits_match_row_bits():
    # The widths cross the transpose sizes 8, 64, 128 and 256.
    rng = random.Random(41)
    for n in (1, 2, 4, 5, 31, 32, 33, 64, 65):
        for t in (
            random_clifford(n, seed=n),
            circuit_to_tableau(random_circuit(rng, n, 4 * n)),
        ):
            assert t.rows_bits() == [t.row_bits(r) for r in range(2 * n)]


def test_row_out_of_range_is_rejected():
    t = random_clifford(3, seed=1)
    for r in (6, 99, -1):
        for read in (t.row_bits, t.row_phase, t.row):
            with pytest.raises(ValueError, match=f"row {r} out of range"):
                read(r)


def test_rows_are_hermitian():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(1, 6)
        t = circuit_to_tableau(random_circuit(rng, n, 20))
        for r in range(2 * n):
            assert t.row(r).is_hermitian


def test_row_commutation_structure():
    # Row i anticommutes with row j exactly when {i, j} is an (X_k, Z_k) pair.
    t = random_clifford(5, seed=99)
    for i in range(10):
        for j in range(10):
            expect = abs(i - j) == 5
            assert anticommute(t.row(i), t.row(j)) == expect


def test_apply_gate_width_checks():
    t = CliffordTableau.identity(2)
    with pytest.raises(ValueError, match="width"):
        t.apply_circuit(Circuit(3, ()))
    with pytest.raises(ValueError, match="width"):
        t.conjugate(PauliOperator.identity(3))


def test_equality_and_hash():
    c = Circuit(2, (h(0), cx(0, 1)))
    assert circuit_to_tableau(c) == circuit_to_tableau(c)
    assert hash(circuit_to_tableau(c)) == hash(circuit_to_tableau(c))
    assert circuit_to_tableau(c) != CliffordTableau.identity(2)
    assert (CliffordTableau(1) == "x") is False


@settings(max_examples=40, deadline=None)
@given(gate_idx=st.lists(st.integers(0, len(GATE_POOL) - 1), max_size=15))
def test_tableau_rows_dense_property(gate_idx):
    c = Circuit(3, tuple(GATE_POOL[i] for i in gate_idx))
    t = circuit_to_tableau(c)
    u = circuit_unitary(c)
    for r in (0, 4):
        base = PauliOperator(3, 1 << r, 0, 0) if r < 3 else PauliOperator(
            3, 0, 1 << (r - 3), 0
        )
        assert np.allclose(
            pauli_matrix(t.row(r)), conjugate_dense(u, pauli_matrix(base))
        )


def test_random_clifford_deterministic():
    a = random_clifford(4, seed=5)
    b = random_clifford(4, seed=5)
    assert a == b
    assert a != random_clifford(4, seed=6)


def test_random_clifford_single_qubit_uniform():
    counts: dict[int, int] = {}
    for seed in range(2400):
        t = random_clifford(1, seed)
        counts[hash(t)] = counts.get(hash(t), 0) + 1
    assert len(counts) == 24
    expected = 2400 / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df = 23; the 99.9% quantile is about 49.7.
    assert chi2 < 55, chi2


def test_random_clifford_two_qubit_classes_uniform():
    counts: dict[tuple, int] = {}
    samples = 7200
    for seed in range(samples):
        t = random_clifford(2, seed)
        key = tuple(t.row_bits(r) for r in range(4))
        counts[key] = counts.get(key, 0) + 1
    # 720 sign-free classes of two-qubit tableaus.
    assert len(counts) == 720
    expected = samples / 720
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # df = 719; the 99.9% quantile is about 838.
    assert chi2 < 860, chi2


def test_random_clifford_rows_valid():
    t = random_clifford(6, seed=3)
    for r in range(12):
        assert t.row(r).is_hermitian
    # Symplectic: the inverse exists and composes to identity.
    assert t.then(t.inverse()).is_identity()
