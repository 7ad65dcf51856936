"""Tableau semantics against the dense reference and the Pauli route."""

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
    conjugate_pauli,
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

GATE_POOL = [
    h(0), h(1), h(2), s(0), s(1), sdg(2), x(0), y(1), z(2),
    cx(0, 1), cx(1, 2), cx(2, 0), cz(0, 1), cz(1, 2), swap(0, 2),
]


def random_circuit(rng: random.Random, n: int, length: int) -> Circuit:
    pool = GATE_POOL if n == 3 else _pool(n)
    return Circuit(n, tuple(rng.choice(pool) for _ in range(length)))


def _pool(n: int):
    gates = []
    for q in range(n):
        gates += [h(q), s(q), sdg(q), x(q), y(q), z(q)]
    for q in range(n):
        for r in range(n):
            if q != r:
                gates.append(cx(q, r))
            if q < r:
                gates += [cz(q, r), swap(q, r)]
    return gates


def test_identity_tableau():
    t = CliffordTableau.identity(3)
    assert t.is_identity()
    assert t.row(0) == PauliOperator.from_label("XII")
    assert t.row(5) == PauliOperator.from_label("IIZ")


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


def test_conjugate_matches_pauli_route():
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
        assert t.conjugate(p) == conjugate_pauli(c, p)


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
    # U2 (U1 P_r U1^-1) U2^-1, neither of which runs ag_canonical.
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
    # and Z_0 map to X_0.
    with pytest.raises(AssertionError):
        CliffordTableau(1, [0b11], [0b00]).inverse()


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
