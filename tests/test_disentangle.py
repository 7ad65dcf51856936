"""Pair reduction: class split, exactness, and cost."""

import itertools
import random
import re

import numpy as np
import pytest

from cliffopt import (
    Circuit,
    PauliOperator,
    conjugate_pauli,
    disentangle_cost,
    disentangler,
)
from cliffopt.circuit import PAULI_KINDS, _gate, cx, h, swap, x, y, z
from cliffopt.pauli import _BITS_AXIS, conjugate_columns
from cliffopt.synth.disentangle import (
    _LOCAL_WORDS,
    _bits,
    _class_masks,
    clean_pair_gates,
    pair_cost_bits,
)

from _dense import circuit_unitary, conjugate_dense, pauli_matrix


def random_anticommuting_pair(rng: random.Random, n: int):
    while True:
        x1, z1 = rng.getrandbits(n), rng.getrandbits(n)
        if x1 or z1:
            break
    p1 = PauliOperator(
        n, x1, z1, ((x1 & z1).bit_count() + 2 * rng.getrandbits(1)) % 4
    )
    while True:
        x2, z2 = rng.getrandbits(n), rng.getrandbits(n)
        if ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2:
            break
    p2 = PauliOperator(
        n, x2, z2, ((x2 & z2).bit_count() + 2 * rng.getrandbits(1)) % 4
    )
    return p1, p2


def reference_clean_pair_gates(o: tuple, o2: tuple, target: int) -> list:
    """clean_pair_gates with its signs found by simulation: the gates of
    the standard form and the CX network are passed over the pair, held
    as a two-row tableau, and the signs are read off the anchor."""
    (x1, z1, ph1), (x2, z2, ph2) = o, o2
    a, b, c, d = map(_bits, _class_masks(x1, z1, x2, z2))
    assert len(a) % 2 == 1
    support = sorted(a + b + c + d)
    anchor = a[0]
    gates = [
        _gate(kind, (q,))
        for q in support
        for kind in _LOCAL_WORDS[
            _BITS_AXIS[x1 >> q & 1, z1 >> q & 1], _BITS_AXIS[x2 >> q & 1, z2 >> q & 1]
        ]
    ]
    gates += [cx(anchor, q) for q in c]
    gates += [cx(q, anchor) for q in d]
    if b:
        i = b[0]
        gates += [cx(i, q) for q in b[1:]]
        gates += [cx(anchor, i), h(i), cx(i, anchor)]
    rest = a[1:]
    for p, q in zip(rest[0::2], rest[1::2]):
        gates += [cx(q, p), cx(p, anchor), cx(anchor, q)]
    # Bit 0 of each column is o, bit 1 o2.
    px, pz = {}, {}
    for q in support:
        px[q] = x1 >> q & 1 | (x2 >> q & 1) << 1
        pz[q] = z1 >> q & 1 | (z2 >> q & 1) << 1
    e0 = ph1 & 1 | (ph2 & 1) << 1
    e1 = ph1 >> 1 | (ph2 >> 1) << 1
    for gate in gates:
        e0, e1 = conjugate_columns(gate, px, pz, e0, e1)
    assert e0 == 0 and px[anchor] == 0b01 and pz[anchor] == 0b10
    assert all(px[q] == pz[q] == 0 for q in support if q != anchor)
    if e1:
        gates.append((z, x, y)[e1 - 1](anchor))
    if anchor != target:
        gates.append(swap(target, anchor))
    return gates


def test_reducer_signs_match_simulation_exhaustively():
    # Every signed anticommuting Hermitian pair on one and two qubits,
    # onto every target: the gates, the final Pauli among them, equal the
    # simulated reference, and they reduce the pair exactly.
    checked = fixed = 0
    for n in (1, 2):
        letters = range(1 << n)
        for x1, z1, x2, z2 in itertools.product(letters, repeat=4):
            if not ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2:
                continue
            for s1, s2 in itertools.product((0, 2), repeat=2):
                o = (x1, z1, ((x1 & z1).bit_count() + s1) % 4)
                o2 = (x2, z2, ((x2 & z2).bit_count() + s2) % 4)
                p, p2 = PauliOperator(n, *o), PauliOperator(n, *o2)
                for t in range(n):
                    gates = clean_pair_gates(o, o2, t)
                    assert gates == reference_clean_pair_gates(o, o2, t)
                    circuit = Circuit(n, gates)
                    assert conjugate_pauli(circuit, p) == PauliOperator(n, 1 << t, 0)
                    assert conjugate_pauli(circuit, p2) == PauliOperator(n, 0, 1 << t)
                    checked += 1
                    fixed += any(g.kind in PAULI_KINDS for g in gates)
    # 6 * 4 signed pairs on one qubit; 120 * 4 on two, onto 2 targets.
    assert checked == 24 + 960
    assert 0 < fixed < checked


def test_standard_form_classes():
    # A = {0}, B = {1}, C = {2, 3}, D = {}; qubit 4 is in no class and
    # gets no gate. Cost |C| + |D| + |B| + 1 = 4.
    o = PauliOperator.from_label("XXYZI")
    o2 = PauliOperator.from_label("ZXIII")
    assert disentangle_cost(o, o2) == 4
    circuit = disentangler(o, o2)
    assert circuit.count_kind("cx") == 4
    assert all(4 not in g.qubits for g in circuit.gates)


def test_standard_form_rejects_commuting():
    with pytest.raises(ValueError, match="commute"):
        disentangler(
            PauliOperator.from_label("XX"), PauliOperator.from_label("ZZ")
        )


def test_reducer_rejects_commuting_rows():
    # Rows anticommute exactly when |A| is odd: an empty A (X, X) and an
    # even one (XX, ZZ) both commute.
    for o, o2 in (((1, 0, 0), (1, 0, 0)), ((3, 0, 0), (0, 3, 0))):
        message = re.escape(f"rows {o} and {o2} commute")
        with pytest.raises(AssertionError, match=message):
            clean_pair_gates(o, o2, 0)


def test_reducer_lands_on_every_target():
    # The synthesizers reduce onto any qubit; disentangler onto qubit 0 only.
    rng = random.Random(59)
    seen_swap = 0
    for n in range(1, 13):
        for _ in range(12):
            p, p2 = random_anticommuting_pair(rng, n)
            o, o2 = [(q.x_bits, q.z_bits, q.phase_exp) for q in (p, p2)]
            for t in range(n):
                gates = clean_pair_gates(o, o2, t)
                assert gates == reference_clean_pair_gates(o, o2, t)
                circuit = Circuit(n, gates)
                assert conjugate_pauli(circuit, p) == PauliOperator(n, 1 << t, 0)
                assert conjugate_pauli(circuit, p2) == PauliOperator(n, 0, 1 << t)
                assert circuit.count_kind("cx") == pair_cost_bits(*o[:2], *o2[:2])
                swaps = [i for i, g in enumerate(gates) if g.kind == "swap"]
                assert swaps in ([], [len(gates) - 1])
                seen_swap += bool(swaps)
    assert seen_swap > 0


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        disentangler(PauliOperator(1, 1, 0, 1), PauliOperator(1, 0, 1, 0))


def test_disentangler_exact_small_dense():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randrange(1, 4)
        o, o2 = random_anticommuting_pair(rng, n)
        u = circuit_unitary(disentangler(o, o2))
        want_x = conjugate_dense(u, pauli_matrix(PauliOperator(n, 1, 0, 0)))
        want_z = conjugate_dense(u, pauli_matrix(PauliOperator(n, 0, 1, 0)))
        assert np.allclose(want_x, pauli_matrix(o))
        assert np.allclose(want_z, pauli_matrix(o2))


def test_disentangler_exact_wide():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randrange(1, 33)
        o, o2 = random_anticommuting_pair(rng, n)
        circuit = disentangler(o, o2)
        assert isinstance(circuit, Circuit)
        x0 = PauliOperator(n, 1, 0, 0)
        z0 = PauliOperator(n, 0, 1, 0)
        assert conjugate_pauli(circuit, x0) == o
        assert conjugate_pauli(circuit, z0) == o2


def test_cost_matches_circuit():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(1, 17)
        o, o2 = random_anticommuting_pair(rng, n)
        circuit = disentangler(o, o2)
        assert disentangle_cost(o, o2) == circuit.count_kind("cx")


def test_cost_formula_examples():
    # One A qubit, nothing else: free.
    o = PauliOperator.from_label("X")
    o2 = PauliOperator.from_label("Z")
    assert disentangle_cost(o, o2) == 0
    # Three A qubits: one pair to fold, three CX.
    o = PauliOperator.from_label("XXX")
    o2 = PauliOperator.from_label("ZZZ")
    assert disentangle_cost(o, o2) == 3
    # A plus two-qubit B block: |B| + 1 = 3.
    o = PauliOperator.from_label("XXX")
    o2 = PauliOperator.from_label("ZXX")
    assert disentangle_cost(o, o2) == 3
    # A plus one C and one D qubit.
    o = PauliOperator.from_label("XYI")
    o2 = PauliOperator.from_label("ZIZ")
    assert disentangle_cost(o, o2) == 2


def test_cost_is_at_least_support_minus_one():
    # The bidirectional scan skips candidates on this bound; it holds for
    # anticommuting pairs only. The pattern costs it adds are pinned in
    # test_greedy.py.
    rng = random.Random(53)
    tight = 0
    for _ in range(2000):
        n = rng.randrange(1, 13)
        o, o2 = random_anticommuting_pair(rng, n)
        bits = (o.x_bits, o.z_bits, o2.x_bits, o2.z_bits)
        union = (bits[0] | bits[1] | bits[2] | bits[3]).bit_count()
        cost = pair_cost_bits(*bits)
        assert cost >= union - 1
        tight += cost == union - 1
    assert tight > 0


def test_deferred_swap_is_leading_gate():
    rng = random.Random(47)
    seen_swap = 0
    for _ in range(200):
        n = rng.randrange(2, 9)
        o, o2 = random_anticommuting_pair(rng, n)
        circuit = disentangler(o, o2)
        swaps = [g for g in circuit.gates if g.kind == "swap"]
        assert len(swaps) <= 1
        if swaps:
            seen_swap += 1
            assert circuit.gates[0] == swaps[0]
            assert 0 in swaps[0].qubits
    assert seen_swap > 0


def test_single_qubit_pairs():
    # Every anticommuting single-qubit pair reduces with zero CX.
    labels = ["X", "Y", "Z", "-X", "-Y", "-Z"]
    for l1 in labels:
        for l2 in labels:
            o = PauliOperator.from_label(l1)
            o2 = PauliOperator.from_label(l2)
            if l1.lstrip("-") == l2.lstrip("-"):
                continue
            circuit = disentangler(o, o2)
            assert circuit.count_kind("cx") == 0
            u = circuit_unitary(circuit)
            assert np.allclose(
                conjugate_dense(u, pauli_matrix(PauliOperator(1, 1, 0, 0))),
                pauli_matrix(o),
            )
            assert np.allclose(
                conjugate_dense(u, pauli_matrix(PauliOperator(1, 0, 1, 0))),
                pauli_matrix(o2),
            )
