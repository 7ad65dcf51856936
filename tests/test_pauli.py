"""Phase-exact Pauli algebra against the dense unitary reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffopt import (
    Circuit,
    PauliOperator,
    anticommute,
    conjugate_pauli,
    cx,
    cz,
    h,
    s,
    sdg,
    swap,
    x,
    y,
    z,
)

from _dense import circuit_unitary, conjugate_dense, gate_unitary, pauli_matrix


def all_paulis(n: int, phases=(0, 1, 2, 3)):
    for xb in range(1 << n):
        for zb in range(1 << n):
            for e in phases:
                yield PauliOperator(n, xb, zb, e)


SINGLE_GATES = [h(0), s(0), sdg(0), x(0), y(0), z(0)]
TWO_GATES = [cx(0, 1), cx(1, 0), cz(0, 1), swap(0, 1)]


@pytest.mark.parametrize("gate", SINGLE_GATES, ids=str)
def test_single_qubit_conjugation_matches_dense(gate):
    u = gate_unitary(gate, 1)
    for p in all_paulis(1):
        got = pauli_matrix(conjugate_pauli(Circuit(p.n, (gate,)), p))
        want = conjugate_dense(u, pauli_matrix(p))
        assert np.allclose(got, want), f"{gate} on {p.to_label()}"


@pytest.mark.parametrize("gate", TWO_GATES, ids=str)
def test_two_qubit_conjugation_matches_dense(gate):
    u = gate_unitary(gate, 2)
    for p in all_paulis(2):
        got = pauli_matrix(conjugate_pauli(Circuit(p.n, (gate,)), p))
        want = conjugate_dense(u, pauli_matrix(p))
        assert np.allclose(got, want), f"{gate} on {p.to_label()}"


def test_product_matches_dense():
    ops = list(all_paulis(2, phases=(0, 1)))
    for p in ops:
        mp = pauli_matrix(p)
        for q in ops:
            assert np.allclose(pauli_matrix(p * q), mp @ pauli_matrix(q))


def test_product_phase_example():
    xop = PauliOperator(1, 1, 0, 0)
    zop = PauliOperator(1, 0, 1, 0)
    assert (xop * zop).to_label() == "-iY"
    assert (zop * xop).to_label() == "iY"


def test_known_conjugations():
    x0 = PauliOperator.from_label("X")
    assert conjugate_pauli(Circuit(1, (h(0),)), x0) == PauliOperator.from_label("Z")
    x0_2 = PauliOperator(2, 1, 0, 0)
    got = conjugate_pauli(Circuit(2, (cx(0, 1),)), x0_2)
    assert got == PauliOperator.from_label("XX")
    y3 = PauliOperator.from_label("IIIY")
    assert conjugate_pauli(Circuit(4, ()), y3) == y3
    y0 = PauliOperator.from_label("Y")
    assert conjugate_pauli(Circuit(1, (s(0),)), y0) == PauliOperator.from_label("-X")


def test_labels_roundtrip():
    for label in ["XIZ", "-YZ", "iXY", "+II", "-iZZZ"]:
        expected = label if label[0] in "+-i" else "+" + label
        assert PauliOperator.from_label(label).to_label() == expected


def test_label_parsing():
    p = PauliOperator.from_label("-YZ")
    assert (p.x_bits, p.z_bits) == (1, 3)
    # Y carries a +1 phase on top of the minus sign.
    assert p.phase_exp == 3
    with pytest.raises(ValueError, match="bad Pauli letter"):
        PauliOperator.from_label("XQ")
    with pytest.raises(ValueError, match="empty Pauli label '-'"):
        PauliOperator.from_label("-")


def test_hermitian_and_sign():
    assert PauliOperator.from_label("X").sign() == 1
    assert PauliOperator.from_label("-X").sign() == -1
    assert PauliOperator.from_label("Y").is_hermitian
    assert PauliOperator.from_label("Y").sign() == 1
    skew = PauliOperator(1, 1, 0, 1)  # iX
    assert not skew.is_hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        skew.sign()


def test_weight_and_y_count():
    p = PauliOperator.from_label("XYZI")
    assert p.weight == 3
    assert p.y_count == 1
    assert PauliOperator.identity(4).is_identity


def test_anticommute_matches_dense():
    for p in all_paulis(2, phases=(0,)):
        for q in all_paulis(2, phases=(0,)):
            mp, mq = pauli_matrix(p), pauli_matrix(q)
            dense_anti = np.allclose(mp @ mq, -(mq @ mp))
            assert anticommute(p, q) == dense_anti
            assert p.commutes_with(q) == (not dense_anti)


def test_axis_letters():
    p = PauliOperator.from_label("XYZI")
    assert [p.axis(q) for q in range(4)] == ["X", "Y", "Z", "I"]


@pytest.mark.parametrize("q", [5, 2, -1])
def test_axis_rejects_qubit_out_of_range(q):
    with pytest.raises(ValueError, match=f"q {q} out of range for 2"):
        PauliOperator.from_label("XY").axis(q)


GATE_POOL = [
    h(0), h(1), h(2), s(0), s(1), sdg(2), x(0), y(1), z(2),
    cx(0, 1), cx(1, 2), cx(2, 0), cz(0, 1), cz(1, 2), swap(0, 2),
]


@settings(max_examples=60, deadline=None)
@given(
    gate_idx=st.lists(st.integers(0, len(GATE_POOL) - 1), max_size=12),
    xb=st.integers(0, 7),
    zb=st.integers(0, 7),
    e=st.integers(0, 3),
)
def test_circuit_conjugation_matches_dense(gate_idx, xb, zb, e):
    circuit = Circuit(3, tuple(GATE_POOL[i] for i in gate_idx))
    p = PauliOperator(3, xb, zb, e)
    got = pauli_matrix(conjugate_pauli(circuit, p))
    want = conjugate_dense(circuit_unitary(circuit), pauli_matrix(p))
    assert np.allclose(got, want)


def test_width_mismatch_errors():
    with pytest.raises(ValueError, match="component bits out of range"):
        PauliOperator(2, 4, 0)
    p1 = PauliOperator.identity(1)
    p2 = PauliOperator.identity(2)
    with pytest.raises(ValueError, match="width"):
        _ = p1 * p2
    with pytest.raises(ValueError, match="width"):
        anticommute(p1, p2)
    with pytest.raises(ValueError, match="width"):
        conjugate_pauli(Circuit(2, ()), p1)
