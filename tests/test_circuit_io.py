"""Gate and circuit containers, text format, and inverse correctness."""

import numpy as np
import pytest

from cliffopt import (
    Circuit,
    CliffordTableau,
    Gate,
    PauliOperator,
    circuit_to_tableau,
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

from _dense import circuit_unitary

SAMPLE = Circuit(
    3,
    (h(0), s(1), sdg(2), x(0), y(1), z(2), cx(0, 1), cz(1, 2), swap(0, 2)),
)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("q", (0,))
    with pytest.raises(ValueError):
        Gate("h", (0, 1))
    with pytest.raises(ValueError):
        Gate("cx", (1,))
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("h", (-1,))


def test_non_integer_operands_are_rejected():
    with pytest.raises(ValueError, match="'h'.*1.5"):
        circuit_to_tableau(Circuit(2, (h(1.5),)))
    with pytest.raises(ValueError, match="'cx'.*'1'"):
        Gate("cx", (0, "1"))
    with pytest.raises(ValueError, match="2.5"):
        Circuit(2.5)
    with pytest.raises(ValueError, match="2.0"):
        CliffordTableau(2.0)
    with pytest.raises(ValueError, match="'h 0'"):
        Circuit(2, ("h 0",))
    with pytest.raises(ValueError, match="x_bits 1.5"):
        PauliOperator(2, 1.5, 0, 0)
    with pytest.raises(ValueError, match="n 2.5"):
        PauliOperator(2.5, 1, 0, 0)
    with pytest.raises(ValueError, match="phase_exp 1.5"):
        PauliOperator(2, 1, 0, 1.5)
    with pytest.raises(ValueError, match="z_bits '1'"):
        PauliOperator(2, 1, "1", 0)
    # numpy integers are integers; they are stored as int.
    g = Gate("cz", (np.int64(3), np.int64(1)))
    assert g == cz(1, 3) and type(g.qubits[0]) is int
    c = Circuit(np.int64(2), (Gate("cx", (np.int64(1), 0)),))
    assert c == Circuit(2, (cx(1, 0),)) and type(c.n) is int
    assert CliffordTableau(np.int64(2)) == CliffordTableau(2)
    p = PauliOperator(np.int64(2), np.int64(1), 0, np.int64(5))
    assert p == PauliOperator(2, 1, 0, 1) and type(p.x_bits) is int


def test_unordered_kinds_sort_operands():
    assert cz(2, 0).qubits == (0, 2)
    assert swap(3, 1).qubits == (1, 3)
    assert cx(2, 0).qubits == (2, 0)  # control/target order is meaningful


def test_gate_inverse():
    assert s(0).inverse() == sdg(0)
    assert sdg(4).inverse() == s(4)
    for g in (h(0), x(1), y(2), z(0), cx(0, 1), cz(0, 1), swap(0, 1)):
        assert g.inverse() == g


def test_circuit_counts():
    assert len(SAMPLE) == 9
    # cx + cz + swap with swap counting as three.
    assert SAMPLE.two_qubit_count == 5
    assert SAMPLE.count_kind("h") == 1
    assert SAMPLE.count_kind("cx") == 1
    assert len(SAMPLE) == 9


def test_circuit_validation():
    # Gates given as a list are stored as a tuple.
    assert Circuit(2, [h(0)]).gates == (h(0),)
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(2, (h(5),))
    with pytest.raises(ValueError):
        Circuit(2, ()) + Circuit(3, ())


def test_circuit_inverse_is_dense_inverse():
    u = circuit_unitary(SAMPLE)
    v = circuit_unitary(SAMPLE.inverse())
    assert np.allclose(v, u.conj().T)


def test_concatenation_order():
    c1 = Circuit(2, (h(0),))
    c2 = Circuit(2, (cx(0, 1),))
    u = circuit_unitary(c1 + c2)
    # Gates listed first act first.
    want = circuit_unitary(c2) @ circuit_unitary(c1)
    assert np.allclose(u, want)


def test_relabeled():
    c = Circuit(3, (cx(0, 1), h(2))).relabeled({0: 2, 1: 1, 2: 0})
    assert c.gates == (cx(2, 1), h(0))


@pytest.mark.parametrize(
    "call, pattern",
    [
        (lambda: Circuit(2, (cx(0, 1),)).relabeled([0]), "cx 0 1: qubit 1 "),
        (lambda: h(0).relabeled({}), "h 0: qubit 0 "),
        # A mapping that cannot be indexed maps no qubit.
        (lambda: h(0).relabeled(5), "gate h 0: qubit 0 "),
        (lambda: Circuit(1, [h(0)]).relabeled(None), "^gate h 0: qubit 0 "),
    ],
)
def test_relabel_miss_names_the_qubit(call, pattern):
    with pytest.raises(ValueError, match=pattern + "is not mapped"):
        call()


def test_gates_are_interned():
    # The factories, inverse, relabeled and from_text hand out one object
    # per (kind, operands); Gate(...) still builds a new, equal one.
    assert cz(1, 0) is cz(0, 1)
    assert s(2).inverse() is sdg(2)
    assert cx(0, 1).relabeled([1, 0]) is cx(1, 0)
    c = Circuit.from_text("qubits 2\nh 1\ncx 0 1\nh 1\n")
    assert c.gates[0] is c.gates[2]
    assert Gate("h", (1,)) is not h(1) and Gate("h", (1,)) == h(1)


def test_interning_keeps_operand_checks():
    # A bool or a numpy integer equals and hashes like an int, so it must
    # not find the stored int gate.
    cx(0, 1)
    with pytest.raises(ValueError, match="qubit False is not an integer"):
        cx(False, True)
    with pytest.raises(ValueError, match="qubit True is not an integer"):
        h(0).relabeled([True])
    g = h(np.int64(3))
    assert g == h(3) and type(g.qubits[0]) is int


def test_text_roundtrip():
    text = SAMPLE.to_text()
    assert text.startswith("qubits 3\n")
    assert Circuit.from_text(text) == SAMPLE


def test_text_format_exact():
    c = Circuit(2, (h(0), cx(1, 0)))
    assert c.to_text() == "qubits 2\nh 0\ncx 1 0\n"


def test_text_comments_and_blanks():
    text = "# header comment\n\nqubits 2\nh 0\n\n# middle\ncx 0 1\n"
    assert Circuit.from_text(text) == Circuit(2, (h(0), cx(0, 1)))


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("h 0\n", "line 1"),
        ("qubits two\n", "line 1"),
        ("qubits 2\nfoo 0\n", "line 2"),
        ("qubits 2\nh 0 1\n", "line 2"),
        ("qubits 2\nh 5\n", "line 2"),
        ("qubits 2\ncx 0\n", "line 2"),
        ("qubits 2\ncx 1 1\n", "line 2"),
        ("qubits 2\nh x\n", "line 2"),
        ("qubits \u00b2\n", "line 1"),
        ("qubits 2\nh \u00b2\n", "line 2"),
        ("", "missing"),
    ],
)
def test_text_errors(text, pattern):
    with pytest.raises(ValueError, match=pattern):
        Circuit.from_text(text)


def test_gate_str():
    assert str(h(3)) == "h 3"
    assert str(cx(1, 0)) == "cx 1 0"
