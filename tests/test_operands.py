"""Wrong-type operands of the public entry points raise a ValueError that
names the operand, and numpy integer operands read as ints at any width."""

import random

import numpy as np
import pytest

from cliffopt import (
    Circuit,
    CliffordTableau,
    Gate,
    PauliOperator,
    ag_canonical,
    anticommute,
    circuit_to_tableau,
    disentangle_cost,
    disentangler,
    greedy_bidirectional,
    greedy_unidirectional,
    h,
    random_clifford,
)
from cliffopt.matching import match_and_apply
from cliffopt.stages import merge_swaps, partition_stages, pauli_layer_gates
from cliffopt.templates import Template

T = random_clifford(3, 1)
X2, Z2 = PauliOperator.from_label("XI"), PauliOperator.from_label("ZI")


@pytest.mark.parametrize(
    "call, pattern",
    [
        (lambda: greedy_unidirectional("x"), "t 'x' is not a CliffordTableau"),
        (lambda: greedy_bidirectional("x"), "t 'x' is not a CliffordTableau"),
        (
            lambda: greedy_bidirectional(T, rng=5),
            "rng 5 is not a random.Random",
        ),
        (
            lambda: partition_stages("qubits 2"),
            "c 'qubits 2' is not a Circuit",
        ),
        (lambda: merge_swaps(Circuit(2, ())), "p Circuit.* is not a StagePartition"),
        (lambda: ag_canonical(Circuit(2, ())), "t Circuit.* is not a CliffordTableau"),
        (lambda: T.conjugate("XYZ"), "p 'XYZ' is not a PauliOperator"),
        (lambda: T.then("x"), "other 'x' is not a CliffordTableau"),
        (lambda: T.right_apply_circuit("x"), "circuit 'x' is not a Circuit"),
        (lambda: CliffordTableau(3).row("1"), "row '1' is not an integer"),
        (lambda: CliffordTableau(3).row_phase(1.0), "row 1.0 is not an integer"),
        (lambda: disentangler("XZ", Z2), "o 'XZ' is not a PauliOperator"),
        (lambda: disentangle_cost(X2, "ZI"), "o2 'ZI' is not a PauliOperator"),
        (lambda: anticommute(X2, "ZI"), "q 'ZI' is not a PauliOperator"),
        (lambda: pauli_layer_gates("XZ"), "p 'XZ' is not a PauliOperator"),
        (lambda: Circuit(2, ()) + "h 0", "other 'h 0' is not a Circuit"),
        (lambda: X2 * "ZI", "other 'ZI' is not a PauliOperator"),
        (lambda: T.apply_circuit("h 0"), "circuit 'h 0' is not a Circuit"),
        (lambda: X2.axis("a"), "q 'a' is not an integer"),
        (lambda: Circuit.from_text(b"qubits 1\n"), "text b'qubits 1.* is not a str"),
        (lambda: Circuit.from_text(None), "text None is not a str"),
        (lambda: Circuit(2, h(0)), "gates Gate.* is not iterable"),
        (lambda: Circuit(2, None), "gates None is not iterable"),
        (lambda: Circuit(2).extended(5), "gates 5 is not iterable"),
        # A bool is a truth value, not a qubit, a width or a bit mask.
        (lambda: Gate("cx", (False, True)), "gate 'cx' qubit False is not an integer"),
        (lambda: CliffordTableau(True), "tableau width n True is not an integer"),
        (lambda: T.row(True), "row True is not an integer"),
        (lambda: X2.axis(True), "q True is not an integer"),
        (lambda: PauliOperator(2, True, 0), "x_bits True is not an integer"),
        (lambda: Gate("h", 0), "gate 'h' qubits 0 is not iterable"),
        (lambda: Gate(["h"], (0,)), r"gate kind \['h'\] is not a str"),
        (lambda: Template("t", None, 1), "template 't' gates None is not iterable"),
        (
            lambda: match_and_apply(Circuit(1), Template("hh", (h(0), h(0)), 1)),
            "templates Template.* is not iterable",
        ),
        (lambda: match_and_apply(Circuit(1), 5), "templates 5 is not iterable"),
        (lambda: PauliOperator.from_label(None), "label None is not a str"),
        # random.Random itself would seed None from the OS and take a
        # float, a str or a bool.
        (lambda: random_clifford(2, None), "seed None is not an integer"),
        (lambda: random_clifford(2, 1.5), "seed 1.5 is not an integer"),
        (lambda: random_clifford(2, "7"), "seed '7' is not an integer"),
        (lambda: random_clifford(2, True), "seed True is not an integer"),
        (lambda: random_clifford(2, [1]), r"seed \[1\] is not an integer"),
    ],
)
def test_wrong_type_operand_is_named(call, pattern):
    with pytest.raises(ValueError, match=pattern):
        call()


def test_random_subclass_is_accepted():
    c = greedy_bidirectional(T, rng=random.SystemRandom())
    assert circuit_to_tableau(c) == T


@pytest.mark.parametrize(
    "n, r", [(40, np.int64(3)), (32, np.int64(3)), (16, np.int32(20))]
)
def test_numpy_row_reads_as_int_at_width(n, r):
    t = random_clifford(n, 1)
    assert t.row(r) == t.row(int(r))
    assert t.row_bits(r) == t.row_bits(int(r))
    assert t.row_phase(r) == t.row_phase(int(r))


def test_numpy_seed_reads_as_int():
    assert random_clifford(3, np.int64(7)) == random_clifford(3, 7)


def test_numpy_qubit_reads_as_int_at_width():
    assert PauliOperator(70, 1 << 69, 0).axis(np.int64(69)) == "X"
