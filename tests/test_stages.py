"""Stage partition and SWAP merging keep the tableau, signs included."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffopt import (
    Circuit,
    PauliOperator,
    ag_canonical,
    circuit_to_tableau,
    greedy_bidirectional,
    greedy_unidirectional,
)
from cliffopt.circuit import PAULI_KINDS
from cliffopt.stages import (
    StagePartition,
    merge_swaps,
    partition_stages,
    pauli_layer_gates,
)
from cliffopt.matching import match_and_apply

from _util import gate_pool, random_circuit

POOLS = {n: gate_pool(n) for n in range(1, 6)}


@st.composite
def circuits(draw) -> Circuit:
    n = draw(st.integers(1, 5))
    pool = POOLS[n]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return Circuit(n, tuple(pool[i] for i in picks))


@settings(max_examples=150, deadline=None)
@given(c=circuits())
def test_partition_keeps_tableau(c):
    p = partition_stages(c)
    assert all(
        g.kind not in PAULI_KINDS and g.kind != "swap" for g in p.compute
    )
    assert sorted(p.permutation) == list(range(c.n))
    assert circuit_to_tableau(p.to_circuit()) == circuit_to_tableau(c)


@settings(max_examples=150, deadline=None)
@given(c=circuits())
def test_merge_swaps_then_pauli_layer_keeps_tableau(c):
    p = partition_stages(c)
    merged = merge_swaps(p)
    assert merged.count_kind("swap") == 0
    assert merged.two_qubit_count <= p.to_circuit().two_qubit_count
    out = merged.extended(pauli_layer_gates(p.pauli))
    assert circuit_to_tableau(out) == circuit_to_tableau(c)


@settings(max_examples=100, deadline=None)
@given(c=circuits())
def test_unchecked_pass_outputs_are_valid(c):
    # These outputs skip Circuit's per-gate check (Circuit._of); each must
    # be what the public constructor builds from its width and gates.
    t = circuit_to_tableau(c)
    p = partition_stages(c)
    merged = merge_swaps(p)
    outputs = [
        greedy_unidirectional(t),
        greedy_bidirectional(t),
        greedy_bidirectional(t, random.Random(len(c))),
        ag_canonical(t),
        p.compute,
        merged,
        match_and_apply(merged),
        match_and_apply(c),
        match_and_apply(c, deadline=-math.inf),
        c + p.compute,
        c.inverse(),
    ]
    for out in outputs:
        assert type(out.n) is int and type(out.gates) is tuple
        assert Circuit(out.n, out.gates) == out


def test_merge_outputs_match_recorded_digest():
    # Recorded before SWAP merging became one backward scan; the merges
    # it picks and the gates it emits must not move. The compute stages
    # hold SWAPs, and the permutations are drawn apart from them.
    rng = random.Random(23)
    digest = hashlib.sha256()
    for n in range(2, 9):
        for _ in range(30):
            c = random_circuit(rng, n, rng.randrange(0, 60), include_pauli=False)
            perm = list(range(n))
            rng.shuffle(perm)
            p = StagePartition(c, tuple(perm), PauliOperator.identity(n))
            digest.update(merge_swaps(p).to_text().encode())
    assert digest.hexdigest() == (
        "1e27af82ed72df8635f7ec234f674a718a359e1bdeb568ee9eb1f05549021787"
    )


@pytest.mark.parametrize(
    "perm, pauli_n, field",
    [
        ((0, 0), 2, "permutation"),
        ((1, 2), 2, "permutation"),
        ((0,), 2, "permutation"),
        ((1, 0), 3, "pauli"),
        ((1.0, 0.0), 2, "permutation"),
        ((1, 0), 2, "compute"),
        ((1, 0), None, "pauli"),
        (None, 2, r"permutation None does not permute range\(2\)"),
    ],
)
def test_malformed_partition_is_rejected(perm, pauli_n, field):
    compute = "qubits 2" if field == "compute" else Circuit(2)
    pauli = "XX" if pauli_n is None else PauliOperator.identity(pauli_n)
    with pytest.raises(ValueError, match=field):
        StagePartition(compute, perm, pauli)
