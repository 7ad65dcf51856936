"""Stage partition and SWAP merging keep the tableau, signs included."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cliffopt import Circuit, circuit_to_tableau
from cliffopt.circuit import PAULI_KINDS
from cliffopt.stages import merge_swaps, partition_stages, pauli_layer_gates

from _util import gate_pool

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
