"""Clifford circuit synthesis and optimization."""

from .circuit import (
    Circuit,
    Gate,
    TWO_QUBIT_WEIGHT,
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
from .pauli import PauliOperator, anticommute
from .synth.canonical import ag_canonical
from .synth.disentangle import disentangle_cost, disentangler
from .synth.greedy import greedy_bidirectional, greedy_unidirectional
from .tableau import (
    CliffordTableau,
    circuit_to_tableau,
    conjugate_pauli,
    random_clifford,
)

__all__ = [
    "Circuit",
    "CliffordTableau",
    "Gate",
    "PauliOperator",
    "TWO_QUBIT_WEIGHT",
    "ag_canonical",
    "anticommute",
    "circuit_to_tableau",
    "conjugate_pauli",
    "cx",
    "cz",
    "disentangle_cost",
    "disentangler",
    "greedy_bidirectional",
    "greedy_unidirectional",
    "h",
    "random_clifford",
    "s",
    "sdg",
    "swap",
    "x",
    "y",
    "z",
]

__version__ = "0.1.0"
