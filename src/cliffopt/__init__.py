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
from .pauli import PauliOperator, anticommute, conjugate_pauli
from .synth.canonical import ag_canonical
from .synth.disentangle import (
    DisentangleResult,
    StandardFormPartition,
    disentangle_cost,
    disentangler,
    standard_form,
)
from .synth.greedy import greedy_bidirectional, greedy_unidirectional
from .tableau import (
    CliffordTableau,
    circuit_to_tableau,
    random_clifford,
)

__all__ = [
    "Circuit",
    "CliffordTableau",
    "DisentangleResult",
    "Gate",
    "PauliOperator",
    "StandardFormPartition",
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
    "standard_form",
    "swap",
    "x",
    "y",
    "z",
]

__version__ = "0.1.0"
