"""The compile pipeline under test, made only of cliffopt's public calls.

Tableau input: greedy synthesis -> stages.partition_stages ->
stages.merge_swaps -> matching.match_and_apply (built-in templates, no
deadline) -> the partition's Pauli layer appended. Circuit input:
Circuit.from_text, then the same four steps. The template pass runs on
the circuit as it arrives, without to_cz_form: on synthesized circuits
CZ-form matching costs 10-20x the time and removes at most one
two-qubit gate.

Each call is wrapped in a span of a Tracer, or of NO_TRACE when the run
is not traced.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliffopt import (  # noqa: E402
    Circuit,
    CliffordTableau,
    ag_canonical,
    circuit_to_tableau,
    disentangle_cost,
    disentangler,
    greedy_bidirectional,
    greedy_unidirectional,
)
from cliffopt.matching import match_and_apply  # noqa: E402
from cliffopt.stages import StagePartition, merge_swaps, partition_stages, pauli_layer_gates  # noqa: E402

SYNTHESIZERS = {"bidirectional": greedy_bidirectional, "unidirectional": greedy_unidirectional}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    instance: int


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, instance)


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str, instance: int):
        return self._null


NO_TRACE = _NoTrace()


def self_times(spans: list[Span], first: int) -> dict[str, float]:
    """Self time by span name over spans[first:]: each span's duration
    minus the time its child spans cover."""
    total: dict[str, float] = {}
    for span in spans[first:]:
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        if span.parent is not None and span.parent >= first:
            parent = spans[span.parent].name
            total[parent] = total.get(parent, 0.0) - duration
    return total


@dataclass(frozen=True)
class Compiled:
    source: Circuit  # the parsed input or the synthesized circuit
    synthesized: bool
    partition: StagePartition
    merged: Circuit
    matched: Circuit
    output: Circuit


def to_tableau(circuit: Circuit, tracer=NO_TRACE, instance: int = -1) -> CliffordTableau:
    with tracer.span("tableau.circuit_to_tableau", instance):
        return circuit_to_tableau(circuit)


def load_tableau(text: str, tracer=NO_TRACE, instance: int = -1) -> CliffordTableau:
    """The input tableau of a Clifford workload instance."""
    with tracer.span("circuit.parse", instance):
        circuit = Circuit.from_text(text)
    return to_tableau(circuit, tracer, instance)


def compile_one(source, synth: str | None, tracer=NO_TRACE, instance: int = -1) -> Compiled:
    """Run the pipeline on a tableau (synth names the synthesizer) or on
    circuit text (synth is None)."""
    with tracer.span("compile", instance):
        if synth is None:
            with tracer.span("circuit.parse", instance):
                circuit = Circuit.from_text(source)
        else:
            with tracer.span(f"synth.greedy.{synth}", instance):
                circuit = SYNTHESIZERS[synth](source)
        with tracer.span("stages.partition", instance):
            partition = partition_stages(circuit)
        with tracer.span("stages.merge_swaps", instance):
            merged = merge_swaps(partition)
        with tracer.span("matching.match", instance):
            matched = match_and_apply(merged)
        with tracer.span("stages.pauli_layer", instance):
            output = matched.extended(pauli_layer_gates(partition.pauli))
    return Compiled(circuit, synth is not None, partition, merged, matched, output)


def baselines(tableau: CliffordTableau, tracer=NO_TRACE, instance: int = -1) -> tuple[int, Circuit]:
    """Disentangler cost summed over the (X_q, Z_q) image pairs, and the
    ag_canonical circuit, of an input tableau."""
    n = tableau.n
    pairs = [(tableau.row(q), tableau.row(n + q)) for q in range(n)]
    with tracer.span("synth.disentangle.disentangler", instance):
        cost = 0
        for o, o2 in pairs:
            disentangler(o, o2)
            cost += disentangle_cost(o, o2)
    with tracer.span("synth.canonical.ag", instance):
        ag = ag_canonical(tableau)
    return cost, ag
