"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import inputs
import pipeline
import run
import symplectic
from cliffopt import Circuit, Gate, circuit_to_tableau

KINDS = sorted(symplectic.GATE_ARITY)


def random_gates(rng: random.Random, n: int, length: int) -> list[symplectic.Gate]:
    kinds = [k for k in KINDS if symplectic.GATE_ARITY[k] <= n]
    out = []
    for _ in range(length):
        kind = rng.choice(kinds)
        out.append((kind, tuple(rng.sample(range(n), symplectic.GATE_ARITY[kind]))))
    return out


def compiled_output(workload: str, seed: int = 3) -> tuple[str, Circuit]:
    w = inputs.WORKLOADS[workload]
    text = inputs.warmup_instance(w, seed).text
    source = pipeline.load_tableau(text) if w.synth else text
    return text, pipeline.compile_one(source, w.synth).output


@pytest.mark.parametrize("seed", range(40))
def test_simulator_agrees_with_circuit_to_tableau(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    gates = random_gates(rng, n, rng.randint(0, 80))
    ours = symplectic.tableau(n, gates)
    theirs = circuit_to_tableau(Circuit(n, tuple(Gate(k, q) for k, q in gates)))
    for r, (x, z, sign) in enumerate(ours):
        assert theirs.row_bits(r) == (x, z)
        assert theirs.row(r).sign() == (-1 if sign else 1)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_pipeline_output_verifies(workload):
    text, output = compiled_output(workload)
    assert run.implements(text, output)


def test_verifier_rejects_a_dropped_pauli():
    text, output = compiled_output("circuit-rewrite")
    paulis = [i for i, g in enumerate(output.gates) if g.kind in ("x", "y", "z")]
    assert paulis
    for i in paulis:
        dropped = Circuit(output.n, output.gates[:i] + output.gates[i + 1:])
        assert not run.implements(text, dropped)


def test_verifier_rejects_a_reversed_cx():
    text, output = compiled_output("clifford-bi")
    cxs = [i for i, g in enumerate(output.gates) if g.kind == "cx"]
    assert cxs
    for i in cxs:
        gates = list(output.gates)
        gates[i] = Gate("cx", gates[i].qubits[::-1])
        assert not run.implements(text, Circuit(output.n, tuple(gates)))


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_are_byte_identical_for_a_seed(workload):
    w = inputs.WORKLOADS[workload]
    first = inputs.instances(w, 7)
    assert first == inputs.instances(w, 7)
    assert inputs.digest(first) != inputs.digest(inputs.instances(w, 8))
    assert [inst.n for inst in first] == [n for n, _ in w.specs]


def test_circuit_inputs_have_the_cz_form_shares():
    rng = random.Random(1)
    gates = inputs.random_cz_circuit(rng, 6, 300)
    counts = Counter(kind for kind, _ in gates)
    assert counts == {k: 300 * p // 20 for k, p in inputs.CZ_FORM_PARTS.items()}


def test_random_clifford_is_uniform_on_one_qubit():
    # 24 one-qubit Cliffords up to phase: 6 ordered letter pairs, 4 signs.
    rng = random.Random(5)
    draws = Counter(symplectic.tableau(1, inputs.random_clifford(rng, 1)) for _ in range(2400))
    assert len(draws) == 24
    assert all(60 <= count <= 140 for count in draws.values())


def test_self_times_subtract_children():
    S = pipeline.Span
    spans = [S("compile", 0.0, 10.0, None, 0), S("a", 1.0, 4.0, 0, 0), S("b", 5.0, 6.0, 0, 0),
             S("compile", 20.0, 22.0, None, 1)]
    assert pipeline.self_times(spans, 0) == {"compile": 8.0, "a": 3.0, "b": 1.0}
    assert pipeline.self_times(spans, 3) == {"compile": 2.0}


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
