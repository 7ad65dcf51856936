"""Seeded workload inputs, generated without cliffopt.

Every input is circuit text in the ``qubits N`` format, so that the same
workload and seed give byte-identical inputs whatever ``cliffopt`` does.
Clifford workloads start from a random Clifford's gate list (turned into a
tableau during set-up); the circuit workload feeds the text straight to
the pipeline.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from symplectic import GATE_ARITY, Gate, conjugate, inverse, to_text

# Share of each gate kind in a circuit-rewrite input, in parts of 20: the
# paper's CZ form (no CX). Fixed shares keep the two-qubit weight of the
# input, and so the spread of the output counts, the same across seeds.
CZ_FORM_PARTS = {"cz": 7, "swap": 2, "h": 4, "s": 2, "sdg": 2, "x": 1, "y": 1, "z": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    # Greedy synthesizer fed with the input tableau, or None when the
    # pipeline reads the input circuit text instead.
    synth: str | None
    # One (qubits, gates) pair per instance; gates is None for a random
    # Clifford, whose gate count follows from the construction.
    specs: tuple[tuple[int, int | None], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("clifford-bi", "bidirectional", tuple((n, None) for n in range(6, 17, 2))),
        # Short circuits come twice: they take the least time, so they add
        # instances, and steady the sums, at the lowest cost in run time.
        Workload(
            "circuit-rewrite",
            None,
            tuple((n, g) for n in (5, 6, 7, 8) for g in (200, 200, 300, 400)),
        ),
        Workload("clifford-wide", "unidirectional", tuple((n, None) for n in range(24, 41, 4))),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    n: int
    text: str


def instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's inputs for one seed, in a fixed order."""
    return [
        _instance(workload, random.Random(f"{workload.name}/{seed}/{i}"), i, n, g)
        for i, (n, g) in enumerate(workload.specs)
    ]


def warmup_instance(workload: Workload, seed: int) -> Instance:
    """A small input of the workload's kind, compiled once before timing."""
    return _instance(workload, random.Random(f"{workload.name}/{seed}/warmup"), -1, 4, 40)


def digest(insts: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(inst.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def _instance(workload: Workload, rng: random.Random, i: int, n: int, g: int | None) -> Instance:
    gates = random_clifford(rng, n) if workload.synth else random_cz_circuit(rng, n, g)
    return Instance(i, n, to_text(n, gates))


def random_cz_circuit(rng: random.Random, n: int, length: int) -> list[Gate]:
    """A random CZ-form circuit with the kind shares of CZ_FORM_PARTS."""
    if length % 20:
        raise ValueError(f"length {length} is not a multiple of 20")
    kinds = [k for k, parts in CZ_FORM_PARTS.items() for _ in range(length * parts // 20)]
    rng.shuffle(kinds)
    return [(k, tuple(rng.sample(range(n), GATE_ARITY[k]))) for k in kinds]


def random_clifford(rng: random.Random, n: int) -> list[Gate]:
    """Gates of a uniformly random n-qubit Clifford, signs included.

    The anticommuting-pair construction: for m = 1..n, draw a uniform
    anticommuting pair (O, O') of signed Hermitian Paulis on qubits
    0..m-1 and append a circuit that maps (X_{m-1}, Z_{m-1}) to it. The
    Clifford built so far acts on qubits 0..m-2 only, so every m-qubit
    Clifford arises from exactly one sequence of pairs.
    """
    gates: list[Gate] = []
    for m in range(1, n + 1):
        gates += inverse(_reduce_pair(*_random_pair(rng, m), m - 1))
    return gates


def _random_pair(rng: random.Random, m: int):
    mask = (1 << m) - 1
    while True:
        bits = rng.getrandbits(2 * m)
        x1, z1 = bits & mask, bits >> m
        if x1 | z1:
            break
    while True:
        bits = rng.getrandbits(2 * m)
        x2, z2 = bits & mask, bits >> m
        if ((x1 & z2).bit_count() + (z1 & x2).bit_count()) & 1:
            break
    return (x1, z1, rng.getrandbits(1)), (x2, z2, rng.getrandbits(1))


def _reduce_pair(a, b, t: int) -> list[Gate]:
    """Gates whose conjugation maps the anticommuting rows a, b to +X_t, +Z_t."""
    gates: list[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        nonlocal a, b
        gates.append((kind, qubits))
        a = conjugate(kind, qubits, *a)
        b = conjugate(kind, qubits, *b)

    # a onto X letters, then folded onto one pivot and moved to t.
    for q in _bits(a[0] | a[1]):
        if not (a[0] >> q) & 1:
            emit("h", q)
        elif (a[1] >> q) & 1:
            emit("s", q)
    pivot = t if (a[0] >> t) & 1 else _bits(a[0])[0]
    for q in _bits(a[0]):
        if q != pivot:
            emit("cx", pivot, q)
    if pivot != t:
        emit("swap", pivot, t)
    # b anticommutes with X_t, so it holds Z or Y on t. H S H fixes X_t
    # and turns Y_t into Z_t; each other letter is turned into Z and
    # folded onto t by a CX, which also fixes X_t.
    if (b[0] >> t) & 1:
        emit("h", t)
        emit("s", t)
        emit("h", t)
    for q in _bits((b[0] | b[1]) & ~(1 << t)):
        if (b[0] >> q) & 1:
            if (b[1] >> q) & 1:
                emit("s", q)
            emit("h", q)
        emit("cx", q, t)
    if a[2]:
        emit("z", t)
    if b[2]:
        emit("x", t)
    if a != (1 << t, 0, 0) or b != (0, 1 << t, 0):
        raise AssertionError("pair reduction did not reach (X_t, Z_t)")
    return gates


def _bits(mask: int) -> list[int]:
    return [q for q in range(mask.bit_length()) if (mask >> q) & 1]
