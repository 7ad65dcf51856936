"""Row-major symplectic simulator with exact signs, independent of cliffopt.

The benchmark checks every output of ``cliffopt`` with this module, so it
shares no code with the package under test: it has its own text parser,
its own gate rules and its own tableau layout.

A tableau of an n-qubit Clifford U is a list of 2n rows. Row j is the
image U X_j U^-1 and row n + j is U Z_j U^-1. A row is a triple
``(x, z, r)``: ``x`` and ``z`` are qubit bitmasks (qubit q is bit q) of
the Hermitian Pauli with letter X for (1, 0), Y for (1, 1) and Z for
(0, 1), and ``r`` is 1 when the row carries a minus sign. Gates update a
row by the Aaronson-Gottesman rules (arXiv:quant-ph/0406196).
"""

from __future__ import annotations

GATE_ARITY = {
    "h": 1, "s": 1, "sdg": 1, "x": 1, "y": 1, "z": 1,
    "cx": 2, "cz": 2, "swap": 2,
}

INVERSE_KIND = {"s": "sdg", "sdg": "s"}

Gate = tuple[str, tuple[int, ...]]
Row = tuple[int, int, int]


def conjugate(kind: str, qubits: tuple[int, ...], x: int, z: int, r: int) -> Row:
    """The row (x, z, r) conjugated by one gate: g P g^-1."""
    a = qubits[0]
    xa = (x >> a) & 1
    za = (z >> a) & 1
    if kind == "h":
        r ^= xa & za
        if xa != za:
            x ^= 1 << a
            z ^= 1 << a
    elif kind == "s":
        r ^= xa & za
        z ^= xa << a
    elif kind == "sdg":
        r ^= xa & (za ^ 1)
        z ^= xa << a
    elif kind == "x":
        r ^= za
    elif kind == "y":
        r ^= xa ^ za
    elif kind == "z":
        r ^= xa
    else:
        b = qubits[1]
        xb = (x >> b) & 1
        zb = (z >> b) & 1
        if kind == "cx":
            r ^= xa & zb & (xb ^ za ^ 1)
            x ^= xa << b
            z ^= zb << a
        elif kind == "cz":
            r ^= xa & xb & (za ^ zb)
            z ^= (xb << a) | (xa << b)
        elif kind == "swap":
            if xa != xb:
                x ^= (1 << a) | (1 << b)
            if za != zb:
                z ^= (1 << a) | (1 << b)
        else:
            raise ValueError(f"unknown gate {kind!r}")
    return x, z, r


def tableau(n: int, gates: list[Gate]) -> tuple[Row, ...]:
    """The 2n rows of the circuit's unitary; gates are in time order."""
    rows = [(1 << q, 0, 0) for q in range(n)] + [(0, 1 << q, 0) for q in range(n)]
    for kind, qubits in gates:
        rows = [conjugate(kind, qubits, x, z, r) for x, z, r in rows]
    return tuple(rows)


def inverse(gates: list[Gate]) -> list[Gate]:
    """The gate list of the inverse circuit."""
    return [(INVERSE_KIND.get(kind, kind), qubits) for kind, qubits in reversed(gates)]


def to_text(n: int, gates: list[Gate]) -> str:
    """The circuit in the ``qubits N`` / one-gate-per-line text format."""
    lines = [f"qubits {n}"]
    lines += [" ".join([kind, *map(str, qubits)]) for kind, qubits in gates]
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[int, list[Gate]]:
    """Read the text format: a ``qubits N`` header, then one gate a line."""
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [parts for parts in lines if parts]
    if not lines or lines[0][0] != "qubits" or len(lines[0]) != 2:
        raise ValueError("missing 'qubits N' header")
    n = int(lines[0][1])
    gates = []
    for parts in lines[1:]:
        kind, qubits = parts[0], tuple(int(q) for q in parts[1:])
        if GATE_ARITY.get(kind) != len(qubits) or len(set(qubits)) != len(qubits):
            raise ValueError(f"bad gate line {' '.join(parts)!r}")
        if not all(0 <= q < n for q in qubits):
            raise ValueError(f"qubit out of range in {' '.join(parts)!r}")
        gates.append((kind, qubits))
    return n, gates
