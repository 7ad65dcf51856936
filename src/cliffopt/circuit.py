"""Gate and circuit containers plus the plain-text circuit format.

A circuit is a time-ordered gate list: the first gate in ``gates`` acts
first. The unitary of a circuit is therefore the product of the gate
unitaries in reverse list order.

This module also holds the operand rule every module checks its input
by. An integer operand is a Python or numpy integer, not a bool, and is
stored as an int (``_integer``); an operand of the wrong type
(``_expect``) or two operands of different widths (``_same_width``)
raise a ``ValueError`` that names the operand and its value.

``Circuit(...)`` checks every gate against its width. Pass outputs skip
that re-check through ``Circuit._of``, which is safe where each gate
already sat in a checked width-n circuit or was relabeled by a map into
range(n): ``+`` and ``inverse``, the stage partition's compute stage,
``merge_swaps``, the template pass and the synthesizers' peel loop,
whose gates were applied to a width-n tableau, which has no column past
n - 1. ``relabeled`` takes any map, so it and the new gates
``extended`` takes stay checked.

Gates are interned: the factories, ``Gate.inverse``, ``Gate.relabeled``
and ``Circuit.from_text`` hand out one object per (kind, operands),
checked when it is first made (``_gate``). Width n has 2n² + 4n distinct
gates, well under 9n², so the table stays small while every relabeling
pass reuses it. ``Gate(...)`` itself still builds a new object. Gates
compare and hash by value; never compare them with ``is``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

GATE_ARITY: dict[str, int] = {
    "h": 1,
    "s": 1,
    "sdg": 1,
    "x": 1,
    "y": 1,
    "z": 1,
    "cx": 2,
    "cz": 2,
    "swap": 2,
}

# Gates whose two qubit operands are interchangeable; stored sorted ascending.
UNORDERED_KINDS = frozenset({"cz", "swap"})

PAULI_KINDS = frozenset({"x", "y", "z"})

# Contribution to the reporting metric: CX and CZ count 1, SWAP counts as
# its three-CX expansion.
TWO_QUBIT_WEIGHT: dict[str, int] = {"cx": 1, "cz": 1, "swap": 3}

# S and S-dagger invert each other; every other kind is its own inverse.
_INVERSE_KIND: dict[str, str] = {"s": "sdg", "sdg": "s"}


def _integer(value, name: str) -> int:
    """value as an int. operator.index takes Python and numpy integers,
    not 1.5 or "1"; a bool is a truth value, not a qubit or a width."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} {value!r} is not an integer")


def _expect(value, kind: type, name: str) -> None:
    if not isinstance(value, kind):
        raise ValueError(f"{name} {value!r} is not a {kind.__name__}")


def _same_width(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"width mismatch: {a} vs {b}")


@dataclass(frozen=True)
class Gate:
    """A single gate application, identified by mnemonic and qubit operands."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        _expect(self.kind, str, "gate kind")
        try:
            operands = tuple(self.qubits)
        except TypeError:
            raise ValueError(
                f"gate {self.kind!r} qubits {self.qubits!r} is not iterable"
            ) from None
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = GATE_ARITY[self.kind]
        if len(operands) != arity:
            raise ValueError(
                f"gate {self.kind!r} takes {arity} qubit(s), got {operands}"
            )
        qubits = []
        for q in operands:
            if type(q) is not int:
                q = _integer(q, f"gate {self.kind!r} qubit")
            if q < 0:
                raise ValueError(f"negative qubit index in {operands}")
            qubits.append(q)
        if arity == 2:
            if qubits[0] == qubits[1]:
                raise ValueError(f"gate {self.kind!r} needs distinct qubits")
            if self.kind in UNORDERED_KINDS and qubits[0] > qubits[1]:
                qubits.reverse()
        object.__setattr__(self, "qubits", tuple(qubits))

    def inverse(self) -> "Gate":
        kind = _INVERSE_KIND.get(self.kind)
        return self if kind is None else _gate(kind, self.qubits)

    def relabeled(self, mapping) -> "Gate":
        """Return the gate with each qubit ``q`` replaced by ``mapping[q]``."""
        operands = self.qubits
        try:
            # A gate has one or two operands (GATE_ARITY).
            if len(operands) == 2:
                qubits = (mapping[operands[0]], mapping[operands[1]])
            else:
                qubits = (mapping[operands[0]],)
        except (LookupError, TypeError):
            for q in self.qubits:
                try:
                    mapping[q]
                except (LookupError, TypeError):
                    raise ValueError(
                        f"gate {self}: qubit {q} is not mapped"
                    ) from None
            raise
        return _gate(self.kind, qubits)

    def __str__(self) -> str:
        return " ".join([self.kind, *map(str, self.qubits)])


_GATES: dict[tuple[str, tuple[int, ...]], Gate] = {}


def _gate(kind: str, qubits: tuple) -> Gate:
    """The one stored Gate(kind, qubits), built and checked on first use.

    Only int operands are looked up: a bool or a numpy integer equals
    and hashes like an int, so it goes to Gate, which rejects the bool.
    A stored gate has arity 1 or 2, so its first and last operands are
    all of them. A CZ or SWAP is stored under its operands as passed and
    as sorted, both keys naming one gate.
    """
    if qubits and type(qubits[0]) is int and type(qubits[-1]) is int:
        key = (kind, qubits)
        gate = _GATES.get(key)
        if gate is None:
            gate = Gate(kind, qubits)
            gate = _GATES.setdefault((kind, gate.qubits), gate)
            _GATES[key] = gate
        return gate
    return Gate(kind, qubits)


def h(q: int) -> Gate:
    return _gate("h", (q,))


def s(q: int) -> Gate:
    return _gate("s", (q,))


def sdg(q: int) -> Gate:
    return _gate("sdg", (q,))


def x(q: int) -> Gate:
    return _gate("x", (q,))


def y(q: int) -> Gate:
    return _gate("y", (q,))


def z(q: int) -> Gate:
    return _gate("z", (q,))


def cx(control: int, target: int) -> Gate:
    return _gate("cx", (control, target))


def cz(a: int, b: int) -> Gate:
    return _gate("cz", (a, b))


def swap(a: int, b: int) -> Gate:
    return _gate("swap", (a, b))


@dataclass(frozen=True)
class Circuit:
    """A fixed-width, time-ordered list of gates."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "circuit width n"))
        if self.n < 1:
            raise ValueError(f"circuit needs at least one qubit, got n={self.n}")
        if not isinstance(self.gates, tuple):
            try:
                gates = iter(self.gates)
            except TypeError:
                raise ValueError(f"gates {self.gates!r} is not iterable") from None
            object.__setattr__(self, "gates", tuple(gates))
        for g in self.gates:
            # Tested inline to spare a call per gate; _expect words the error.
            if not isinstance(g, Gate):
                _expect(g, Gate, "circuit element")
            if max(g.qubits) >= self.n:
                raise ValueError(
                    f"gate {g} out of range for {self.n} qubit(s)"
                )

    @classmethod
    def _of(cls, n: int, gates: Iterable[Gate]) -> "Circuit":
        """A width-n circuit of gates, without the per-gate check: only
        for gates that already passed it (module docstring)."""
        c = object.__new__(cls)
        object.__setattr__(c, "n", n)
        object.__setattr__(c, "gates", tuple(gates))
        return c

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        _expect(other, Circuit, "other")
        _same_width(self.n, other.n)
        return Circuit._of(self.n, self.gates + other.gates)

    @property
    def two_qubit_count(self) -> int:
        """Two-qubit cost of the circuit: CX and CZ count 1, SWAP counts 3."""
        return sum(TWO_QUBIT_WEIGHT.get(g.kind, 0) for g in self.gates)

    def count_kind(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)

    def inverse(self) -> "Circuit":
        return Circuit._of(self.n, [g.inverse() for g in reversed(self.gates)])

    def extended(self, gates: Iterable[Gate]) -> "Circuit":
        return self + Circuit(self.n, gates)

    def relabeled(self, mapping) -> "Circuit":
        return Circuit(self.n, tuple(g.relabeled(mapping) for g in self.gates))

    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        lines.extend(str(g) for g in self.gates)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the plain-text format.

        The first meaningful line must be ``qubits N``; every following
        line is one gate: a mnemonic and space-separated 0-based decimal
        qubit indices. ``#`` starts a comment, blank lines are skipped.
        """
        _expect(text, str, "text")
        n: int | None = None
        gates: list[Gate] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if n is None:
                if parts[0] != "qubits":
                    raise ValueError(
                        f"line {lineno}: expected 'qubits N' header, got {parts[0]!r}"
                    )
                if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                    raise ValueError(
                        f"line {lineno}: malformed header {line!r}"
                    )
                n = int(parts[1])
                continue
            qubits = []
            for token in parts[1:]:
                # isdecimal, unlike isdigit, rejects "²", which int() cannot read.
                if not token.isdecimal():
                    raise ValueError(
                        f"line {lineno}: bad qubit index {token!r}"
                    )
                q = int(token)
                if q >= n:
                    raise ValueError(
                        f"line {lineno}: qubit index {q} out of range for "
                        f"{n} qubit(s)"
                    )
                qubits.append(q)
            try:
                gates.append(_gate(parts[0], tuple(qubits)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if n is None:
            raise ValueError("empty circuit text: missing 'qubits N' header")
        return cls(n, tuple(gates))
