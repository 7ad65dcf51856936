"""Identity circuit templates over abstract wires.

Each template is a gate word whose unitary is the identity (up to
global phase) on ``size`` wires. Matching a prefix of any cyclic
rotation of a template, or of its inverse, licenses replacing the
matched gates with the inverted remainder, which is shorter whenever
the prefix covers more than half the word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .circuit import Circuit, Gate, cz, h, s, sdg, swap, z


@dataclass(frozen=True)
class Template:
    """An identity gate word on wires 0..size-1."""

    id: str
    gates: tuple[Gate, ...]
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        try:
            size = operator.index(self.size)
        except TypeError:
            size = 0
        if size < 1:
            raise ValueError(
                f"template {self.id!r}: size {self.size!r} is not a "
                "positive integer"
            )
        object.__setattr__(self, "size", size)
        for g in self.gates:
            if not isinstance(g, Gate) or max(g.qubits) >= size:
                raise ValueError(
                    f"template {self.id!r}: {g!r} is not a gate on wires "
                    f"0..{size - 1}"
                )


@lru_cache(maxsize=1)
def builtin_templates() -> tuple[Template, ...]:
    """The built-in identity templates."""
    return (
        Template("double_cz", (cz(0, 1), cz(0, 1)), 2),
        Template(
            "cz3_braid",
            (
                cz(0, 1), h(1), cz(0, 1), s(0), h(1),
                sdg(1), h(1), cz(0, 1), h(1), s(1),
            ),
            2,
        ),
        Template("hh", (h(0), h(0)), 1),
        Template(
            "cz3_swap",
            (
                h(1), cz(0, 1), h(0), h(1), cz(0, 1),
                h(0), h(1), cz(0, 1), h(1), swap(0, 1),
            ),
            2,
        ),
        Template(
            "cz5_triangle",
            (
                h(1), cz(0, 1), h(1), cz(1, 2), h(1),
                cz(0, 1), h(1), cz(1, 2), cz(0, 2),
            ),
            3,
        ),
        Template("sh_cycle", (s(0), h(0), s(0), h(0), s(0), h(0)), 1),
        Template("ssz", (s(0), s(0), z(0)), 1),
        Template(
            "cz3_phase",
            (
                s(0), s(1), h(1), cz(0, 1), h(1),
                sdg(1), h(1), cz(0, 1), h(1), cz(0, 1),
            ),
            2,
        ),
    )


def template_is_identity(template: Template) -> bool:
    """Whether the template's word multiplies out to the identity."""
    from .tableau import circuit_to_tableau

    return circuit_to_tableau(Circuit(template.size, template.gates)).is_identity()
