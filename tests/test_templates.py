"""Built-in template validity."""

import numpy as np

from cliffopt import Circuit
from cliffopt.matching import match_and_apply
from cliffopt.templates import builtin_templates

from _dense import circuit_unitary


def test_all_templates_are_identities():
    # Checked on dense unitaries, apart from the tableau check that
    # every Template makes: each word is the identity up to global phase.
    templates = builtin_templates()
    assert len(templates) == 8
    for t in templates:
        u = circuit_unitary(Circuit(t.size, t.gates))
        assert np.isclose(abs(u[0, 0]), 1), t.id
        assert np.allclose(u, u[0, 0] * np.eye(1 << t.size)), t.id


def test_template_shapes():
    templates = builtin_templates()
    assert len({t.id for t in templates}) == 8
    for t in templates:
        wires = {w for g in t.gates for w in g.qubits}
        assert wires == set(range(t.size)), t.id


def test_templates_are_mutually_independent():
    # No template should collapse to nothing under the others.
    templates = builtin_templates()
    for t in templates:
        others = tuple(o for o in templates if o.id != t.id)
        reduced = match_and_apply(Circuit(t.size, t.gates), others)
        assert len(reduced) > 0, t.id
