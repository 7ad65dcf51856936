"""Template rewriting engine: matches, movability, and equivalence."""

import hashlib
import itertools
import random
import time

import pytest

from cliffopt import (
    Circuit,
    circuit_to_tableau,
    cx,
    cz,
    h,
    s,
    sdg,
    swap,
    y,
    z,
)
from cliffopt.matching import match_and_apply, reduce_single_qubit
from cliffopt.templates import (
    Template,
    builtin_templates,
    template_is_identity,
)

from _util import gate_pool, random_circuit


def _by_id(tid: str):
    return tuple(t for t in builtin_templates() if t.id == tid)


def test_full_match_erases_template():
    for t in builtin_templates():
        out = match_and_apply(Circuit(t.size, t.gates), (t,))
        assert out.gates == (), t.id


def test_rotated_and_inverted_words_erase():
    for t in builtin_templates():
        m = len(t.gates)
        for k in (1, m // 2, m - 1):
            rot = t.gates[k:] + t.gates[:k]
            out = match_and_apply(Circuit(t.size, rot), (t,))
            assert out.gates == (), (t.id, k)
        inv = tuple(g.inverse() for g in reversed(t.gates))
        out = match_and_apply(Circuit(t.size, inv), (t,))
        assert out.gates == (), t.id


def test_every_rotation_erases():
    # Also on every relabeling of the wires: a CZ or SWAP whose two wires
    # are both new to the match binds them in either order.
    for t in builtin_templates():
        inv = tuple(g.inverse() for g in reversed(t.gates))
        for name, word in (("word", t.gates), ("inverse", inv)):
            for k in range(len(word)):
                for perm in itertools.permutations(range(t.size)):
                    rot = Circuit(t.size, word[k:] + word[:k]).relabeled(perm)
                    out = match_and_apply(rot, (t,))
                    assert out.gates == (), (t.id, name, k, perm)


def test_ties_go_to_longer_match_then_lower_rotation_index():
    # The full double_cz match and the 3-gate prefix of cz_square both
    # remove two CZs from position 0. The longer match wins whatever the
    # template order, and it leaves the S after the remaining CZ.
    square = Template("cz_square", (cz(0, 1), cz(0, 2), cz(0, 1), cz(0, 2)), 3)
    assert template_is_identity(square)
    c = Circuit(3, (cz(0, 1), s(2), cz(0, 2), cz(0, 1)))
    pair = _by_id("double_cz") + (square,)
    for templates in (pair, pair[::-1]):
        for _ in range(2):
            assert match_and_apply(c, templates).gates == (cz(0, 2), s(2))
    # Rotations k=0 (s s z) and k=1 (s z s) of ssz each erase three gates
    # from position 0; k=0 matches positions 0, 1, 3 and k=1 matches 0, 3, 4.
    c = Circuit(1, (s(0), s(0), sdg(0), z(0), s(0)))
    for _ in range(2):
        assert match_and_apply(c, _by_id("ssz")).gates == (sdg(0), s(0))


def test_match_across_commuting_gate():
    c = Circuit(2, (cz(0, 1), s(0), cz(0, 1)))
    out = match_and_apply(c, _by_id("double_cz"))
    assert out.gates == (s(0),)


def test_blocked_by_noncommuting_gate():
    c = Circuit(2, (cz(0, 1), h(0), cz(0, 1)))
    out = match_and_apply(c, _by_id("double_cz"))
    assert out == c


def test_binding_is_injective():
    c = Circuit(3, (cz(0, 1), cz(0, 2)))
    out = match_and_apply(c, _by_id("double_cz"))
    assert out == c


def test_partial_match_uses_inverted_remainder():
    c = Circuit(1, (s(0), h(0), s(0), h(0)))
    out = match_and_apply(c, _by_id("sh_cycle"))
    assert len(out) == 2
    assert circuit_to_tableau(out) == circuit_to_tableau(c)


def test_odd_cz_chain_keeps_one():
    c = Circuit(2, (cz(0, 1), cz(0, 1), cz(0, 1)))
    out = match_and_apply(c, _by_id("double_cz"))
    assert out.gates == (cz(0, 1),)


def test_rewrites_preserve_tableau():
    # A SWAP commutes with no gate on its wires. The first circuit was
    # once rewritten to a lone SWAP, whose tableau differs.
    circuits = [
        Circuit(2, (h(0), swap(0, 1), h(0))),
        Circuit(2, (y(0), swap(0, 1), y(0))),
        Circuit(3, (swap(0, 1), swap(1, 2), swap(0, 1))),
    ]
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 5)
        circuits.append(random_circuit(rng, n, rng.randrange(0, 40)))
    for c in circuits:
        out = match_and_apply(c)
        assert circuit_to_tableau(out) == circuit_to_tableau(c)
        assert (out.two_qubit_count, len(out)) <= (
            c.two_qubit_count,
            len(c),
        )


def test_outputs_match_recorded_digest():
    # The digest was recorded before the matcher learned to stop dead
    # matches, skip kinds the circuit lacks and rescan only changed
    # windows. Those prunes are exact, so the outputs must not move.
    # SWAP is left out: its commutation rule was made sound at the same
    # time, on purpose.
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(40):
        n = rng.randrange(2, 7)
        c = random_circuit(rng, n, rng.randrange(50, 301), include_swap=False)
        digest.update(match_and_apply(c).to_text().encode())
    assert digest.hexdigest() == (
        "1b620e963b7444d89b5b653fb349b9755bc2342c3dd495b4d39aba5f5a6efdd9"
    )


def test_cz_form_outputs_match_recorded_digest():
    # CZ-form circuits with SWAPs: most rotations start with a CZ or a
    # SWAP, so most scans share a prefix with another rotation's. The
    # digest was recorded before rotations shared their scans, and again
    # when the wire-exchanged variants of rotations were added.
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(30):
        n = rng.randrange(5, 9)
        pool = [g for g in gate_pool(n) if g.kind != "cx"]
        gates = tuple(rng.choice(pool) for _ in range(rng.randrange(200, 401)))
        digest.update(match_and_apply(Circuit(n, gates)).to_text().encode())
    assert digest.hexdigest() == (
        "d055a446e77653178c43d18b62a67d2df1586cd885869f4e448e37363a582367"
    )


def test_caller_template_must_be_identity():
    # Taking h s for an identity would erase it, changing the tableau.
    bad = Template("bad", (h(0), s(0)), 1)
    with pytest.raises(ValueError, match="'bad'"):
        match_and_apply(Circuit(1, (h(0), s(0))), (bad,))
    with pytest.raises(ValueError, match="'bad'"):
        match_and_apply(Circuit(1, (h(0), s(0))), _by_id("hh") + (bad,))
    # Malformed fields are rejected when the template is made.
    for gates, size in (
        ((cz(0, 1), cz(0, 1)), 1),
        ((h(0), h(0)), 1.5),
        (("h 0", "h 0"), 1),
        ((), 0),
    ):
        with pytest.raises(ValueError, match="'bad'"):
            match_and_apply(Circuit(2, ()), (Template("bad", gates, size),))
    # Gates given as a list are taken as a tuple, as Circuit takes them.
    listed = Template("listed", [cz(0, 1), cz(0, 1)], 2)
    c = Circuit(2, (cz(0, 1), cz(0, 1)))
    assert match_and_apply(c, (listed,)).gates == ()


def test_past_deadline_returns_input_unchanged():
    c = Circuit(2, (cz(0, 1), cz(0, 1), h(0), h(0)))
    assert match_and_apply(c).gates == ()
    assert match_and_apply(c, deadline=time.monotonic() - 1.0) == c


def test_reduce_single_qubit():
    c = Circuit(2, (h(0), h(0), cz(0, 1), s(0), h(0), s(0), h(0), s(0), h(0)))
    out = reduce_single_qubit(c)
    assert out.two_qubit_count == c.two_qubit_count
    assert len(out) < len(c)
    assert circuit_to_tableau(out) == circuit_to_tableau(c)
