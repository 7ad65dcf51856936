"""Template rewriting engine: matches, movability, and equivalence."""

import collections
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
    greedy_unidirectional,
    h,
    random_clifford,
    s,
    sdg,
    swap,
    x,
    y,
    z,
)
from cliffopt.circuit import GATE_ARITY, UNORDERED_KINDS
from cliffopt.matching import (
    _BLOCKS,
    _BOTH_BOUND,
    _CODES,
    _NONE_BOUND,
    _NO_SCORE,
    _ONE_BOUND,
    _ONE_FREE,
    _ONE_OF_TWO,
    _STEP,
    _WINDOW,
    _rotations,
    _trie,
    match_and_apply,
)
from cliffopt.stages import merge_swaps, partition_stages
from cliffopt.templates import Template, builtin_templates

from _util import gate_pool, random_circuit


def _by_id(tid: str):
    return tuple(t for t in builtin_templates() if t.id == tid)


# Caller templates whose rotations search a CX, a SWAP and a CZ on no,
# one or two bound wires, a CX bound on either its control or its
# target, and one-qubit gates on free wires below a root.
_EXTRA = (
    Template("h_cz", (h(0), cz(1, 2), h(0), cz(1, 2)), 3),
    Template("double_cx", (cx(0, 1), cx(0, 1)), 2),
    Template("double_swap", (swap(0, 1), swap(0, 1)), 2),
    Template("xzy", (x(0), z(0), y(0)), 1),
    Template("x_cx", (x(1), cx(0, 1), x(1), cx(0, 1)), 2),
    Template("z_cx", (z(0), cx(0, 1), z(0), cx(0, 1)), 2),
)


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
    # A wire new to the match never takes a qubit bound to another wire,
    # whether the gate's other wire is bound or not. Each template needs
    # three qubits for a match, so on two qubits nothing is rewritten.
    path = Template("cz_path", (cz(0, 1), cz(1, 2), cz(0, 1), cz(1, 2)), 3)
    h_cz = Template("h_cz", (h(0), cz(1, 2), h(0), cz(1, 2)), 3)
    for t, c in (
        (path, Circuit(2, (cz(0, 1),) * 4)),
        (h_cz, Circuit(2, (h(0), cz(0, 1)) * 2)),
    ):
        assert match_and_apply(c, (t,)) == c, t.id


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
        # The output skips Circuit's per-gate check; it must pass it.
        assert Circuit(out.n, out.gates) == out
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


def test_wide_cz_form_outputs_match_recorded_digest():
    # CZ-form circuits on 16 to 40 qubits, where most searches are for a
    # one-qubit gate on a bound wire and walk that wire alone. The digest
    # was recorded before those searches walked one wire. They shrink
    # from 600 gates to 422, 467 and 507.
    rng = random.Random(7)
    digest = hashlib.sha256()
    for n in (16, 24, 40):
        pool = []
        for q in range(n):
            pool += [h(q)] * 4 + [s(q), sdg(q)] * 2 + [x(q), y(q), z(q)]
        pool += [cz(*rng.sample(range(n), 2)) for _ in range(7 * n)]
        gates = tuple(rng.choice(pool) for _ in range(600))
        digest.update(match_and_apply(Circuit(n, gates)).to_text().encode())
    assert digest.hexdigest() == (
        "f7d687b43e8093c0948dca32672d99d117d15ec02b7b25796a8c996940114eaf"
    )


def test_caller_templates_outputs_match_recorded_digest():
    # The built-in rotations search a CX nowhere and a two-qubit gate
    # with at most one wire bound rarely; _EXTRA adds those searches.
    # The digest was recorded before each trie node resolved its search
    # shape when the trie was built.
    templates = builtin_templates() + _EXTRA
    rng = random.Random(3)
    digest = hashlib.sha256()
    for _ in range(30):
        n = rng.randrange(2, 9)
        c = random_circuit(rng, n, rng.randrange(20, 161))
        out = match_and_apply(c, templates)
        assert circuit_to_tableau(out) == circuit_to_tableau(c)
        digest.update(out.to_text().encode())
    assert digest.hexdigest() == (
        "8ec8b27eb405ae4b6fd4ddf8d50a922aa9b26007f2fba8016e26de6f5a43f271"
    )


def test_synthesized_outputs_match_recorded_digest():
    # Merged unidirectional output holds H, S, S-dagger and CX, as the
    # matcher sees it on wide Clifford input. No template fires there, so
    # the digest pins that no search finds a false match. It was recorded
    # before each trie node resolved its search shape when the trie was
    # built.
    digest = hashlib.sha256()
    for n in (16, 24):
        for seed in (1, 2):
            merged = merge_swaps(
                partition_stages(greedy_unidirectional(random_clifford(n, seed)))
            )
            assert any(g.kind == "cx" for g in merged.gates)
            digest.update(match_and_apply(merged).to_text().encode())
    assert digest.hexdigest() == (
        "6a81689383d403b709055d37f50fbff264186c1ca4cc4283d5a1abba325b0752"
    )


def test_trie_nodes_hold_the_search_shape_of_their_path():
    # A node's gate searches with the wires bound that the gates on its
    # path from the root touch. Recompute that for every node.
    shapes = {
        (1, 0): _ONE_FREE, (1, 1): _ONE_BOUND,
        (2, 0): _NONE_BOUND, (2, 1): _ONE_OF_TWO, (2, 2): _BOTH_BOUND,
    }
    roots = _trie(builtin_templates(), frozenset(GATE_ARITY))
    stack = [(root, frozenset(), 0) for root in roots.values()]
    seen = set()
    counts = collections.Counter()
    while stack:
        node, bound, depth = stack.pop()
        assert id(node) not in seen
        seen.add(id(node))
        for g, child in node.children.items():
            on = [w in bound for w in g.qubits]
            assert child.shape == shapes[len(on), sum(on)], g
            assert child.kind == g.kind
            assert child.unordered == (g.kind in UNORDERED_KINDS)
            assert sorted(child.wires) == sorted(g.qubits)
            assert child.wires[0] == g.qubits[child.pos]
            if any(on):
                assert child.wires[0] in bound
            for w, block in zip(child.wires, child.blocks):
                k = g.qubits.index(w)
                assert block == (_BLOCKS[g.kind][k] if w in bound else 0)
            assert child.code == _CODES[g.kind][0]
            assert child.step is _STEP.get(g.kind)
            counts[child.shape, depth > 0] += 1
            stack.append((child, bound | set(g.qubits), depth + 1))
    # A root's children search with nothing bound. Below them, 25 nodes
    # search a two-qubit gate with one wire bound and one with none.
    assert counts == {
        (_ONE_FREE, False): 7, (_NONE_BOUND, False): 4,
        (_ONE_FREE, True): 10, (_ONE_BOUND, True): 501,
        (_NONE_BOUND, True): 1, (_ONE_OF_TWO, True): 25,
        (_BOTH_BOUND, True): 261,
    }


def test_trie_nodes_hold_the_best_score_of_the_prefixes_ending_there():
    # Follow every rotation down its path and score each of its prefixes
    # by the rules of the module docstring: a prefix of p gates of an m
    # gate rotation licenses a rewrite when 2p >= m, the wires of the
    # remainder are among the prefix's, and (two-qubit weight, gate
    # count) strictly falls when the remainder, inverted, replaces it.
    # The walk compares ranks, so over every pair of nodes rank order
    # must be score order: an unscored node ranks after every scored one.
    for templates in (builtin_templates(), builtin_templates() + _EXTRA):
        roots = _trie(templates, frozenset(GATE_ARITY))
        expected = {}
        for index, rot in enumerate(_rotations(templates)):
            m = len(rot)
            node = roots[rot[0].kind]
            for p in range(1, m + 1):
                node = node.children[rot[p - 1]]
                head, rest = rot[:p], rot[p:]
                weight = [Circuit(3, w).two_qubit_count for w in (head, rest)]
                delta = (weight[1] - weight[0], len(rest) - len(head))
                head_wires = {w for g in head for w in g.qubits}
                rest_wires = {w for g in rest for w in g.qubits}
                if 2 * p >= m and delta < (0, 0) and rest_wires <= head_wires:
                    word = tuple(g.inverse() for g in reversed(rest))
                    score = (delta, -p, index, word)
                    expected[id(node)] = min(
                        score, expected.get(id(node), score)
                    )
        stack, nodes = list(roots.values()), []
        while stack:
            nodes.append(node := stack.pop())
            assert node.score == expected.get(id(node), _NO_SCORE)
            stack.extend(node.children.values())
        scored = sum(v.score is not _NO_SCORE for v in nodes)
        assert scored == len(expected) > 0
        for u, v in itertools.combinations(nodes, 2):
            assert (u.rank < v.rank) == (u.score < v.score)
            assert (u.rank == v.rank) == (u.score == v.score)


def test_window_edge_on_one_wire():
    # Two H on qubit 0 erase while the second lies within _WINDOW gates
    # of the first, however many gates on other wires lie between them.
    assert _WINDOW == 64
    for k, erased in ((62, True), (63, False)):
        c = Circuit(3, (h(0),) + (cx(1, 2),) * k + (h(0),))
        out = match_and_apply(c)
        assert out.gates == ((cx(1, 2),) * k if erased else c.gates), k


def test_matcher_is_equivariant_under_monotone_relabeling():
    # Pending masks take 4 bits per qubit, so on 64 qubits they span up
    # to 256 bits. An order-preserving relabeling keeps the operand order
    # of every CZ and SWAP, so the wide output is the narrow one,
    # relabeled.
    def check(narrow, labels, width):
        wide = Circuit(width, tuple(g.relabeled(labels) for g in narrow.gates))
        expected = tuple(
            g.relabeled(labels) for g in match_and_apply(narrow).gates
        )
        assert match_and_apply(wide).gates == expected

    rng = random.Random(29)
    for _ in range(30):
        n = rng.randrange(2, 7)
        narrow = random_circuit(rng, n, rng.randrange(50, 201))
        check(narrow, sorted(rng.sample(range(64), n)), 64)
    # A gate key packs each operand into n.bit_length() bits; packed into
    # 10 bits, cz(1, 2) and cz(0, 1026) would share one.
    for _ in range(4):
        check(random_circuit(rng, 4, 200), [0, 1, 2, 1026], 1027)


def test_caller_template_must_be_identity():
    # Taking h s for an identity would erase it, changing the tableau, so
    # the word is rejected when the template is made.
    with pytest.raises(ValueError, match="template 'bad' is not an identity"):
        Template("bad", (h(0), s(0)), 1)
    # So are malformed fields, an id that is not a str among them.
    with pytest.raises(ValueError, match="template id"):
        Template(["a"], (h(0), h(0)), 1)
    for gates, size in (
        ((cz(0, 1), cz(0, 1)), 1),
        ((h(0), h(0)), 1.5),
        (("h 0", "h 0"), 1),
        ((), 0),
    ):
        with pytest.raises(ValueError, match="'bad'"):
            match_and_apply(Circuit(2, ()), (Template("bad", gates, size),))
    # So is an element that is not a Template.
    with pytest.raises(ValueError, match="None is not a Template"):
        match_and_apply(Circuit(1, (h(0), h(0))), [None])
    # Gates given as a list are taken as a tuple, as Circuit takes them.
    listed = Template("listed", [cz(0, 1), cz(0, 1)], 2)
    c = Circuit(2, (cz(0, 1), cz(0, 1)))
    assert match_and_apply(c, (listed,)).gates == ()


def test_past_deadline_returns_input_unchanged():
    c = Circuit(2, (cz(0, 1), cz(0, 1), h(0), h(0)))
    assert match_and_apply(c).gates == ()
    assert match_and_apply(c, deadline=time.monotonic() - 1.0) == c



def test_non_circuit_input_is_rejected():
    for bad in ([h(0), h(0)], "h 0\nh 0", None):
        with pytest.raises(ValueError, match="is not a Circuit"):
            match_and_apply(bad)


def test_non_real_deadline_is_rejected():
    c = Circuit(1, (h(0), h(0)))
    with pytest.raises(ValueError, match="deadline 'soon' is not a real"):
        match_and_apply(c, deadline="soon")
    # NaN never compares as passed, and a bool is not a time.
    for bad in (float("nan"), True, False):
        with pytest.raises(ValueError, match=f"deadline {bad!r} is not a real"):
            match_and_apply(c, deadline=bad)
    assert match_and_apply(c, deadline=time.monotonic() + 60).gates == ()
    assert match_and_apply(c, deadline=float("inf")).gates == ()
    assert match_and_apply(c, deadline=10**400).gates == ()
    assert match_and_apply(c, deadline=float("-inf")) == c
