"""Template matching and rewriting over Clifford circuits.

A template is an identity word, so every cyclic rotation of it (and of
its inverse) is one too. If a prefix of a rotation appears in the
circuit, possibly interleaved with gates that commute out of the way,
the prefix can be replaced by the inverted remainder of the rotation.

A rewrite is scored by the change in (two-qubit weight, gate count),
compared in that order, over the gates it replaces; the rest of the
circuit is untouched, so this equals the change of the whole circuit.
Only a strict decrease counts. At each position every rotation is
matched and the rewrite with the largest decrease is applied; ties go
to the longer match, then to the lower rotation index.

Interleaved gates are handled with per-wire commutation classes: gates
acting diagonally in the Z basis on a wire (S, S-dagger, Z, CZ, a CX
control) commute there, as do gates acting diagonally in the X basis
(X, a CX target), and H and Y, which commute with each other up to a
global phase. A matched gate moves left past the gates stepped over on
a wire only if they all have its class there. A SWAP moves past no
gate, and no gate moves past a pending SWAP.

A rotation is matched greedily: gate p binds to the first later gate in
the window that has its kind, fits the wire binding and can move left
past the gates stepped over. That search depends only on gate p and on
the state after gates 0..p-1 (last matched position, binding, pending
masks), so rotations sharing their first p+1 gates make it once: they
form a trie keyed by gate, each node searching on from its parent's
state. Where a search fails, every rotation below ends its match at
the parent, as its own scan would. Whether a match licenses a rewrite
(at least half the word, every wire of the remainder bound) and its
score depend only on the rotation and the match length, so each node
holds the best score of the prefixes ending there, and the walk keeps
the best node it reaches. A licensed prefix loses to the one a gate
longer, licensed too, so a prefix a match goes past changes nothing.
The pending masks are one integer, qubit q's at bit 4q, and each
circuit gate holds the bits it adds and the bits that block it, so
stepping over a gate is two integer operations.

Prunes skip only work that cannot change the rewrite applied: a search
stops once no later gate can match (on a bound wire a match may pass
only its own class, and pending masks only grow); a rotation is left
out while a gate of its shortest licensing prefix has a kind the
circuit never held (that set only grows); and a sweep skips a position
that found no rewrite and whose window has not changed since.

A trie node is reached by one path, so which wires of its gate are
bound when it searches is known when the trie is built, and the node
holds the search that follows, one of five shapes. A one-qubit gate
whose wire is bound to qubit q can only match or be stopped by a gate
on q, so its search walks q alone. Each (kind, operand) pair has a wire
code from 1 to 12, and q's column holds the code of every gate on q and
0 for a gate off it. A search for the kind finds the first gate in q's
column that has the kind's own code or a class blocked there, and
matches only if that gate has the own code. Every gate on q before it
has the kind's class, so it passes, and a gate off q cannot raise q's
pending bits, so the pending masks at the match are the start's ORed
with the stepped-over gates' added bits. The other shapes step over
the window. A two-qubit gate with both wires bound matches the gate of
its kind on their qubits, found by one integer key per gate (kind code
and operands, n.bit_length() bits each); with one bound, a gate of its
kind on that wire's qubit; with none bound, as a one-qubit gate on a
free wire, any gate of its kind. A wire new to the match takes only an
unbound qubit, tested on a bitmask of the bound qubits. The walk runs
each child's search inline, and a root's children bind gate i, whose
kind they have, with nothing bound or pending. Each node holds the rank
of its score in the trie (distinct nodes hold distinct scores), so the
walk compares ints and reads the best node's score once. A walk over
two columns, or an index of positions per kind rebuilt after each
rewrite, measured slower on circuit input.
"""

from __future__ import annotations

import itertools
import numbers
import re
import time
from functools import lru_cache, reduce
from operator import or_
from typing import Container, Iterable, Iterator, Sequence

from .circuit import Circuit, Gate, TWO_QUBIT_WEIGHT, UNORDERED_KINDS, _expect
from .templates import Template, builtin_templates

_WINDOW = 64

# Per-wire commutation classes. A pending mask ORs the classes of the
# gates a match has stepped over on a wire.
_DIAG_Z = 1
_DIAG_X = 2
_HY = 4
_BLOCK = 8
_ALL = _DIAG_Z | _DIAG_X | _HY | _BLOCK

# The class of each gate kind on each of its operands, in operand order.
_CLASSES: dict[str, tuple[int, ...]] = {
    "s": (_DIAG_Z,), "sdg": (_DIAG_Z,), "z": (_DIAG_Z,), "x": (_DIAG_X,),
    "h": (_HY,), "y": (_HY,), "cz": (_DIAG_Z, _DIAG_Z),
    "cx": (_DIAG_Z, _DIAG_X), "swap": (_BLOCK, _BLOCK),
}
# The pending bits on each operand that a gate of the kind cannot move
# left past: all but its own class, and always a SWAP.
_BLOCKS = {
    k: tuple(_ALL & ~c | _BLOCK for c in cs) for k, cs in _CLASSES.items()
}

# The wire code of each kind on each of its operands, and for each
# one-qubit kind a search for its own code or a code of a class that it
# cannot move left past.
_codes = itertools.count(1)
_CODES = {k: tuple(next(_codes) for _ in cs) for k, cs in _CLASSES.items()}
_STEP = {
    k: re.compile(b"[%s]" % re.escape(bytes(
        code
        for kind, codes in _CODES.items()
        for code, c in zip(codes, _CLASSES[kind])
        if code == _CODES[k][0] or c & _BLOCKS[k][0]
    )))
    for k, cs in _CLASSES.items() if len(cs) == 1
}

# Search shapes, indexed by 2 * arity - 2 plus the number of bound wires:
# a one-qubit gate on a free or a bound wire, and a two-qubit gate with
# no, one or both wires bound.
_ONE_FREE, _ONE_BOUND, _NONE_BOUND, _ONE_OF_TWO, _BOTH_BOUND = range(5)

# A scored match: (delta, -p, rotation index, replacement word), the
# word being the inverted remainder of the rotation. Indices are unique,
# so comparisons never reach the word. Every improving delta is below
# (0, 0), so _NO_SCORE is above every score.
_Score = tuple[tuple[int, int], int, int, tuple[Gate, ...]]
_NO_SCORE: _Score = ((0, 0), 0, 0, ())


def _rotations(templates: Iterable[Template]) -> Iterator[tuple[Gate, ...]]:
    """The rotations of the templates and their inverses, in index order.

    A CZ or SWAP whose two wires no earlier gate of the rotation touches
    matches a circuit gate in either orientation, but a match binds them
    in operand order. So each rotation is followed by its variants with
    the wires of such gates exchanged, which are identity words too.
    """
    for template in templates:
        inverse = tuple(g.inverse() for g in reversed(template.gates))
        for word in (template.gates, inverse):
            for k in range(len(word)):
                variants = [word[k:] + word[:k]]
                touched: set[int] = set()
                for g in variants[0]:
                    if g.kind in UNORDERED_KINDS and touched.isdisjoint(g.qubits):
                        exchange = list(range(template.size))
                        a, b = g.qubits
                        exchange[a], exchange[b] = b, a
                        variants += [
                            tuple(v.relabeled(exchange) for v in rot)
                            for rot in variants
                        ]
                    touched.update(g.qubits)
                yield from variants


class _Node:
    """A trie node: the last gate of a rotation prefix (none at a root).

    ``score`` is the best licensed rewrite among the rotation prefixes
    that end here, or _NO_SCORE when none licenses an improvement, and
    ``rank`` its place in the trie's score order, shared only by the
    unscored nodes, which rank last. ``kids`` holds the ``children``.

    A node is reached by one path, so the wires of its gate that a gate
    above it touches, ``bound``, are bound whenever it searches, and the
    node holds the search that follows: its ``shape``, the gate's
    ``wires``, bound ones first, with ``pos`` the operand index of the
    first, the ``blocks`` each bound wire's qubit must not have pending
    (0 for a free wire), the kind's first wire ``code`` and a one-qubit
    kind's ``step``.
    """

    __slots__ = (
        "children", "kids", "score", "rank", "kind", "unordered", "shape",
        "wires", "blocks", "pos", "code", "step",
    )

    def __init__(self, gate: Gate | None = None, bound: Container[int] = ()):
        self.children: dict[Gate, _Node] = {}
        self.score = _NO_SCORE
        if gate is not None:
            kind, qs = gate.kind, gate.qubits
            self.kind, self.unordered = kind, kind in UNORDERED_KINDS
            order = sorted(range(len(qs)), key=lambda k: qs[k] not in bound)
            self.pos = order[0]
            self.wires = tuple(qs[k] for k in order)
            self.blocks = tuple(
                _BLOCKS[kind][k] if qs[k] in bound else 0 for k in order
            )
            self.shape = 2 * len(qs) - 2 + sum(w in bound for w in qs)
            self.code, self.step = _CODES[kind][0], _STEP.get(kind)


@lru_cache(maxsize=8)
def _trie(
    templates: tuple[Template, ...], present: frozenset[str]
) -> dict[str, _Node]:
    """The trie root of each first-gate kind. A rotation of m gates is
    left out when a kind among its gates 1 to ceil(m/2) - 1 is not in
    ``present``. Nodes never change, so calls share the 8 last used."""
    roots: dict[str, _Node] = {}
    for index, rot in enumerate(_rotations(templates)):
        m = len(rot)
        if not present.issuperset(g.kind for g in rot[1:(m + 1) // 2]):
            continue
        node = roots.setdefault(rot[0].kind, _Node())
        touched: set[int] = set()
        weight = sum(TWO_QUBIT_WEIGHT.get(g.kind, 0) for g in rot)
        for p, g in enumerate(rot, 1):
            node = node.children.get(g) or node.children.setdefault(
                g, _Node(g, touched)
            )
            touched.update(g.qubits)
            weight -= 2 * TWO_QUBIT_WEIGHT.get(g.kind, 0)
            delta = (weight, m - 2 * p)
            if 2 * p >= m and delta < (0, 0) and touched.issuperset(
                w for v in rot[p:] for w in v.qubits
            ):
                word = tuple(v.inverse() for v in reversed(rot[p:]))
                node.score = min((delta, -p, index, word), node.score)
    nodes = list(roots.values())
    for node in nodes:  # the list grows to hold every node
        node.kids = tuple(node.children.values())
        nodes += node.kids
    for rank, node in enumerate(sorted(nodes, key=lambda v: v.score)):
        node.rank = rank if node.score is not _NO_SCORE else len(nodes)
    return roots


def _info(g: Gate) -> tuple:
    """The gate's kind and operands, the pending bits it adds over its
    operands, and the pending bits there that keep it from moving left."""
    add = blk = 0
    for q, c, b in zip(g.qubits, _CLASSES[g.kind], _BLOCKS[g.kind]):
        add |= c << 4 * q
        blk |= b << 4 * q
    return g.kind, g.qubits, add, blk


def _best_match(
    root: _Node, info: list[tuple], adds: list[int], keys: list[int],
    cols: list[bytearray], i: int,
) -> tuple[_Score, tuple[int, ...], dict[int, int]] | None:
    """The best-scoring licensed match at position i of the rotations in
    root's trie, with its matched positions and wire binding. ``adds``
    holds each gate's added pending bits, ``keys`` its key and ``cols``
    each qubit's wire codes."""
    end = min(len(info), i + _WINDOW)
    shift = len(cols).bit_length()
    best_rank, best = root.rank, None

    def walk(node, last, matched, binding, used, pending):
        """Keep node if it ranks best yet, then walk on from each child's
        first match after position last. Pending bits on a bound qubit
        that keep a gate from matching end its search: masks only grow."""
        nonlocal best_rank, best
        if node.rank < best_rank:
            best_rank, best = node.rank, (node, matched, binding)
        start = last + 1
        for child in node.kids:
            shape = child.shape
            if shape == _ONE_BOUND:
                q = binding[child.wires[0]]
                if pending >> 4 * q & child.blocks[0]:
                    continue
                col = cols[q]
                m = child.step.search(col, start, end)
                if m is not None and col[j := m.start()] == child.code:
                    walk(child, j, matched + (j,), binding, used,
                         reduce(or_, adds[start:j], pending))
                continue
            wires, blocks, p = child.wires, child.blocks, pending
            if shape == _BOTH_BOUND:
                qa, qb = binding[wires[0]], binding[wires[1]]
                forbid = blocks[0] << 4 * qa | blocks[1] << 4 * qb
                if p & forbid:
                    continue
                # Circuit gates hold CZ and SWAP operands sorted. A gate
                # on these qubits blocks on forbid alone, so it matches.
                if child.unordered and qb < qa:
                    qa, qb = qb, qa
                key = (child.code << shift | qa) << shift | qb
                for j in range(start, end):
                    if keys[j] == key:
                        walk(child, j, matched + (j,), binding, used, p)
                        break
                    p |= adds[j]
                    if p & forbid:
                        break
            elif shape == _ONE_OF_TWO:
                # The first orientation that fits binds: for a CZ or
                # SWAP, the one with the bound qubit on the bound wire.
                qa = binding[wires[0]]
                forbid = blocks[0] << 4 * qa
                if p & forbid:
                    continue
                kind, pos, unordered = child.kind, child.pos, child.unordered
                for j in range(start, end):
                    k, qs, add, blk = info[j]
                    if k == kind and qa in qs and not p & blk:
                        q = qs[qs[0] == qa]
                        if (unordered or qs[pos] == qa) and not used >> q & 1:
                            walk(child, j, matched + (j,),
                                 {**binding, wires[1]: q}, used | 1 << q, p)
                            break
                    p |= add
                    if p & forbid:
                        break
            else:
                # No wire bound: the operands bind in order, as a CZ or
                # SWAP fits in its other orientation only if it fits in
                # this one.
                kind = child.kind
                for j in range(start, end):
                    k, qs, add, blk = info[j]
                    if k == kind and not p & blk:
                        bits = 1 << qs[0] | 1 << qs[-1]
                        if not used & bits:
                            walk(child, j, matched + (j,),
                                 {**binding, **dict(zip(wires, qs))},
                                 used | bits, p)
                            break
                    p |= add

    # Gate i has the kind of the first gate of every rotation under
    # root, and nothing is bound or pending yet, so it binds each child.
    qs = info[i][1]
    used = 1 << qs[0] | 1 << qs[-1]
    for child in root.kids:
        walk(child, i, (i,), dict(zip(child.wires, qs)), used, 0)
    del walk  # it refers to itself; the cycle would keep info alive
    return None if best is None else (best[0].score, best[1], best[2])


def match_and_apply(
    c: Circuit,
    templates: Sequence[Template] | None = None,
    deadline: float | None = None,
) -> Circuit:
    """Rewrite with the templates until no strict improvement remains.

    At each position every rotation whose first gate has the position's
    kind is matched. A match is scored by the change in (two-qubit
    weight, gate count) over the gates it replaces, and only a strict
    decrease counts. Of the improving matches the one with the largest
    decrease is applied, ties going to the longer match and then to the
    lower rotation index, so the result is deterministic. Rotations are
    indexed in template order, each template's word before its inverse,
    by rotation offset within a word, and each before its wire-exchanged
    variants (``_rotations``); a repeated rotation keeps its first index.

    Sweeps repeat while some position is unsettled. A position settles
    when it finds no rewrite, and unsettles when a rewrite changes its
    window.

    Caller templates are checked when they are made (``Template``).
    ``deadline`` is a ``time.monotonic()`` value; once it has passed,
    the pass returns the circuit rewritten so far, which still
    implements the input; +-inf and ints past the float range are
    accepted. A ``c`` that is not a ``Circuit``, ``templates`` that are
    not iterable or hold a non-``Template``, or a ``deadline`` that is
    NaN, a bool or not a real number, raises a ``ValueError`` naming it.
    """
    _expect(c, Circuit, "c")
    # deadline != deadline tests for NaN without converting to float,
    # which overflows on an int past the float range.
    if deadline is not None and (
        not isinstance(deadline, numbers.Real)
        or isinstance(deadline, bool)
        or deadline != deadline
    ):
        raise ValueError(f"deadline {deadline!r} is not a real number")
    if templates is None:
        templates = builtin_templates()
    else:
        try:
            templates = tuple(templates)
        except TypeError:
            raise ValueError(f"templates {templates!r} is not iterable") from None
        for template in templates:
            _expect(template, Template, "template element")
    gates: list[Gate] = []
    info: list[tuple] = []
    adds: list[int] = []
    keys: list[int] = []
    shift = c.n.bit_length()
    cols = [bytearray() for _ in range(c.n)]

    def splice(a: int, b: int, new: Sequence[Gate]) -> None:
        """Replace gates[a:b] with new, keeping info, adds, keys and cols
        in step."""
        gates[a:b] = new
        info[a:b] = new_info = [_info(g) for g in new]
        adds[a:b] = [add for _, _, add, _ in new_info]
        keys[a:b] = [(_CODES[g.kind][0] << shift | g.qubits[0]) << shift
                     | g.qubits[-1] for g in new]
        blank = bytes(len(new))
        for col in cols:
            col[a:b] = blank
        for j, g in enumerate(new, a):
            for q, code in zip(g.qubits, _CODES[g.kind]):
                cols[q][j] = code

    splice(0, 0, c.gates)
    # Every kind the circuit has held; it only over-approximates the
    # kinds present, so a rotation it rules out cannot match.
    present = frozenset(g.kind for g in gates)
    roots = _trie(templates, present)
    # dirty[i]: gates[i:i + _WINDOW] changed since position i last found
    # no rewrite.
    dirty = [True] * len(gates)
    while any(dirty):
        i = 0
        while i < len(gates):
            if not dirty[i]:
                i += 1
                continue
            if deadline is not None and time.monotonic() > deadline:
                return Circuit._of(c.n, gates)
            root = roots.get(gates[i].kind)
            found = (
                None if root is None
                else _best_match(root, info, adds, keys, cols, i)
            )
            if found is None:
                dirty[i] = False
                i += 1
                continue
            (_, _, _, word), matched_pos, binding = found
            replacement = [g.relabeled(binding) for g in word]
            if not present.issuperset(g.kind for g in replacement):
                present = present.union(g.kind for g in replacement)
                roots = _trie(templates, present)
            matched = set(matched_pos)
            last = matched_pos[-1]
            new = replacement + [
                gates[j] for j in range(i, last + 1) if j not in matched
            ]
            splice(i, last + 1, new)
            dirty[i:last + 1] = [True] * len(new)
            dirty[max(0, i - _WINDOW + 1):i] = [True] * min(i, _WINDOW - 1)
    return Circuit._of(c.n, gates)

