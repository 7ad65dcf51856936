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

Three prunes skip work that cannot yield a rewrite, so the rewrites and
their order are those of a full scan:

- a match stops once its next template gate can no longer be matched
  (see ``_match``);
- a rotation is skipped when some gate of its shortest licensing
  prefix has a kind the circuit has never held; that set of kinds only
  grows, so it over-approximates the kinds present;
- a sweep skips a position that found no rewrite and whose window, the
  only gates ``_match`` reads, has not changed since.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from .circuit import Circuit, Gate, TWO_QUBIT_WEIGHT, cx, h
from .templates import Template, builtin_templates, template_is_identity

_WINDOW = 64

# Per-wire commutation classes. A pending mask ORs the classes of the
# gates a match has stepped over on a wire.
_DIAG_Z = 1
_DIAG_X = 2
_HY = 4
_BLOCK = 8


def _wire_class(gate: Gate, wire: int) -> int:
    kind = gate.kind
    if kind in ("s", "sdg", "z", "cz"):
        return _DIAG_Z
    if kind == "cx":
        return _DIAG_Z if wire == gate.qubits[0] else _DIAG_X
    if kind == "x":
        return _DIAG_X
    if kind in ("h", "y"):
        return _HY
    return _BLOCK


def _passable(gate: Gate, wire: int) -> int:
    """The nonzero pending mask the gate may move left past on the wire:
    its own class, or none for a SWAP."""
    cls = _wire_class(gate, wire)
    return 0 if cls == _BLOCK else cls


def _rotations(
    templates: Iterable[Template],
) -> dict[str, list[tuple[tuple[Gate, ...], frozenset[str]]]]:
    """All distinct rotations of the templates and their inverses,
    indexed by the kind of their first gate. Each comes with the kinds a
    licensed prefix must also contain: those of gates 1 to ceil(m/2) - 1."""
    by_kind: dict[str, list[tuple[tuple[Gate, ...], frozenset[str]]]] = {}
    seen: set[tuple[Gate, ...]] = set()
    for template in templates:
        words = [template.gates]
        words.append(tuple(g.inverse() for g in reversed(template.gates)))
        for word in words:
            m = len(word)
            for k in range(m):
                rot = word[k:] + word[:k]
                if rot in seen:
                    continue
                seen.add(rot)
                needs = frozenset(g.kind for g in rot[1:(m + 1) // 2])
                by_kind.setdefault(rot[0].kind, []).append((rot, needs))
    return by_kind


def _bind_gate(
    t_gate: Gate, c_gate: Gate, binding: dict[int, int]
) -> dict[int, int] | None:
    """Extend the wire binding so t_gate maps onto c_gate, or give up."""
    if t_gate.kind != c_gate.kind:
        return None
    orientations = [c_gate.qubits]
    if len(c_gate.qubits) == 2 and c_gate.kind != "cx":
        orientations.append((c_gate.qubits[1], c_gate.qubits[0]))
    for conc in orientations:
        trial = dict(binding)
        ok = True
        for abs_w, conc_q in zip(t_gate.qubits, conc):
            bound = trial.get(abs_w)
            if bound is None:
                if conc_q in trial.values():
                    ok = False
                    break
                trial[abs_w] = conc_q
            elif bound != conc_q:
                ok = False
                break
        if ok:
            return trial
    return None


def _movable(gate: Gate, pending_mask: dict[int, int]) -> bool:
    return all(
        pending_mask.get(w, 0) in (0, _passable(gate, w)) for w in gate.qubits
    )


def _watched(t_gate: Gate, binding: dict[int, int]) -> dict[int, int]:
    """The concrete qubits of t_gate's bound wires, each with the mask a
    gate matching t_gate may pass there."""
    return {
        binding[w]: _passable(t_gate, w) for w in t_gate.qubits if w in binding
    }


def _match(
    gates: list[Gate], i: int, rot: tuple[Gate, ...]
) -> tuple[list[int], dict[int, int]] | None:
    """Match the longest prefix of rot that starts at gates[i].

    Returns the matched positions and the wire binding when the prefix
    licenses a rewrite: it covers at least half the word and binds every
    wire of the remainder. Shorter prefixes need not be tried: each has a
    smaller binding, a longer remainder and a worse score (``_delta``).

    The scan stops as soon as the next template gate can no longer be
    matched. A gate matching it has its kind and orientation, so on each
    already-bound wire it may pass only one pending mask (``_watched``).
    Pending masks only grow, so once a watched wire's mask is another
    value no later gate can match, and stopping returns what the full
    scan of the window would.
    """
    binding = _bind_gate(rot[0], gates[i], {})
    if binding is None:
        return None
    m = len(rot)
    matched_pos = [i]
    pending_mask: dict[int, int] = {}
    watched = _watched(rot[1], binding) if m > 1 else {}
    end = min(len(gates), i + _WINDOW)
    for j in range(i + 1, end):
        p = len(matched_pos)
        if p == m:
            break
        g = gates[j]
        trial = _bind_gate(rot[p], g, binding)
        if trial is not None and _movable(g, pending_mask):
            matched_pos.append(j)
            binding = trial
            if p + 1 < m:
                watched = _watched(rot[p + 1], binding)
            continue
        dead = False
        for w in g.qubits:
            mask = pending_mask.get(w, 0) | _wire_class(g, w)
            pending_mask[w] = mask
            if w in watched and mask != watched[w]:
                dead = True
        if dead:
            break
    p = len(matched_pos)
    if 2 * p < m or any(w not in binding for g in rot[p:] for w in g.qubits):
        return None
    return matched_pos, binding


def _delta(rot: tuple[Gate, ...], p: int) -> tuple[int, int]:
    """Change in (two-qubit weight, gate count) when the first p gates of
    rot are replaced by the inverted remainder."""
    weights = [TWO_QUBIT_WEIGHT.get(g.kind, 0) for g in rot]
    return sum(weights[p:]) - sum(weights[:p]), len(rot) - 2 * p


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
    and by rotation offset within a word; a rotation that repeats keeps
    its first index.

    Sweeps repeat while some position is unsettled. A position settles
    when it finds no rewrite, and unsettles when a rewrite changes its
    window.

    Caller templates are checked first: one whose word is not the
    identity raises a ``ValueError`` naming its id. ``deadline`` is a
    ``time.monotonic()`` value; once it has passed, the pass returns the
    circuit rewritten so far, which still implements the input.
    """
    if templates is None:
        templates = builtin_templates()
    else:
        for template in templates:
            if not template_is_identity(template):
                raise ValueError(
                    f"template {template.id!r} is not an identity word"
                )
    by_kind = _rotations(templates)
    gates = list(c.gates)
    # Every kind the circuit has held; it only over-approximates the
    # kinds present, so a rotation it rules out cannot match.
    present = {g.kind for g in gates}
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
                return Circuit(c.n, tuple(gates))
            candidates = []
            for index, (rot, needs) in enumerate(by_kind.get(gates[i].kind, ())):
                if not needs <= present:
                    continue
                found = _match(gates, i, rot)
                if found is None:
                    continue
                p = len(found[0])
                delta = _delta(rot, p)
                if delta < (0, 0):
                    candidates.append((delta, -p, index, rot, found))
            if not candidates:
                dirty[i] = False
                i += 1
                continue
            # The index is unique, so min never compares rot or found.
            *_, rot, (matched_pos, binding) = min(candidates)
            p = len(matched_pos)
            replacement = [
                g.inverse().relabeled(binding) for g in reversed(rot[p:])
            ]
            present.update(g.kind for g in replacement)
            matched = set(matched_pos)
            last = matched_pos[-1]
            kept = [gates[j] for j in range(i, last + 1) if j not in matched]
            gates[i:last + 1] = replacement + kept
            dirty[i:last + 1] = [True] * (len(replacement) + len(kept))
            dirty[max(0, i - _WINDOW + 1):i] = [True] * min(i, _WINDOW - 1)
    return Circuit(c.n, tuple(gates))


def reduce_single_qubit(c: Circuit) -> Circuit:
    """Template pass restricted to single-qubit rewrites."""
    singles = tuple(
        t for t in builtin_templates()
        if all(g.kind not in TWO_QUBIT_WEIGHT for g in t.gates)
    )
    out = match_and_apply(c, singles)
    if out.two_qubit_count != c.two_qubit_count:
        raise AssertionError("single-qubit pass changed two-qubit weight")
    return out


def to_cz_form(c: Circuit) -> Circuit:
    """Rewrite each CX as H-conjugated CZ; other gates pass through."""
    gates: list[Gate] = []
    for g in c.gates:
        if g.kind == "cx":
            ctrl, tgt = g.qubits
            gates += [h(tgt), Gate("cz", (ctrl, tgt)), h(tgt)]
        else:
            gates.append(g)
    return Circuit(c.n, tuple(gates))


def push_singles(c: Circuit, direction: str) -> Circuit:
    """Bubble single-qubit gates past two-qubit gates they commute with.

    Rightward, a diagonal gate (S, S-dagger, Z) hops over a CZ or a CX
    control on its wire, any single hops over a disjoint two-qubit gate,
    and an H followed by a CZ on its wire turns the CZ into a CX with
    the H re-emitted after it. Leftward mirrors the same moves.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', not {direction!r}")
    gates = list(c.gates)
    moved = True
    while moved:
        moved = False
        for i in range(len(gates) - 1):
            first, second = gates[i], gates[i + 1]
            if direction == "right":
                new = _commute_right(first, second)
            else:
                new = _commute_right(second, first)
                new = (new[1], new[0]) if new is not None else None
            if new is not None:
                gates[i], gates[i + 1] = new
                moved = True
    return Circuit(c.n, tuple(gates))


def _commute_right(first: Gate, second: Gate) -> tuple[Gate, Gate] | None:
    """Reorder [first, second] to an equivalent [second', first'] when
    first is a single-qubit gate that can hop right over second."""
    if len(first.qubits) != 1 or len(second.qubits) != 2:
        return None
    w = first.qubits[0]
    if w not in second.qubits:
        return second, first
    if first.kind in ("s", "sdg", "z") and _wire_class(second, w) == _DIAG_Z:
        return second, first
    if first.kind == "h" and second.kind == "cz":
        other = second.qubits[0] if second.qubits[1] == w else second.qubits[1]
        return cx(other, w), first
    return None
