"""Pauli operators on n qubits with exact phase tracking.

An operator is stored as ``i**phase_exp * prod_q X_q**x_q * Z_q**z_q``
where the X factor is written before the Z factor on every qubit and
``phase_exp`` is kept mod 4. A bare Y therefore carries ``phase_exp`` 1
in this normal form, since Y = i X Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Gate, _expect, _integer, _same_width

_AXIS_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_AXIS = {v: k for k, v in _AXIS_BITS.items()}
_SIGN_PREFIX = {0: "+", 1: "i", 2: "-", 3: "-i"}


def _bit(value: int, index: int) -> int:
    return (value >> index) & 1


@dataclass(frozen=True)
class PauliOperator:
    """An n-qubit Pauli operator with an exact i**phase_exp prefactor."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if not (
            type(self.n) is type(self.x_bits) is type(self.z_bits)
            is type(self.phase_exp) is int
        ):
            for name in ("n", "x_bits", "z_bits", "phase_exp"):
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        limit = 1 << self.n
        if not (0 <= self.x_bits < limit and 0 <= self.z_bits < limit):
            raise ValueError(
                f"component bits out of range for {self.n} qubit(s)"
            )
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliOperator":
        """Build from a string like ``"XIZ"``, ``"-YZ"`` or ``"iXY"``.

        Character position q names the action on qubit q. An optional
        prefix ``+``, ``-``, ``i`` or ``-i`` sets the overall phase; Y
        letters contribute their own factor of i on top of it.
        """
        _expect(label, str, "label")
        body = label
        phase = 0
        for prefix, value in (("-i", 3), ("+", 0), ("-", 2), ("i", 1)):
            if body.startswith(prefix):
                phase = value
                body = body[len(prefix):]
                break
        if not body:
            raise ValueError(f"empty Pauli label {label!r}")
        x_bits = z_bits = 0
        for q, ch in enumerate(body):
            if ch not in _AXIS_BITS:
                raise ValueError(f"bad Pauli letter {ch!r} in {label!r}")
            xb, zb = _AXIS_BITS[ch]
            x_bits |= xb << q
            z_bits |= zb << q
            if ch == "Y":
                phase += 1
        return cls(len(body), x_bits, z_bits, phase % 4)

    def to_label(self) -> str:
        letters = []
        for q in range(self.n):
            letters.append(_BITS_AXIS[(_bit(self.x_bits, q), _bit(self.z_bits, q))])
        residual = (self.phase_exp - self.y_count) % 4
        return _SIGN_PREFIX[residual] + "".join(letters)

    @property
    def y_count(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    @property
    def is_hermitian(self) -> bool:
        return (self.phase_exp - self.y_count) % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator."""
        if not self.is_hermitian:
            raise ValueError(f"{self.to_label()} is not Hermitian")
        return 1 if (self.phase_exp - self.y_count) % 4 == 0 else -1

    def axis(self, q: int) -> str:
        """The letter I, X, Y or Z acting on qubit q."""
        q = _integer(q, "q")
        if not 0 <= q < self.n:
            raise ValueError(f"q {q} out of range for {self.n} qubit(s)")
        return _BITS_AXIS[(_bit(self.x_bits, q), _bit(self.z_bits, q))]

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        _expect(other, PauliOperator, "other")
        _same_width(self.n, other.n)
        return PauliOperator(self.n, *product_bits(
            self.x_bits, self.z_bits, self.phase_exp,
            other.x_bits, other.z_bits, other.phase_exp,
        ))

    def commutes_with(self, other: "PauliOperator") -> bool:
        return not anticommute(self, other)

    def __str__(self) -> str:
        return self.to_label()


def conjugate_columns(
    gate: Gate, x, z, e0: int, e1: int
) -> tuple[int, int]:
    """Conjugate a stack of Pauli rows by one gate: row r becomes g P_r g^-1.

    Bit r of the columns ``x[q]`` and ``z[q]`` is row r's X / Z component
    on qubit q, and row r's phase is i**(e0_r + 2*e1_r), X before Z. The
    gate's columns are updated in place; the new phase planes are
    returned. This one rule serves a tableau, with 2n-row columns, and
    one-row stacks in one-bit columns: the stage partition's Pauli layer
    and, once at import, the pair reducer's table of local-word signs.
    """
    kind = gate.kind
    # a is the only qubit, the CX control or the first two-qubit operand.
    a, b = gate.qubits[0], gate.qubits[-1]
    if kind == "h":
        e1 ^= x[a] & z[a]
        x[a], z[a] = z[a], x[a]
    elif kind == "s":
        e1 ^= e0 & x[a]
        e0 ^= x[a]
        z[a] ^= x[a]
    elif kind == "sdg":
        e1 ^= ~e0 & x[a]
        e0 ^= x[a]
        z[a] ^= x[a]
    elif kind == "x":
        e1 ^= z[a]
    elif kind == "y":
        e1 ^= x[a] ^ z[a]
    elif kind == "z":
        e1 ^= x[a]
    elif kind == "cx":
        x[b] ^= x[a]
        z[a] ^= z[b]
    elif kind == "cz":
        e1 ^= x[a] & x[b]
        z[a], z[b] = z[a] ^ x[b], z[b] ^ x[a]
    elif kind == "swap":
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]
    else:  # pragma: no cover
        raise ValueError(f"unknown gate kind {kind!r}")
    return e0, e1


def product_bits(x1: int, z1: int, e1: int, x2: int, z2: int, e2: int) -> tuple:
    """(x bits, z bits, phase_exp) of the product of the operators
    i**e1 X^x1 Z^z1 and i**e2 X^x2 Z^z2. Moving the second X block left
    past the first Z block gives a factor (-1) per crossing, folded into
    the i exponent as +2."""
    return x1 ^ x2, z1 ^ z2, (e1 + e2 + 2 * (z1 & x2).bit_count()) % 4


def anticommute_bits(x1: int, z1: int, x2: int, z2: int) -> bool:
    """True when the operators with these component bits anticommute:
    their symplectic product is odd."""
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 1


def anticommute(p: PauliOperator, q: PauliOperator) -> bool:
    """True when the two operators anticommute."""
    _expect(p, PauliOperator, "p")
    _expect(q, PauliOperator, "q")
    _same_width(p.n, q.n)
    return anticommute_bits(p.x_bits, p.z_bits, q.x_bits, q.z_bits)
