"""Operation set of the modeled CGRAs.

The Plaid paper's ALUs are 16-bit units supporting "ADD, MUL, SHIFT, and
various bit-wise operations, totalling 15 operations"; loads and stores are
handled by memory-capable units (the ALSU in Plaid).  We model exactly that
op budget: 15 compute opcodes plus LOAD and STORE.
"""

from __future__ import annotations

import enum
from typing import Callable

WORD_BITS = 16
WORD_MASK = (1 << WORD_BITS) - 1
WORD_SIGN = 1 << (WORD_BITS - 1)


class Opcode(enum.Enum):
    """Every operation a functional unit can execute."""

    # Arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    ABS = "abs"
    # Shifts
    SHL = "shl"
    SHR = "shr"   # arithmetic shift right
    LSR = "lsr"   # logical shift right
    # Bit-wise
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    # Comparison / selection (predication support)
    CMP = "cmp"   # set-less-than (signed)
    SEL = "sel"   # a if predicate held in const/third input else b
    MIN = "min"
    MAX = "max"
    # Memory (ALSU / memory-capable PEs only)
    LOAD = "load"
    STORE = "store"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Compute opcodes, in a stable order (15 ops, matching the paper's ALU).
COMPUTE_OPS: tuple[Opcode, ...] = (
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.ABS,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.LSR,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.NOT,
    Opcode.CMP,
    Opcode.SEL,
    Opcode.MIN,
    Opcode.MAX,
)

MEMORY_OPS: tuple[Opcode, ...] = (Opcode.LOAD, Opcode.STORE)

#: Single-cycle latency for every op (statically scheduled CGRA convention).
OP_LATENCY: dict[Opcode, int] = {op: 1 for op in Opcode}

#: Number of data operands each op consumes (immediates excluded).
OP_ARITY: dict[Opcode, int] = {
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.ABS: 1,
    Opcode.SHL: 2,
    Opcode.SHR: 2,
    Opcode.LSR: 2,
    Opcode.AND: 2,
    Opcode.OR: 2,
    Opcode.XOR: 2,
    Opcode.NOT: 1,
    Opcode.CMP: 2,
    Opcode.SEL: 3,
    Opcode.MIN: 2,
    Opcode.MAX: 2,
    Opcode.LOAD: 0,
    Opcode.STORE: 1,
}

#: Ops whose two data operands commute (used by mappers to relax routing).
COMMUTATIVE_OPS: frozenset[Opcode] = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
     Opcode.MIN, Opcode.MAX}
)


def is_compute_op(op: Opcode) -> bool:
    """True for ops executable on a plain ALU (not LOAD/STORE)."""
    return op not in MEMORY_OPS


def is_memory_op(op: Opcode) -> bool:
    """True for LOAD and STORE."""
    return op in MEMORY_OPS


def to_signed(value: int) -> int:
    """Interpret a 16-bit pattern as a signed integer."""
    value &= WORD_MASK
    return value - (1 << WORD_BITS) if value & WORD_SIGN else value


def to_unsigned(value: int) -> int:
    """Wrap an integer to its 16-bit pattern."""
    return value & WORD_MASK


def _add(a: int, b: int) -> int:
    return (a + b) & WORD_MASK


def _sub(a: int, b: int) -> int:
    return (a - b) & WORD_MASK


def _mul(a: int, b: int) -> int:
    return (a * b) & WORD_MASK


def _abs(a: int) -> int:
    return abs(to_signed(a)) & WORD_MASK


def _shl(a: int, b: int) -> int:
    return (a << (b & 0xF)) & WORD_MASK


def _shr(a: int, b: int) -> int:
    return (to_signed(a) >> (b & 0xF)) & WORD_MASK


def _lsr(a: int, b: int) -> int:
    return (a & WORD_MASK) >> (b & 0xF)


def _and(a: int, b: int) -> int:
    return a & b & WORD_MASK


def _or(a: int, b: int) -> int:
    return (a | b) & WORD_MASK


def _xor(a: int, b: int) -> int:
    return (a ^ b) & WORD_MASK


def _not(a: int) -> int:
    return ~a & WORD_MASK


def _cmp(a: int, b: int) -> int:
    return 1 if to_signed(a) < to_signed(b) else 0


def _sel(a: int, b: int, predicate: int) -> int:
    return (a if predicate & WORD_MASK else b) & WORD_MASK


def _min(a: int, b: int) -> int:
    return min(to_signed(a), to_signed(b)) & WORD_MASK


def _max(a: int, b: int) -> int:
    return max(to_signed(a), to_signed(b)) & WORD_MASK


#: The 16-bit semantics of every compute op, one function per opcode
#: taking its ``OP_ARITY`` operands positionally (raw patterns in, a
#: pattern out).  Signedness only matters where the result depends on it
#: (ABS, SHR, CMP, MIN, MAX); wrap-around arithmetic is sign-agnostic.
#: Simulators and the interpreter call these directly;
#: :func:`evaluate` is the checked front end.
OP_EVAL: dict[Opcode, Callable[..., int]] = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.ABS: _abs,
    Opcode.SHL: _shl,
    Opcode.SHR: _shr,
    Opcode.LSR: _lsr,
    Opcode.AND: _and,
    Opcode.OR: _or,
    Opcode.XOR: _xor,
    Opcode.NOT: _not,
    Opcode.CMP: _cmp,
    Opcode.SEL: _sel,
    Opcode.MIN: _min,
    Opcode.MAX: _max,
}


def evaluate(op: Opcode, operands: list[int], const: int | None = None) -> int:
    """Execute one compute op on 16-bit wrapped operands.

    ``operands`` are raw 16-bit patterns; the result is a 16-bit pattern.
    ``const`` supplies the immediate for ops with a missing data operand
    (the frontend folds 8-bit constants into the instruction, as the Plaid
    configuration format does).
    """
    args = list(operands)
    arity = OP_ARITY[op]
    if const is not None and len(args) < arity:
        args.append(to_unsigned(const))
    if len(args) != arity:
        raise ValueError(
            f"{op.name} expects {arity} operands, got {len(args)}"
        )
    func = OP_EVAL.get(op)
    if func is None:
        raise ValueError(f"{op.name} is not a compute op")
    return func(*args)
