"""DFG nodes and affine memory-access descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ops import Opcode, is_compute_op, is_memory_op


@dataclass(frozen=True)
class AffineAccess:
    """Affine array access ``array[base + sum_k coeffs[k] * iv[k]]``.

    CGRA memory units resolve addresses with address-generation hardware
    configured with a base and per-loop-dimension strides, so address
    arithmetic never appears as DFG nodes (consistent with the paper's
    Table 2 node counts).  ``coeffs`` has one entry per loop dimension of the
    kernel's iteration space, outermost first.
    """

    array: str
    base: int = 0
    coeffs: tuple[int, ...] = ()

    def address(self, indices: tuple[int, ...]) -> int:
        """Element offset within ``array`` for one iteration-space point."""
        if len(indices) < len(self.coeffs):
            raise ValueError(
                f"access to '{self.array}' needs {len(self.coeffs)} loop "
                f"indices, got {len(indices)}"
            )
        offset = self.base
        for coeff, index in zip(self.coeffs, indices):
            offset += coeff * index
        return offset

    def addresses(self, trip_counts: tuple[int, ...], count: int
                  ) -> list[int]:
        """Element offsets of the first ``count`` points of the iteration
        space ``trip_counts`` (flat order, innermost index fastest):
        ``[address(iteration_indices(k)) for k in range(count)]``, built
        one loop dimension at a time instead of point by point."""
        if len(trip_counts) < len(self.coeffs):
            raise ValueError(
                f"access to '{self.array}' needs {len(self.coeffs)} loop "
                f"indices, got {len(trip_counts)}"
            )
        if count < 1:
            return []
        offsets = [self.base]
        inner = 1
        for trip in trip_counts:
            inner *= trip
        for dim, trip in enumerate(trip_counts):
            inner //= trip
            # Points needed at this depth to cover the first ``count``.
            need = -(-count // inner)
            coeff = self.coeffs[dim] if dim < len(self.coeffs) else 0
            offsets = [offset + coeff * index for offset in offsets
                       for index in range(trip)][:need]
        return offsets[:count]

    def describe(self) -> str:
        """Human-readable form, e.g. ``A[16*i0 + i1 + 3]``."""
        terms = [
            f"{coeff}*i{dim}" if coeff != 1 else f"i{dim}"
            for dim, coeff in enumerate(self.coeffs)
            if coeff != 0
        ]
        if self.base or not terms:
            terms.append(str(self.base))
        return f"{self.array}[{' + '.join(terms)}]"


@dataclass
class DFGNode:
    """One operation of the dataflow graph.

    Attributes:
        node_id: Dense integer id, unique within the owning DFG.
        op: The operation this node executes.
        name: Stable human-readable name (frontend-assigned).
        const: Optional immediate operand (folded into the instruction's
            8-bit constant field, sign-extended at execution).
        access: Memory access descriptor; required iff ``op`` is LOAD/STORE.
    """

    node_id: int
    op: Opcode
    name: str = ""
    const: int | None = None
    access: AffineAccess | None = None
    annotations: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"n{self.node_id}"
        if is_memory_op(self.op) and self.access is None:
            raise ValueError(f"{self.op.name} node '{self.name}' needs an access")
        if is_compute_op(self.op) and self.access is not None:
            raise ValueError(f"compute node '{self.name}' cannot have an access")

    @property
    def is_compute(self) -> bool:
        """True if this node runs on a plain ALU."""
        return is_compute_op(self.op)

    @property
    def is_memory(self) -> bool:
        """True if this node needs a memory-capable unit."""
        return is_memory_op(self.op)

    def __repr__(self) -> str:
        extra = ""
        if self.const is not None:
            extra = f", const={self.const}"
        if self.access is not None:
            extra = f", {self.access.describe()}"
        return f"DFGNode({self.node_id}, {self.op.name}{extra})"
