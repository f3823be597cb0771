"""HPACK encoder/decoder pair (size-exact, byteless).

The encoder makes the same representation decisions a real HPACK
encoder makes — indexed field, literal with incremental indexing,
name-indexed literal — and reports the exact octet count each header
block would occupy, while keeping encoder and decoder dynamic tables in
sync.  Instead of bytes, a header block is represented by a list of
symbolic instructions, which the paired decoder replays.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from repro.hpack.huffman import string_literal_length
from repro.hpack.table import DynamicTable, HeaderField


def prefix_integer_length(value: int, prefix_bits: int) -> int:
    """Octets of an N-bit-prefix HPACK integer (RFC 7541 §5.1)."""
    if value < 0:
        raise ValueError("HPACK integers are non-negative")
    if not (1 <= prefix_bits <= 8):
        raise ValueError("prefix must be 1..8 bits")
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return 1
    value -= limit
    octets = 1
    while value >= 128:
        value >>= 7
        octets += 1
    return octets + 1


class _Instruction(NamedTuple):
    """One symbolic header-block instruction (a named tuple, like
    :class:`HeaderBlock`)."""

    kind: str  # "indexed" | "literal_indexed" | "literal"
    index: int  # table index (full or name match); 0 = literal name
    field: HeaderField
    octets: int


class HeaderBlock(NamedTuple):
    """An encoded header block: instructions plus total size.

    A named tuple (one per HEADERS frame written): immutable, hashable,
    and equal to any block of equal instructions and size.
    """

    instructions: Tuple[_Instruction, ...]
    encoded_length: int


class HpackEncoder:
    """Stateful HPACK encoder (dynamic table included)."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = DynamicTable(max_table_size)

    @property
    def table(self) -> DynamicTable:
        return self._table

    def encode(self, headers: Iterable[Tuple[str, str]]) -> HeaderBlock:
        """Encode a header list, updating the dynamic table.

        Returns a :class:`HeaderBlock` whose ``encoded_length`` is the
        exact octet count of the block a real encoder would emit.
        """
        instructions: List[_Instruction] = []
        total = 0
        for name, value in headers:
            field = HeaderField(name, value)
            instruction = self._encode_field(field)
            instructions.append(instruction)
            total += instruction.octets
        return HeaderBlock(tuple(instructions), total)

    def _encode_field(self, field: HeaderField) -> _Instruction:
        full_index, name_index = self._table.lookup(field)
        if full_index is not None:
            # Indexed header field: 7-bit prefix index.
            octets = prefix_integer_length(full_index, 7)
            return _Instruction("indexed", full_index, field, octets)
        # Literal with incremental indexing: 6-bit prefix name index
        # (0 when the name is literal too), then value literal.
        if name_index is not None:
            octets = prefix_integer_length(name_index, 6)
        else:
            octets = 1 + string_literal_length(field.name)
        octets += string_literal_length(field.value)
        self._table.insert(field)
        return _Instruction(
            "literal_indexed", name_index or 0, field, octets
        )


class HpackDecoder:
    """Stateful decoder replaying an encoder's symbolic instructions."""

    def __init__(self, max_table_size: int = 4096) -> None:
        self._table = DynamicTable(max_table_size)

    @property
    def table(self) -> DynamicTable:
        return self._table

    def decode(self, block: HeaderBlock) -> List[Tuple[str, str]]:
        """Decode a header block, updating the dynamic table.

        Raises:
            IndexError: when an indexed instruction references an entry
                the decoder's table does not have (desync).
        """
        headers: List[Tuple[str, str]] = []
        for instruction in block.instructions:
            if instruction.kind == "indexed":
                entry = self._table.entry_at(instruction.index)
                headers.append((entry.name, entry.value))
            elif instruction.kind == "literal_indexed":
                field = instruction.field
                if instruction.index:
                    name = self._table.entry_at(instruction.index).name
                    if name != field.name:
                        raise IndexError(
                            f"decoder desync: index {instruction.index} is "
                            f"{name!r}, expected {field.name!r}"
                        )
                headers.append((field.name, field.value))
                self._table.insert(field)
            else:
                headers.append((instruction.field.name, instruction.field.value))
        return headers
