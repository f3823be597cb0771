"""Unit tests for the HPACK size model."""

import pytest

from repro.hpack.codec import HpackDecoder, HpackEncoder, prefix_integer_length
from repro.hpack.huffman import huffman_encoded_length, string_literal_length
from repro.hpack.table import DynamicTable, HeaderField, STATIC_TABLE


# -- prefix integers --------------------------------------------------------

def test_prefix_integer_fits_prefix():
    assert prefix_integer_length(10, 5) == 1


def test_prefix_integer_boundary():
    # 2^5 - 1 = 31 does not fit a 5-bit prefix.
    assert prefix_integer_length(30, 5) == 1
    assert prefix_integer_length(31, 5) == 2


def test_prefix_integer_multibyte():
    # RFC 7541 C.1.2: 1337 with a 5-bit prefix takes 3 octets.
    assert prefix_integer_length(1337, 5) == 3


def test_prefix_integer_validation():
    with pytest.raises(ValueError):
        prefix_integer_length(-1, 5)
    with pytest.raises(ValueError):
        prefix_integer_length(1, 9)


# -- Huffman ---------------------------------------------------------------

def test_huffman_known_example():
    # RFC 7541 C.4.1: "www.example.com" Huffman-codes to 12 octets.
    assert huffman_encoded_length("www.example.com") == 12


def test_huffman_digits_efficient():
    # Digits are 5-6 bit codes: 8 digits fit 6 octets or fewer.
    assert huffman_encoded_length("20201103") <= 6


def test_string_literal_picks_shorter_encoding():
    # A string of rare characters is longer Huffman-coded; the literal
    # length must never exceed raw length + prefix.
    text = "~~~~~~~~"
    assert string_literal_length(text) <= 1 + len(text)


# -- static table -------------------------------------------------------------

def test_static_table_size():
    assert len(STATIC_TABLE) == 61


def test_static_table_well_known_entries():
    assert STATIC_TABLE[1] == HeaderField(":method", "GET")
    assert STATIC_TABLE[7] == HeaderField(":status", "200")
    assert STATIC_TABLE[57] == HeaderField("user-agent")


# -- dynamic table --------------------------------------------------------------

def test_dynamic_table_entry_size_accounting():
    table = DynamicTable(max_size=4096)
    field = HeaderField("x-a", "b")
    table.insert(field)
    assert table.size == field.table_size == 3 + 1 + 32


def test_dynamic_table_eviction_fifo():
    table = DynamicTable(max_size=80)
    table.insert(HeaderField("a", "1"))  # 34
    table.insert(HeaderField("b", "2"))  # 34 → 68
    table.insert(HeaderField("c", "3"))  # would be 102 → evict oldest
    assert len(table) == 2
    full, _ = table.lookup(HeaderField("a", "1"))
    assert full is None  # evicted


def test_dynamic_table_oversized_entry_clears():
    table = DynamicTable(max_size=40)
    table.insert(HeaderField("a", "1"))
    table.insert(HeaderField("x" * 100, "y"))
    assert len(table) == 0


def test_dynamic_table_resize_evicts():
    table = DynamicTable(max_size=200)
    for index in range(4):
        table.insert(HeaderField(f"h{index}", "v"))
    table.resize(70)
    assert table.size <= 70


def test_lookup_full_and_name_match():
    table = DynamicTable()
    full, name = table.lookup(HeaderField(":method", "GET"))
    assert full == 2
    full, name = table.lookup(HeaderField(":method", "DELETE"))
    assert full is None and name == 2


def _scan_lookup(table, field):
    """The two-loop linear scan over static then dynamic entries."""
    name_index = None
    for index, entry in enumerate(STATIC_TABLE, start=1):
        if entry.name == field.name:
            if entry.value == field.value:
                return index, index
            if name_index is None:
                name_index = index
    offset = len(STATIC_TABLE) + 1
    for index, entry in enumerate(table._entries):
        if entry.name == field.name:
            if entry.value == field.value:
                return offset + index, offset + index
            if name_index is None:
                name_index = offset + index
    return None, name_index


def test_lookup_matches_linear_scan():
    """The indexed static lookup keeps the scan's answers and its
    static-before-dynamic precedence."""
    empty = DynamicTable()
    populated = DynamicTable()
    for header in (
        HeaderField("x-custom", "a"),
        HeaderField(":method", "PUT"),  # repeats a static name
        HeaderField("x-custom", "b"),
        HeaderField(":status", "200"),  # repeats a whole static entry
        HeaderField("cookie", "id=1"),
    ):
        populated.insert(header)
    probes = list(STATIC_TABLE)
    probes += [HeaderField(entry.name, "foreign") for entry in STATIC_TABLE]
    probes += [
        HeaderField("x-absent", ""),
        HeaderField("x-absent", "v"),
        HeaderField("x-custom", "a"),
        HeaderField("x-custom", "b"),
        HeaderField("x-custom", "c"),
        HeaderField(":method", "PUT"),
        HeaderField(":status", "200"),
        HeaderField("cookie", "id=1"),
        HeaderField("cookie", "id=2"),
    ]
    for table in (empty, populated):
        for probe in probes:
            assert table.lookup(probe) == _scan_lookup(table, probe), probe
    assert populated.lookup(HeaderField(":method", "PUT")) == (65, 65)
    assert populated.lookup(HeaderField(":status", "200")) == (8, 8)
    assert populated.lookup(HeaderField("x-custom", "c")) == (None, 64)


def test_entry_at_dynamic_index():
    table = DynamicTable()
    table.insert(HeaderField("x-new", "v"))
    assert table.entry_at(62) == HeaderField("x-new", "v")
    with pytest.raises(IndexError):
        table.entry_at(63)
    with pytest.raises(IndexError):
        table.entry_at(0)


# -- encoder/decoder round trip ----------------------------------------------------

REQUEST_HEADERS = [
    (":method", "GET"),
    (":scheme", "https"),
    (":authority", "www.isidewith.com"),
    (":path", "/polls/2020"),
    ("user-agent", "Mozilla/5.0 Firefox/74.0"),
    ("accept", "*/*"),
]


def test_roundtrip_decodes_same_headers():
    encoder, decoder = HpackEncoder(), HpackDecoder()
    block = encoder.encode(REQUEST_HEADERS)
    assert decoder.decode(block) == REQUEST_HEADERS


def test_second_request_much_smaller():
    encoder = HpackEncoder()
    first = encoder.encode(REQUEST_HEADERS)
    second = encoder.encode(REQUEST_HEADERS)
    assert second.encoded_length < first.encoded_length / 3
    # Fully indexed: one octet per header.
    assert second.encoded_length == len(REQUEST_HEADERS)


def test_decoder_tracks_dynamic_table():
    encoder, decoder = HpackEncoder(), HpackDecoder()
    decoder.decode(encoder.encode(REQUEST_HEADERS))
    decoder.decode(encoder.encode(REQUEST_HEADERS))
    assert decoder.table.size == encoder.table.size


def test_desync_detected():
    encoder, decoder = HpackEncoder(), HpackDecoder()
    encoder.encode(REQUEST_HEADERS)          # block lost on the way
    second = encoder.encode(REQUEST_HEADERS)  # fully dynamic-indexed
    # Decoder missed the first block → dynamic references dangle.
    with pytest.raises(IndexError):
        decoder.decode(second)


def test_indexed_static_header_is_one_octet():
    encoder = HpackEncoder()
    block = encoder.encode([(":method", "GET")])
    assert block.encoded_length == 1


def test_path_change_costs_literal_only():
    encoder = HpackEncoder()
    encoder.encode(REQUEST_HEADERS)
    block = encoder.encode(
        [(":method", "GET"), (":path", "/img/parties/green.png")]
    )
    # method indexed (1) + path: name idx + value literal.
    assert 2 < block.encoded_length < 30


def test_realistic_get_request_block_sizes():
    """The GET-detection threshold (44 B TCP payload) relies on repeat
    requests staying above ~46 B of record payload: 9 B frame header +
    block ≥ 8; and control records staying below."""
    encoder = HpackEncoder()
    first = encoder.encode(REQUEST_HEADERS)
    assert first.encoded_length > 40  # cold table: literal-heavy
    repeat = encoder.encode(REQUEST_HEADERS)
    assert repeat.encoded_length >= 6
