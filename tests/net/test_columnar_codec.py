"""Round-trip property tests for the binary columnar wire codec.

The wire codec (`repro.net.columnar`) and the inter-process shard packer
(`repro.exec.shards.pack_column`) must agree forever: the wire encoder
*imports* the shard packer, and these tests pin the shared behaviour —
every typecode the packer can emit, the value ranges that select each
one (unsigned ceilings, the signed-64 window, the 64-bit boundaries),
and the JSON fallback for strings / None / bools / oversized ints —
by round-tripping through the full binary frame path.
"""

import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.exec.shards import pack_column
from repro.net import columnar, protocol

from tests.net.frames import read_frames

# ----------------------------------------------------------------------
# Value strategies spanning every typecode the packer can choose
# ----------------------------------------------------------------------
U8 = st.integers(0, 2**8 - 1)
U16 = st.integers(0, 2**16 - 1)
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
S64 = st.integers(-(2**63), 2**63 - 1)
HUGE = st.integers(min_value=2**64)          # beyond any typecode
NEG_HUGE = st.integers(max_value=-(2**63) - 1)
ANY_INT = st.one_of(U8, U16, U32, U64, S64, HUGE, NEG_HUGE)

#: What a wire cell may hold: ints of every magnitude, strings, None,
#: bools (an int subclass that must survive as bool), floats excluded —
#: the engine's values are ints, but the codec must pass anything
#: JSON-serializable through its fallback unharmed.
CELL = st.one_of(ANY_INT, st.text(max_size=8), st.none(), st.booleans())


def roundtrip(rows):
    """Encode rows into a full binary frame and read them back."""
    meta, blocks = columnar.encode_columns(rows)
    frame = protocol.encode_binary_frame(
        {"id": 1, "ok": True, "cols": meta, "n": len(rows)}, blocks
    )
    [decoded] = read_frames(frame)
    return decoded


# ----------------------------------------------------------------------
# Shared packer: typecode selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("values, expected", [
    ([], "B"),
    ([0, 255], "B"),
    ([0, 256], "H"),
    ([0, 2**16 - 1], "H"),
    ([0, 2**16], "I"),
    ([0, 2**32 - 1], "I"),
    ([0, 2**32], "Q"),
    ([0, 2**64 - 1], "Q"),
    ([-1, 5], "q"),
    ([-(2**63), 2**63 - 1], "q"),
])
def test_packer_picks_narrowest_typecode(values, expected):
    packed = pack_column(values)
    assert isinstance(packed, array) and packed.typecode == expected
    assert packed.tolist() == values


@pytest.mark.parametrize("values", [
    [0, 2**64],           # too big for Q
    [-1, 2**63],          # negative rules out Q; 2**63 overflows q
    [-(2**63) - 1],       # below the signed-64 floor
])
def test_packer_falls_back_to_list_beyond_64_bits(values):
    packed = pack_column(values)
    assert isinstance(packed, list) and packed == values


@given(st.lists(ANY_INT, max_size=50))
@settings(max_examples=200)
def test_packer_roundtrips_any_ints(values):
    packed = pack_column(values)
    as_list = packed.tolist() if isinstance(packed, array) else packed
    assert as_list == values


# ----------------------------------------------------------------------
# Wire codec: full-frame round trips
# ----------------------------------------------------------------------
@given(st.integers(2, 4).flatmap(
    lambda arity: st.lists(
        st.tuples(*[ANY_INT] * arity), min_size=0, max_size=30
    )
))
@settings(max_examples=150)
def test_integer_rows_roundtrip(rows):
    assert roundtrip(rows)["rows"] == rows


@given(st.integers(1, 3).flatmap(
    lambda arity: st.lists(
        st.tuples(*[CELL] * arity), min_size=0, max_size=25
    )
))
@settings(max_examples=150)
def test_mixed_rows_roundtrip_exactly(rows):
    decoded = roundtrip(rows)["rows"]
    assert decoded == rows
    # bools must come back as bools, ints as ints — not each other.
    for got, sent in zip(decoded, rows):
        for g, s in zip(got, sent):
            assert type(g) is type(s) or (g is None and s is None)


def test_empty_batch_roundtrips():
    decoded = roundtrip([])
    assert decoded["rows"] == []
    assert decoded["ok"] is True


def test_none_and_string_columns_use_json_blocks():
    rows = [(1, "x", None), (2, "y", None)]
    meta, _ = columnar.encode_columns(rows)
    kinds = [descriptor[0] for descriptor in meta]
    assert kinds == ["B", "J", "J"]
    assert roundtrip(rows)["rows"] == rows


def test_bool_columns_never_pack_as_ints():
    rows = [(True,), (False,)]
    meta, _ = columnar.encode_columns(rows)
    assert meta[0][0] == columnar.JSON_KIND
    assert roundtrip(rows)["rows"] == rows


def test_64_bit_boundary_columns_pick_expected_kinds():
    rows = [(2**64 - 1, -(2**63), 2**64)]
    meta, _ = columnar.encode_columns(rows)
    assert [d[0] for d in meta] == ["Q", "q", "J"]
    assert roundtrip(rows)["rows"] == rows


# ----------------------------------------------------------------------
# Malformed binary frames are protocol errors, not crashes
# ----------------------------------------------------------------------
def _binary_frame(header, blocks):
    return protocol.encode_binary_frame(header, blocks)


def _read_all(frame):
    return read_frames(frame)


def test_truncated_column_block_rejected():
    meta, blocks = columnar.encode_columns([(1, 2)] * 4)
    frame = _binary_frame({"id": 1, "ok": True, "cols": meta, "n": 4},
                          [blocks[0], blocks[1][:-1]])
    with pytest.raises(ProtocolError, match="malformed binary columnar"):
        _read_all(frame)


def test_trailing_bytes_rejected():
    meta, blocks = columnar.encode_columns([(1,)])
    frame = _binary_frame({"id": 1, "ok": True, "cols": meta, "n": 1},
                          blocks + [b"extra"])
    with pytest.raises(ProtocolError, match="malformed binary columnar"):
        _read_all(frame)


def test_unknown_column_kind_rejected():
    frame = _binary_frame({"id": 1, "ok": True,
                           "cols": [["Z", 1, 1]], "n": 1}, [b"\x01"])
    with pytest.raises(ProtocolError, match="malformed binary columnar"):
        _read_all(frame)


def test_row_count_mismatch_rejected():
    meta, blocks = columnar.encode_columns([(1,), (2,)])
    frame = _binary_frame({"id": 1, "ok": True, "cols": meta, "n": 3},
                          blocks)
    with pytest.raises(ProtocolError, match="malformed binary columnar"):
        _read_all(frame)


def test_json_block_count_mismatch_rejected():
    block = json.dumps(["a", "b"]).encode()
    frame = _binary_frame(
        {"id": 1, "ok": True, "cols": [["J", 3, len(block)]], "n": 3},
        [block],
    )
    with pytest.raises(ProtocolError, match="malformed binary columnar"):
        _read_all(frame)


def test_header_length_overrun_rejected():
    body = protocol._LENGTH.pack(10**6) + b"{}"
    frame = protocol._LENGTH.pack(len(body) | protocol.BINARY_FLAG) + body
    with pytest.raises(ProtocolError, match="overruns"):
        _read_all(frame)
