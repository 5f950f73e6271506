"""Unit tests for peer ids and GUIDs."""

import copy
import gc
import pickle
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.wire import GnutellaHeader, encode_query_hit
from repro.errors import WireFormatError
from repro.overlay.ids import GuidFactory, PeerId
from repro.overlay.message import MessageKind, QueryHit


def test_peer_id_ipv4_mapping_roundtrip():
    pid = PeerId(0x012345)
    raw = pid.ipv4_bytes()
    assert raw[0] == 10
    assert PeerId.from_ipv4_bytes(raw) == pid


def test_peer_id_dotted_quad():
    assert PeerId(0).ipv4 == "10.0.0.0"
    assert PeerId(1).ipv4 == "10.0.0.1"
    assert PeerId(256).ipv4 == "10.0.1.0"
    assert PeerId(2**24 - 1).ipv4 == "10.255.255.255"


def test_peer_id_range_enforced():
    with pytest.raises(ValueError):
        PeerId(-1)
    with pytest.raises(ValueError):
        PeerId(2**24)


def test_peer_id_ordering_and_hash():
    a, b = PeerId(1), PeerId(2)
    assert a < b
    assert len({PeerId(3), PeerId(3)}) == 1


def test_peer_id_equality_is_by_value_and_only_between_peer_ids():
    # Inside a network ids are canonical (dict/set probes hit on identity),
    # but ids decoded off the wire or written as literals are twins of them.
    a, twin = PeerId(3), PeerId(3)
    assert a is not twin
    assert a == twin and not (a != twin)
    assert a != PeerId(4)
    assert {a: "x"}[twin] == "x" and twin in {a} and {a, twin} == {a}
    assert a != 3 and a != (3,)
    assert (a == object()) is False  # the NotImplemented path
    assert a.__eq__(3) is NotImplemented
    assert sorted([PeerId(9), a, PeerId(1)]) == [PeerId(1), a, PeerId(9)]
    assert a <= twin and a >= twin and not a < twin


def test_peer_id_hash_is_the_hash_of_its_field_tuple():
    # The memoised hash must stay what @dataclass(frozen=True) generates:
    # neighbor sets are set[PeerId], and both the DES fan-out and the
    # des-soa engine's replay of it follow their iteration order.
    rng = random.Random(0)
    sample = [0, 1, 255, 256, 2**16, 2**24 - 1] + [
        rng.randrange(2**24) for _ in range(500)
    ]
    for v in sample:
        assert hash(PeerId(v)) == hash((v,))


def test_peer_id_set_iteration_order_is_pinned():
    vs = [17, 4, 9001, 256, 3, 65536, 42, 1_000_000, 8, 2**24 - 1, 12345, 77]
    order = [p.value for p in {PeerId(v) for v in vs}]
    # same hashes, same insertions: same layout as a set of the tuples
    assert order == [t[0] for t in {(v,) for v in vs}]
    if sys.implementation.name == "cpython" and sys.hash_info.width == 64:
        # recorded before the hash was memoised (CPython >= 3.8 tuple hash)
        assert order == [
            256, 65536, 12345, 8, 4, 17, 9001, 42, 1000000, 16777215, 3, 77
        ]


@pytest.mark.parametrize(
    "clone",
    [
        copy.copy,
        copy.deepcopy,
        lambda p: pickle.loads(pickle.dumps(p)),
        lambda p: pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)),
    ],
    ids=["copy", "deepcopy", "pickle", "pickle-highest"],
)
def test_peer_id_survives_copy_and_pickle(clone):
    # exec.pmap ships PeerIds to spawned workers and back
    pid = PeerId(54321)
    twin = clone(pid)
    assert twin == pid
    assert hash(twin) == hash(pid) == hash((54321,))
    assert twin in {pid}


def test_from_ipv4_bytes_validates():
    with pytest.raises(ValueError):
        PeerId.from_ipv4_bytes(b"\x0a\x00\x00")  # too short
    with pytest.raises(ValueError):
        PeerId.from_ipv4_bytes(b"\x0b\x00\x00\x00")  # wrong prefix


def test_guid_must_be_16_bytes():
    # A GUID is its raw bytes; the wire boundary enforces the length.
    for bad in (b"short", b"\x00" * 15, b"\x00" * 17, bytearray(16), "x" * 16):
        with pytest.raises(WireFormatError):
            GnutellaHeader(bad, MessageKind.PING, 1, 0, 0).encode()
        with pytest.raises(WireFormatError):
            encode_query_hit(QueryHit(b"\x00" * 16, responder=PeerId(1), query_guid=bad))
    assert len(GnutellaHeader(b"\x00" * 16, MessageKind.PING, 1, 0, 0).encode()) == 23


def test_guid_factory_unique():
    factory = GuidFactory(random.Random(0))
    guids = {factory.new() for _ in range(1000)}
    assert len(guids) == 1000


def test_guid_factory_deterministic():
    a = GuidFactory(random.Random(5)).new()
    b = GuidFactory(random.Random(5)).new()
    assert a == b


def test_guid_factory_bytes_are_head_draw_then_counter():
    # One 64-bit draw per GUID, big-endian, then the 64-bit counter: the
    # two-``to_bytes`` form the factory used before it built them in one.
    factory = GuidFactory(random.Random(7))
    rng = random.Random(7)
    for counter in range(1, 1001):
        head = rng.getrandbits(64).to_bytes(8, "big")
        assert factory.new() == head + counter.to_bytes(8, "big")


def test_guid_hex():
    g = GuidFactory(random.Random(7)).new()
    assert g.hex() == f"{random.Random(7).getrandbits(64):016x}{1:016x}"


def test_guid_is_plain_untracked_bytes():
    # 16 raw bytes: hashed and compared in C, never visited by the cyclic GC.
    g = GuidFactory(random.Random(5)).new()
    assert type(g) is bytes and len(g) == 16
    assert gc.is_tracked(g) is False


def test_peer_id_hash_is_the_tuple_slot():
    assert PeerId.__hash__ is tuple.__hash__


@given(st.lists(st.integers(0, 2**24 - 1), unique=True, max_size=200))
def test_peer_id_sets_iterate_like_sets_of_1_tuples(vs):
    # What the des-soa engine's fan-out replay rests on, for any ids.
    assert [p.value for p in {PeerId(v) for v in vs}] == [
        t[0] for t in {(v,) for v in vs}
    ]
