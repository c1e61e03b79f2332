"""The on-disk format both write-ahead logs share: golden frame bytes and
the record codec's compatibility contract, pinned through the public
framing and replay functions."""

import json
import struct
import zlib

import pytest

from repro.edge.spool import (
    KIND_CLIP,
    SpoolRecord,
    frame_spool_record,
    replay_spool,
)
from repro.serving.journal import (
    KIND_DEFERRED,
    VerdictRecord,
    frame_record,
    replay_journal,
)
from repro.wal import AckState, frame_ack, frame_watermark


def _acks(*sequences):
    acks = AckState()
    for sequence in sequences:
        acks.add(sequence)
    return acks


#: One frame of each kind: header bytes (magic, length u32 LE, CRC32 u32
#: LE), then the payload.
GOLDEN = [
    (frame_record(VerdictRecord(
        session_id="drv-7", sequence=3, timestamp=0.75, kind=KIND_DEFERRED,
        predicted=2, confidence=0.5, degraded=True,
        model_key="privacy-high", reason="shard died")),
     "564aa6000000fc164128",
     b'{"confidence":0.5,"degraded":true,"kind":"deferred",'
     b'"model_key":"privacy-high","predicted":2,"reason":"shard died",'
     b'"sequence":3,"session_id":"drv-7","timestamp":0.75}'),
    (frame_spool_record(SpoolRecord(
        agent_id="edge-1", sequence=9, timestamp=2.25, kind=KIND_CLIP,
        predicted=4, confidence=0.75, model_version=3, payload="c0ffee")),
     "455397000000e92b1f3f",
     b'{"agent_id":"edge-1","confidence":0.75,"degraded":false,'
     b'"kind":"clip","model_version":3,"payload":"c0ffee","predicted":4,'
     b'"sequence":9,"timestamp":2.25}'),
    (frame_ack(12), "414b0800000026ca8d32", struct.pack("<Q", 12)),
    (frame_watermark(_acks(1, 2, 3, 4, 5, 7, 9)), "574d1800000006d254a9",
     struct.pack("<3Q", 5, 7, 9)),
]


@pytest.mark.parametrize("frame,header,payload", GOLDEN,
                         ids=["VJ", "ES", "AK", "WM"])
def test_frames_match_golden_bytes(frame, header, payload):
    assert frame == bytes.fromhex(header) + payload


def _hand_frame(magic, data):
    payload = json.dumps(data).encode("utf-8")
    return (struct.pack("<2sII", magic, len(payload), zlib.crc32(payload))
            + payload)


#: (magic, replay, record class, id field) for each log.
LOGS = [(b"VJ", replay_journal, VerdictRecord, "session_id"),
        (b"ES", replay_spool, SpoolRecord, "agent_id")]


@pytest.mark.parametrize("magic,replay,cls,id_field", LOGS,
                         ids=["journal", "spool"])
def test_missing_optional_fields_decode_with_defaults(tmp_path, magic,
                                                      replay, cls, id_field):
    path = tmp_path / "log.wal"
    path.write_bytes(_hand_frame(magic, {id_field: "x", "sequence": 4,
                                         "timestamp": 1}))
    result = replay(str(path))
    assert result.records == [cls("x", 4, 1.0)]
    assert isinstance(result.records[0].timestamp, float)
    assert result.torn == 0


@pytest.mark.parametrize("magic,replay,cls,id_field", LOGS,
                         ids=["journal", "spool"])
def test_unknown_keys_are_ignored(tmp_path, magic, replay, cls, id_field):
    path = tmp_path / "log.wal"
    path.write_bytes(_hand_frame(magic, {
        id_field: "x", "sequence": 4, "timestamp": 1.5, "degraded": 1,
        "trace_id": "t-1", "added_later": [1, 2]}))
    result = replay(str(path))
    assert result.records == [cls("x", 4, 1.5, degraded=True)]
    assert result.torn == 0


@pytest.mark.parametrize("magic,replay,cls,id_field", LOGS,
                         ids=["journal", "spool"])
def test_frame_missing_a_required_field_ends_replay_as_torn(
        tmp_path, magic, replay, cls, id_field):
    first = _hand_frame(magic, {id_field: "x", "sequence": 1,
                                "timestamp": 0.0})
    path = tmp_path / "log.wal"
    path.write_bytes(first
                     + _hand_frame(magic, {id_field: "x", "timestamp": 0.25})
                     + _hand_frame(magic, {id_field: "x", "sequence": 3,
                                           "timestamp": 0.5}))
    result = replay(str(path))
    assert result.records == [cls("x", 1, 0.0)]
    assert result.torn == 1
    assert result.bytes_read == len(first)
