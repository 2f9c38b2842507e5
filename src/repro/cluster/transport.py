"""Real record transport whose framing is priced by ``MessageSizeModel``.

The simulated cluster's bill (:class:`~repro.engine.ClusterState`)
*counts* bytes; this module actually *moves* them.  A :class:`RecordChannel` wraps one
``multiprocessing`` pipe connection and ships batches of
``(vertex id, payload)`` records as framed binary messages whose layout
is generated from a :class:`~repro.cluster.MessageSizeModel`:

* one fixed header of ``message_header_bytes`` (magic, version, kind
  code, record count, tag — zero-padded to the model's header size),
* ``num_records`` packed records of ``record_bytes()`` each (vertex id,
  payload, ``record_overhead_bytes`` of framing pad).

Because the frame layout is *derived from* the size model, the measured
bytes of a non-empty frame equal ``batch_bytes(num_records)`` exactly —
and the channel still verifies that equality on every frame and keeps
independent measured-vs-model tallies, so a drifting model (or a buggy
codec) fails loudly instead of silently skewing the paper's
network-bytes claims.  The one structural difference is the empty
frame: a real transport must frame a zero-record message to keep the
stream aligned, while the simulated model prices empty sends at zero
(``batch_bytes(0) == 0``); empty frames are therefore tallied
separately and excluded from record-traffic reconciliation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .network import MessageSizeModel

__all__ = ["WireCodec", "TransportTally", "RecordChannel", "KIND_CODES"]

_MAGIC = 0xF0
_VERSION = 1
_HEADER = struct.Struct("<BBBxIQ")  # magic, version, kind, count, tag

#: Stable record-kind numbering shared by both pipe ends.
KIND_CODES = {
    "control": 0,
    "sync": 1,
    "gather": 2,
    "scatter": 3,
    "result": 4,
}
_KIND_NAMES = {code: kind for kind, code in KIND_CODES.items()}


class WireCodec:
    """Frame encoder/decoder generated from a :class:`MessageSizeModel`."""

    def __init__(self, size_model: MessageSizeModel | None = None) -> None:
        self.size_model = size_model or MessageSizeModel()
        if self.size_model.message_header_bytes < _HEADER.size:
            raise ConfigError(
                f"message_header_bytes must be >= {_HEADER.size} to hold "
                "the frame header"
            )
        for name in ("vertex_id_bytes", "payload_bytes"):
            width = getattr(self.size_model, name)
            if width not in (1, 2, 4, 8):
                raise ConfigError(
                    f"{name}={width} has no packed integer encoding"
                )
        fields = [
            ("v", f"<i{self.size_model.vertex_id_bytes}"),
            ("p", f"<i{self.size_model.payload_bytes}"),
        ]
        if self.size_model.record_overhead_bytes:
            fields.append(
                ("pad", f"V{self.size_model.record_overhead_bytes}")
            )
        self.record_dtype = np.dtype(fields)
        assert self.record_dtype.itemsize == self.size_model.record_bytes()

    def encode(
        self,
        kind: str,
        vertices: np.ndarray,
        payloads: np.ndarray,
        tag: int = 0,
    ) -> bytes:
        vertices = np.asarray(vertices)
        payloads = np.asarray(payloads)
        if vertices.shape != payloads.shape or vertices.ndim != 1:
            raise ConfigError("vertices/payloads must be equal-length 1-d")
        records = np.zeros(vertices.size, dtype=self.record_dtype)
        records["v"] = vertices
        records["p"] = payloads
        header = _HEADER.pack(
            _MAGIC, _VERSION, KIND_CODES[kind], vertices.size, tag
        )
        pad = self.size_model.message_header_bytes - _HEADER.size
        return header + b"\x00" * pad + records.tobytes()

    def decode(self, frame: bytes) -> tuple[str, int, np.ndarray, np.ndarray]:
        """Return ``(kind, tag, vertices, payloads)`` of one frame."""
        magic, version, code, count, tag = _HEADER.unpack_from(frame)
        if magic != _MAGIC or version != _VERSION:
            raise ConfigError("malformed transport frame")
        records = np.frombuffer(
            frame,
            dtype=self.record_dtype,
            count=count,
            offset=self.size_model.message_header_bytes,
        )
        return (
            _KIND_NAMES[code],
            tag,
            records["v"].astype(np.int64),
            records["p"].astype(np.int64),
        )


@dataclass
class TransportTally:
    """One direction's cumulative transport traffic, measured and modeled.

    ``measured_bytes`` counts every byte of every frame as it actually
    crossed the pipe; ``model_bytes`` prices the same frames through
    ``MessageSizeModel.batch_bytes`` — the reconciliation invariant is
    ``measured == model + empty_frames * message_header_bytes`` (empty
    frames carry a real header the zero-priced model ignores).
    """

    measured_bytes: int = 0
    model_bytes: int = 0
    messages: int = 0
    records: int = 0
    empty_frames: int = 0

    def add(self, num_records: int, frame_bytes: int, model_bytes: int) -> None:
        self.measured_bytes += frame_bytes
        self.model_bytes += model_bytes
        self.messages += 1
        self.records += num_records
        if num_records == 0:
            self.empty_frames += 1

    def merge(self, other: "TransportTally") -> None:
        self.measured_bytes += other.measured_bytes
        self.model_bytes += other.model_bytes
        self.messages += other.messages
        self.records += other.records
        self.empty_frames += other.empty_frames

    def reconciles(self, size_model: MessageSizeModel | None = None) -> bool:
        """Measured bytes match the model's pricing of the same frames."""
        header = (size_model or MessageSizeModel()).message_header_bytes
        return self.measured_bytes == (
            self.model_bytes + self.empty_frames * header
        )


class RecordChannel:
    """One measured end of a record pipe between two processes."""

    def __init__(
        self,
        connection,
        size_model: MessageSizeModel | None = None,
    ) -> None:
        self.connection = connection
        self.codec = WireCodec(size_model)
        self.sent = TransportTally()
        self.received = TransportTally()

    def send_records(
        self,
        kind: str,
        vertices: np.ndarray,
        payloads: np.ndarray,
        tag: int = 0,
    ) -> int:
        """Frame and send one record batch; returns measured bytes."""
        frame = self.codec.encode(kind, vertices, payloads, tag)
        self.connection.send_bytes(frame)
        num_records = int(np.asarray(vertices).size)
        model = self.codec.size_model.batch_bytes(num_records)
        self.sent.add(num_records, len(frame), model)
        return len(frame)

    def recv_records(self) -> tuple[str, int, np.ndarray, np.ndarray]:
        """Receive one frame; verifies measured-vs-model byte equality."""
        frame = self.connection.recv_bytes()
        kind, tag, vertices, payloads = self.codec.decode(frame)
        model = self.codec.size_model.batch_bytes(vertices.size)
        expected = (
            model
            if vertices.size
            else self.codec.size_model.message_header_bytes
        )
        if len(frame) != expected:
            raise ConfigError(
                f"transport frame of {len(frame)} bytes does not "
                f"reconcile with the size model's {expected}"
            )
        self.received.add(int(vertices.size), len(frame), model)
        return kind, tag, vertices, payloads

    def fileno(self) -> int:
        """The pipe's descriptor, so ``multiprocessing.connection.wait``
        (and any selector) can block on the channel directly."""
        return self.connection.fileno()

    def close(self) -> None:
        try:
            self.connection.close()
        except OSError:
            pass
