"""Length-prefixed JSON framing for the TCP bridge.

The bridge between the planner and simulator processes exchanges frames of
``u32le length + payload``; the payload is the UTF-8 JSON text of one value
(objects with str keys, arrays, strings, numbers, true, false, null), so a
planner in another process or language can speak it with any JSON library.
Floats are written by `repr`, which reads back to the same double, -0.0
included; infinities and NaN use Python's ``Infinity`` and ``NaN`` literals.
Tuples arrive as lists, non-str dict keys as str, and int and float
subclasses (an `IntEnum`, ``numpy.float64``) as plain int and float.
"""

from __future__ import annotations

import json

MAX_FRAME = 16 * 1024 * 1024


class WireError(Exception):
    pass


_encode = json.JSONEncoder(separators=(",", ":")).encode
_decode = json.JSONDecoder().decode


def frame(obj) -> bytes:
    """One frame holding obj; raises WireError for a value JSON cannot
    encode (bytes, a set) and for a payload over MAX_FRAME."""
    try:
        payload = _encode(obj).encode()
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable value: {exc}") from None
    if len(payload) > MAX_FRAME:
        raise WireError("frame too large")
    return len(payload).to_bytes(4, "little") + payload


def decode(payload: bytes):
    """The value a frame's payload holds."""
    try:
        return _decode(payload.decode())
    except RecursionError:
        # one recursion a nesting level: a frame of deeply nested arrays
        raise WireError("frame nested too deeply") from None
    except ValueError as exc:
        # bad UTF-8, bad JSON, or an int too long to convert
        raise WireError(str(exc)) from None


class FrameDecoder:
    """Incremental frame parser.

    Feed raw bytes as they arrive; decoded objects come back in order.
    A frame whose payload fails to decode is dropped and recorded in
    ``errors``; later frames are unaffected.
    """

    def __init__(self):
        self._buf = bytearray()
        self.errors: list[str] = []

    def feed(self, data: bytes) -> list:
        self._buf += data
        out = []
        while len(self._buf) >= 4:
            n = int.from_bytes(self._buf[:4], "little")
            if n > MAX_FRAME:
                self.errors.append(f"oversized frame ({n} bytes) — stream reset")
                self._buf.clear()
                break
            if len(self._buf) < 4 + n:
                break
            payload = self._buf[4:4 + n]
            del self._buf[:4 + n]
            try:
                out.append(decode(payload))
            except WireError as exc:
                self.errors.append(f"dropped malformed frame: {exc}")
        return out

    def close(self) -> None:
        if self._buf:
            self.errors.append(
                f"stream ended with {len(self._buf)} bytes of a partial frame")
            self._buf.clear()
