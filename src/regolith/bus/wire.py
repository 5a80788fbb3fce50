"""Self-describing tagged binary encoding and length-prefixed framing.

The bridge between the planner and simulator processes exchanges frames of
``u32le length + payload``.  The payload is a tagged encoding of plain
Python values (None, bool, int, float, str, bytes, list, dict with string
keys).  Doubles are encoded as raw IEEE-754 bytes, so values survive the
wire bit-exactly.

`encode` tests the exact type of each value first (float, str, dict, int,
list, tuple) and packs a tag with its fixed-size field in one prebound
`struct.Struct` call.  Every other type (None, bool, bytes, and subclasses
such as an `IntEnum` or `numpy.float64`) falls through to an `isinstance`
chain in which bool comes before int.  Either path writes the same bytes for
a value.  `decode` dispatches on the integer tag byte.
"""

from __future__ import annotations

import struct

MAX_FRAME = 16 * 1024 * 1024


class WireError(Exception):
    pass


# the tag bytes: None, True, False, int, float (double), str, bytes, list, dict
_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"

# a tag byte plus its fixed-size field, in one pack
_pack_tagged_float = struct.Struct("<Bd").pack
_pack_tagged_int = struct.Struct("<Bq").pack
_pack_tagged_len = struct.Struct("<BI").pack
_U32 = struct.Struct("<I")
_unpack_float = struct.Struct("<d").unpack_from
_unpack_int = struct.Struct("<q").unpack_from
_unpack_len = _U32.unpack_from


def encode(obj) -> bytes:
    out = bytearray()
    _encode_into(obj, out)
    return bytes(out)


def _encode_into(obj, out: bytearray) -> None:
    t = type(obj)
    if t is float:
        out += _pack_tagged_float(_D, obj)
    elif t is str:
        raw = obj.encode("utf-8")
        out += _pack_tagged_len(_S, len(raw))
        out += raw
    elif t is dict:
        out += _pack_tagged_len(_M, len(obj))
        for key, value in obj.items():
            if type(key) is str:
                raw = key.encode("utf-8")
                out += _pack_tagged_len(_S, len(raw))
                out += raw
            elif isinstance(key, str):
                _encode_into(key, out)
            else:
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            if type(value) is float:
                out += _pack_tagged_float(_D, value)
            else:
                _encode_into(value, out)
    elif t is int:
        out += _pack_tagged_int(_I, obj)
    elif t is list or t is tuple:
        out += _pack_tagged_len(_L, len(obj))
        for item in obj:
            _encode_into(item, out)
    else:
        _encode_other(obj, out)


def _encode_other(obj, out: bytearray) -> None:
    """Every value whose exact type `_encode_into` does not dispatch on."""
    if obj is None:
        out.append(_N)
    elif obj is True:
        out.append(_T)
    elif obj is False:
        out.append(_F)
    elif isinstance(obj, int):
        out += _pack_tagged_int(_I, obj)
    elif isinstance(obj, float):
        out += _pack_tagged_float(_D, obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _pack_tagged_len(_S, len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray)):
        out += _pack_tagged_len(_B, len(obj))
        out += obj
    elif isinstance(obj, (list, tuple)):
        out += _pack_tagged_len(_L, len(obj))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        out += _pack_tagged_len(_M, len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(key, out)
            _encode_into(value, out)
    else:
        raise WireError(f"unencodable type {type(obj).__name__}")


def decode(data: bytes):
    obj, pos = _decode_at(data, 0)
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after value")
    return obj


def _decode_str(data: bytes, pos: int):
    """The str whose u32 length is at pos, and the position after it."""
    if pos + 4 > len(data):
        raise WireError("truncated length")
    end = pos + 4 + _unpack_len(data, pos)[0]
    if end > len(data):
        raise WireError("truncated payload")
    try:
        return data[pos + 4:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid utf-8: {exc}")


def _decode_at(data: bytes, pos: int):
    if pos >= len(data):
        raise WireError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _D:
        if pos + 8 > len(data):
            raise WireError("truncated float")
        return _unpack_float(data, pos)[0], pos + 8
    if tag == _S:
        return _decode_str(data, pos)
    if tag == _M:
        if pos + 4 > len(data):
            raise WireError("truncated length")
        n = _unpack_len(data, pos)[0]
        pos += 4
        result = {}
        for _ in range(n):
            if pos < len(data) and data[pos] == _S:
                key, pos = _decode_str(data, pos + 1)
            else:
                key, pos = _decode_at(data, pos)
                if not isinstance(key, str):
                    raise WireError("dict key is not a string")
            if pos + 9 <= len(data) and data[pos] == _D:
                result[key] = _unpack_float(data, pos + 1)[0]
                pos += 9
            else:
                result[key], pos = _decode_at(data, pos)
        return result, pos
    if tag == _I:
        if pos + 8 > len(data):
            raise WireError("truncated int")
        return _unpack_int(data, pos)[0], pos + 8
    if tag == _L:
        if pos + 4 > len(data):
            raise WireError("truncated length")
        n = _unpack_len(data, pos)[0]
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return items, pos
    if tag == _N:
        return None, pos
    if tag == _T:
        return True, pos
    if tag == _F:
        return False, pos
    if tag == _B:
        if pos + 4 > len(data):
            raise WireError("truncated length")
        end = pos + 4 + _unpack_len(data, pos)[0]
        if end > len(data):
            raise WireError("truncated payload")
        return bytes(data[pos + 4:end]), end
    raise WireError(f"unknown tag {bytes([tag])!r}")


def frame(obj) -> bytes:
    out = bytearray(4)
    _encode_into(obj, out)
    n = len(out) - 4
    if n > MAX_FRAME:
        raise WireError("frame too large")
    _U32.pack_into(out, 0, n)
    return bytes(out)


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
        while True:
            if len(self._buf) < 4:
                break
            n = _unpack_len(self._buf, 0)[0]
            if n > MAX_FRAME:
                self.errors.append(f"oversized frame ({n} bytes) — stream reset")
                self._buf.clear()
                break
            if len(self._buf) < 4 + n:
                break
            payload = bytes(self._buf[4:4 + n])
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
