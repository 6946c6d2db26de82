"""SPF1 vector files: portable complex vectors with a domain tag.

Layout (all little-endian, independent of the host):

  offset 0   magic  "SPF1"        4 bytes
  offset 4   version u16          must be 1
  offset 6   domain  u8           0 = time, 1 = frequency
  offset 7   reserved u8          must be 0
  offset 8   length  u64          N, a power of two
  offset 16  payload               N records of (re f64, im f64)

read_vector_file parses the header and memory-maps the payload
read-only, so opening a file costs O(1) and a reconstruction reads from
disk only the spectrum entries it uses.
"""

from __future__ import annotations

import mmap
import os
import struct

import numpy as np

from .dft_core import as_vector, log2_length
from .errors import FileFormatError, InvalidLength

MAGIC = b"SPF1"
VERSION = 1
DOMAIN_TIME = 0
DOMAIN_FREQ = 1

_HEADER = struct.Struct("<4sHBBQ")


def write_vector_file(path, values, domain: int) -> None:
    """Write a complex vector; the payload is exactly 16*N bytes.

    The payload is copied once, before the file is opened: values may
    map the file being overwritten (read_vector_file of path), which
    opening truncates.
    """
    if domain not in (DOMAIN_TIME, DOMAIN_FREQ):
        raise FileFormatError(f"domain flag must be 0 or 1, got {domain}")
    payload = as_vector(values)
    data = payload.astype("<c16", copy=False).tobytes()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, domain, 0, len(payload)))
        f.write(data)


def read_vector_file(path) -> tuple[np.ndarray, int]:
    """Open a vector file; returns (values, domain).

    Only the 16-byte header is read.  values is a read-only memory map
    of the payload, so an algorithm that reads k entries touches O(k)
    bytes of the file; keep the file in place, unmodified, while values
    is in use.  Round-trips bit-exactly with write_vector_file.
    Structural problems raise FileFormatError naming the offending
    offset.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FileFormatError(
                f"truncated header: need {_HEADER.size} bytes, found {len(header)}"
            )
        magic, version, domain, reserved, n = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FileFormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if version != VERSION:
            raise FileFormatError(f"unsupported version {version} at offset 4")
        if domain not in (DOMAIN_TIME, DOMAIN_FREQ):
            raise FileFormatError(f"bad domain flag {domain} at offset 6")
        if reserved != 0:
            raise FileFormatError(f"reserved byte at offset 7 must be 0, got {reserved}")
        try:
            log2_length(n)
        except InvalidLength as exc:
            raise FileFormatError(f"bad length {n} at offset 8: {exc}") from exc
        expected = 16 * n
        found = os.fstat(f.fileno()).st_size - _HEADER.size
        if found != expected:
            raise FileFormatError(
                f"payload at offset 16 must be {expected} bytes, found {found}"
            )
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    # the array keeps the mapping, which outlives the file object, alive
    return np.frombuffer(mapped, dtype="<c16", count=n, offset=_HEADER.size), domain
