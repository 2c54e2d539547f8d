"""One layout for every model file, whatever its kind or suffix: a sort_keys
JSON header line, then little-endian numbers whose layout the header implies.
The header's sha256 digests the rest of the header, dumped the same way, a
newline and the payload, so a file damaged or edited anywhere is refused."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError, open_file, parse_json_object

FORMAT_VERSION = 5
KINDS = ("nb", "svm", "transformer")


def _digest(header: dict, payload: bytes) -> str:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return hashlib.sha256(text + b"\n" + payload).hexdigest()


def write(path: str | Path, header: dict, payload: bytes) -> None:
    """The model file at path: header, with format_version (unless header
    sets one) and sha256 added, then payload."""
    header = {"format_version": FORMAT_VERSION, **header}
    line = json.dumps({**header, "sha256": _digest(header, payload)}, sort_keys=True)
    Path(path).write_bytes(line.encode("utf-8") + b"\n" + payload)


class ModelFile(NamedTuple):
    """A model file as read checked it: its header, less sha256, and payload."""
    path: Path
    header: dict
    payload: bytes

    def values(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The payload as count finite values of dtype; what names them."""
        size = count * np.dtype(dtype).itemsize
        if len(self.payload) != size:
            raise InputError(f"{self.path}: the payload has {len(self.payload)} bytes, "
                             f"{what} take {size} (file truncated or padded?)")
        values = np.frombuffer(self.payload, dtype=dtype)
        if not np.isfinite(values).all():
            raise InputError(f"{self.path}: the payload holds a non-finite value "
                             f"among {what} (damaged model file?)")
        return values


def read(path: str | Path) -> ModelFile:
    """The model file at path; InputError unless it is of FORMAT_VERSION and
    a kind in KINDS, and holds the bytes its sha256 digests."""
    with open_file(path, "model file") as fh:
        line, payload = fh.readline(), fh.read()
    header = parse_json_object(line, f"{path} is not a recognized model file")
    version, kind = header.get("format_version"), header.get("kind")
    # Files of versions 1 to 3 named their kind model_type, not kind.
    if version != FORMAT_VERSION and (kind in KINDS or kind is None and version is not None):
        raise InputError(f"{path} has format_version {version!r}, not "
                         f"{FORMAT_VERSION}; train the model again")
    if kind not in KINDS:
        raise InputError(f"{path} is not a recognized model file: kind {kind!r} "
                         f"is not one of {list(KINDS)}")
    if header.pop("sha256", None) != _digest(header, payload):
        raise InputError(f"malformed model file {path}: sha256 does not match its "
                         f"contents (file truncated, damaged or edited?)")
    return ModelFile(Path(path), header, payload)
