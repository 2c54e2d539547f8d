"""Exception hierarchy shared across the toolkit, the type checks that turn
a malformed config value into an InputError, and the one reader of every
file the toolkit loads and the one writer of every file it writes, which
turn an unreadable or malformed file, or a path that cannot be written,
into an InputError as well.

InputError covers bad files, bad flags, and bad data (CLI exit code 2);
TrainingError covers runtime failures such as numeric divergence (exit 1).
"""

import contextlib
import dataclasses
import json
import math


class MixsentError(Exception):
    """Base class for all toolkit errors."""


class InputError(MixsentError):
    """Malformed or missing input: files, labels, flags, model references."""


class TrainingError(MixsentError):
    """Training-time failure, e.g. non-finite loss or weights."""


def _finite(value) -> bool:
    """float(value) exists and is finite."""
    try:
        return math.isfinite(value)
    except OverflowError:                 # an int too large for a float
        return False


def check_value(what: str, value, kind: str) -> None:
    """Raise InputError unless value is of kind: "int" an int, "float" an int
    or float whose float is finite (a bool is neither), "bool", "str", or
    "str | None"."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok, noun = {
        "int": (number and isinstance(value, int), "an integer"),
        "float": (number and _finite(value), "a finite number"),
        "bool": (isinstance(value, bool), "true or false"),
        "str": (isinstance(value, str), "a string"),
        "str | None": (value is None or isinstance(value, str), "a string or null"),
    }[kind]
    if not ok:
        raise InputError(f"{what} must be {noun}, got {value!r}")


def check_fields(cfg) -> None:
    """check_value on every int, float, bool or str field of a dataclass."""
    for f in dataclasses.fields(cfg):
        if f.type in ("int", "float", "bool", "str"):
            check_value(f"{type(cfg).__name__}.{f.name}", getattr(cfg, f.name), f.type)


@contextlib.contextmanager
def open_file(path, what: str):
    """The file at path, open for reading bytes.  A missing or unreadable
    path (a directory, say) or a path holding a NUL byte raises InputError
    naming the file as what."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except OSError as e:
        raise InputError(f"cannot read {what} {path}: {e.strerror or e}") from None
    except ValueError as e:               # open() refuses a path holding a NUL
        if "\0" not in str(path):
            raise
        raise InputError(f"cannot read {what} {str(path)!r}: {e}") from None


def decode(data: bytes, what: str) -> str:
    """data decoded strictly as UTF-8, less one leading byte-order mark;
    other bytes raise InputError naming their source as what, at their
    offset in data."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {what}: not UTF-8 text "
                         f"({e.reason} at byte {e.start})") from None


def read_file(path, what: str) -> str:
    """The UTF-8 text of the file at path, line ends as written; open_file
    and decode say which failures raise InputError."""
    with open_file(path, what) as fh:
        data = fh.read()
    return decode(data, f"{what} {path}")


def write_file(path, data: str | bytes) -> None:
    """data, a str as UTF-8, as the whole of the file at path.  A path that
    cannot be written (a directory, say) raises InputError naming it."""
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from None


def parse_json_object(text: str | bytes, what: str) -> dict:
    """text, or UTF-8 bytes, parsed as one JSON object; anything else raises
    InputError whose message starts with what."""
    try:
        value = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except RecursionError:
        raise InputError(f"{what}: JSON nested too deeply") from None
    except ValueError as e:               # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"{what}: not valid JSON ({e})") from None
    if not isinstance(value, dict):
        raise InputError(f"{what}: not a JSON object")
    return value
