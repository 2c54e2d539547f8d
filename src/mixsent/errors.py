"""Exception hierarchy shared across the toolkit, and the number checks that
turn a malformed config value into an InputError.

InputError covers bad files, bad flags, and bad data (CLI exit code 2);
TrainingError covers runtime failures such as numeric divergence (exit 1).
"""

import dataclasses
import math


class MixsentError(Exception):
    """Base class for all toolkit errors."""


class InputError(MixsentError):
    """Malformed or missing input: files, labels, flags, model references."""


class TrainingError(MixsentError):
    """Training-time failure, e.g. non-finite loss or weights."""


def check_value(what: str, value, kind: str) -> None:
    """Raise InputError unless value is an int (kind "int") or a finite int
    or float (kind "float"); a bool is neither."""
    finite = isinstance(value, float) and math.isfinite(value)
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       (kind == "float" and finite)):
        noun = "an integer" if kind == "int" else "a finite number"
        raise InputError(f"{what} must be {noun}, got {value!r}")


def check_fields(cfg) -> None:
    """check_value on every int or float field of a dataclass instance."""
    for f in dataclasses.fields(cfg):
        if f.type in ("int", "float"):
            check_value(f"{type(cfg).__name__}.{f.name}", getattr(cfg, f.name), f.type)
