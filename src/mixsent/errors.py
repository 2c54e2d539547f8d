"""Exception hierarchy shared across the toolkit, and the type checks that
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
    """Raise InputError unless value is of kind: "int" an int, "float" a finite
    int or float (a bool is neither), "bool", "str", or "str | None"."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok, noun = {
        "int": (number and isinstance(value, int), "an integer"),
        "float": (number and (isinstance(value, int) or math.isfinite(value)),
                  "a finite number"),
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
