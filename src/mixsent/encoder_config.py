"""The transformer encoder's shape and training settings.

Kept apart from `mixsent.transformer` so that the CLI can check a whole
`--config` without loading the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, check_fields

# Upper bounds on the encoder's shape keys.  Within them the parameter array
# holds under 2^46 elements and one row's attention scores at most 2^48,
# sizes numpy can at least try to allocate (a failed allocation is a
# MemoryError); a larger key can end in a ValueError from numpy's limit on
# array dimensions.
SHAPE_BOUNDS = {"num_layers": 1 << 10, "num_heads": 1 << 16, "d_model": 1 << 16,
                "d_ff": 1 << 16, "max_len": 1 << 16, "vocab_size": 1 << 24}


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 2
    num_heads: int = 4
    d_model: int = 128
    d_ff: int = 256
    dropout: float = 0.1
    max_len: int = 128
    vocab_size: int = 4000

    def __post_init__(self):
        check_fields(self)
        if min(self.num_layers, self.num_heads, self.d_model, self.d_ff,
               self.max_len, self.vocab_size) < 1:
            raise InputError("all encoder dimensions must be positive")
        if self.max_len < 3:
            raise InputError("max_len must be >= 3 (room for [CLS], a piece, [SEP])")
        for key, bound in SHAPE_BOUNDS.items():
            if getattr(self, key) > bound:
                raise InputError(f"{key} must be <= {bound}")
        if self.d_model % self.num_heads != 0:
            raise InputError(f"d_model {self.d_model} not divisible by "
                             f"num_heads {self.num_heads}")
        if not 0 <= self.dropout < 1:
            raise InputError("dropout must be in [0, 1)")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    epochs: int = 3
    batch_size: int = 8
    weight_decay: float = 0.01
    warmup_steps: int = 500

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise InputError("learning_rate, batch_size must be positive; epochs >= 0")
        if self.warmup_steps < 0 or self.weight_decay < 0:
            raise InputError("warmup_steps and weight_decay must be >= 0")
