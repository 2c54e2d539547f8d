"""mixsent: three-class sentiment classification for code-mixed
(Hinglish-style) social-media text.

Library layout mirrors the pipeline: corpus -> preprocess -> tokenizer /
features -> baselines / transformer -> metrics, with a CLI front end.
"""

import os

# BLAS splits a matrix product across threads in a way that can change its
# rounding, so a trained model's bytes would depend on the thread count.
# One thread makes reruns byte-identical on a given BLAS build and CPU
# kernel.  This only takes effect if numpy is not yet imported.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

from .corpus import Corpus, LabeledTweet, SentimentLabel, SplitSpec  # noqa: F401
from .errors import InputError, MixsentError, TrainingError  # noqa: F401
