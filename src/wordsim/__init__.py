"""String metrics and learned word-distance models for lexical normalization."""

from . import contextenc, denoise, editfam, evalharness, gramfam, lexicon, neural, vecdist
from .errors import (
    AmbiguityError,
    BindingError,
    ConfigError,
    NumericError,
    ParseError,
    UnknownWordError,
    WordsimError,
)

__version__ = "0.1.0"
