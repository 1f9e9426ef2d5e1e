"""Shared exception types.

The CLI maps these onto exit codes: data/parse/binding problems -> 3,
numeric aborts -> 4. Everything else is a plain ValueError/IndexError.
"""


class WordsimError(Exception):
    pass


class ParseError(WordsimError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class AmbiguityError(ParseError):
    """A non-standard word mapped to two different standard words."""


class ConfigError(WordsimError):
    """Invalid model or training configuration."""


class UnknownWordError(WordsimError):
    """A word looked up in a lexicon that does not contain it."""


class BindingError(WordsimError):
    """Model used with a lexicon it was not trained against."""


class NumericError(WordsimError):
    """NaN/Inf encountered where finite values are required."""
