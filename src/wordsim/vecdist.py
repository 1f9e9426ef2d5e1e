"""Vector distances used on learned word representations.

Each takes a query vector and one vector (a scalar result) or a matrix
of candidate rows (one value per row). Sums use ``np.sum`` along the
last axis, not BLAS, so each row equals the one-pair value bit for bit.
"""

import numpy as np

from .errors import NumericError

__all__ = ["l1", "l2", "cosine", "nonzero_norms", "check_finite", "VECTOR_METRICS", "vector_metric"]


def l1(a, b):
    return np.sum(np.abs(np.subtract(a, b, dtype=float)), axis=-1)


def l2(a, b):
    diff = np.subtract(a, b, dtype=float)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def nonzero_norms(b):
    """The Euclidean norm of the float vector b, or of each of its rows; NumericError if one is 0."""
    nb = np.sqrt(np.sum(b * b, axis=-1))
    if np.any(nb == 0.0):
        raise NumericError("cosine distance undefined for zero vectors")
    return nb


def cosine(a, b, b_norms=None):
    """1 - cosine similarity; a zero-norm query or candidate is a numeric abort.

    b_norms, if given, is nonzero_norms(b) kept from an earlier call, so
    only the query's norm is computed; the result is the same bit for bit.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na = np.sqrt(np.sum(a * a, axis=-1))
    if na == 0.0:
        raise NumericError("cosine distance undefined for zero vectors")
    nb = nonzero_norms(b) if b_norms is None else b_norms
    return 1.0 - np.sum(a * b, axis=-1) / (na * nb)


def check_finite(v, what: str):
    """NumericError unless every value of v is finite; what names v in the message."""
    if not np.isfinite(v).all():
        raise NumericError(f"non-finite value in {what}")


VECTOR_METRICS = {"L1": l1, "L2": l2, "cosine": cosine}


def vector_metric(name: str):
    try:
        return VECTOR_METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown vector metric {name!r}; choose from {sorted(VECTOR_METRICS)}"
        ) from None
