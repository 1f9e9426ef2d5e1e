"""Vector distances used on learned word representations.

Each takes a query vector and one vector (a scalar result) or a matrix
of candidate rows (one value per row). Sums use ``np.sum`` along the
last axis, not BLAS, so each row equals the one-pair value bit for bit.
"""

import numpy as np

from .errors import NumericError

__all__ = ["l1", "l2", "cosine", "VECTOR_METRICS", "vector_metric"]


def l1(a, b):
    return np.sum(np.abs(np.subtract(a, b, dtype=float)), axis=-1)


def l2(a, b):
    diff = np.subtract(a, b, dtype=float)
    return np.sqrt(np.sum(diff * diff, axis=-1))


def cosine(a, b):
    """1 - cosine similarity; a zero-norm query or candidate is a numeric abort."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = np.sqrt(np.sum(a * a, axis=-1)), np.sqrt(np.sum(b * b, axis=-1))
    if na == 0.0 or np.any(nb == 0.0):
        raise NumericError("cosine distance undefined for zero vectors")
    return 1.0 - np.sum(a * b, axis=-1) / (na * nb)


VECTOR_METRICS = {"L1": l1, "L2": l2, "cosine": cosine}


def vector_metric(name: str):
    try:
        return VECTOR_METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown vector metric {name!r}; choose from {sorted(VECTOR_METRICS)}"
        ) from None
