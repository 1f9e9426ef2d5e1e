"""Vector distances used on learned word representations.

Each takes a query vector and one vector (a scalar result) or a matrix
of candidate rows (one value per row), and a row of the matrix form
equals the one-pair value bit for bit, whatever the block's memory
layout. ``l1`` and ``l2`` sum the C-ordered differences with ``np.sum``.
``cosine`` and ``nonzero_norms`` take their sums of products with
``np.einsum``, one loop per row over contiguous operands (``_dots``),
never BLAS, so identical rows get identical distances wherever they sit.

einsum adds in another order than the ``np.sum`` expressions these two
used before, so their last bits may differ from those values, by a
proven bound. Let u = 2**-53 and gamma_k = k*u / (1 - k*u). For d-wide
vectors whose products, squares and sums neither overflow nor leave the
normal range, any order of summation gives a dot product within
gamma_d * sum|a_j b_j| of the exact one (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., section 3.1), and by Cauchy-Schwarz a
cosine similarity within gamma_(2d+4) of the exact one. So a cosine
distance is within 2*gamma_(2d+5) + 4u, about (4d + 14) * 2**-53, of
the former value (the final 1 - s rounds once more), and a norm within
a relative 2*gamma_(d+2).
"""

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["l1", "l2", "cosine", "norm", "nonzero_norms", "check_finite", "VECTOR_METRICS",
           "check_vec_metric"]

# subscripts by the operands' ranks; explicit, so a 3-D operand is refused, never broadcast
_DOT_SUBSCRIPTS = {(1, 1): "j,j->", (2, 1): "ij,j->i", (2, 2): "ij,ij->i"}


def _dots(u, v):
    """The dot product of each row of the float array u with v (a vector or rows of u's shape).

    The operands are made contiguous first: on a strided or F-ordered
    block einsum may add in another order, and a row's value must depend
    on that row alone. ValueError for an operand that is not 1-D or 2-D.
    """
    subscripts = _DOT_SUBSCRIPTS.get((u.ndim, v.ndim))
    if subscripts is None:
        raise ValueError(f"expected a vector or a matrix of rows, got shapes {u.shape} and {v.shape}")
    return np.einsum(subscripts, np.ascontiguousarray(u), np.ascontiguousarray(v))


# the differences are laid out in C order: np.sum adds the rows of an F-ordered block in another order
def l1(a, b):
    return np.sum(np.abs(np.subtract(a, b, dtype=float, order="C")), axis=-1)


def l2(a, b):
    diff = np.subtract(a, b, dtype=float, order="C")
    return np.sqrt(np.sum(diff * diff, axis=-1))


def norm(a):
    """The Euclidean norm of the float vector a, or of each of its rows, as cosine computes it."""
    return np.sqrt(_dots(a, a))


def nonzero_norms(b):
    """The Euclidean norm of the float vector b, or of each of its rows; NumericError if one is 0."""
    nb = norm(b)
    if np.any(nb == 0.0):
        raise NumericError("cosine distance undefined for zero vectors")
    return nb


def cosine(a, b, b_norms=None, a_norm=None):
    """1 - cosine similarity; a zero-norm query or candidate is a numeric abort.

    b_norms, if given, is nonzero_norms(b) and a_norm norm(a) of the
    float vector a, each kept from an earlier call, so neither is
    computed again; the result is the same bit for bit. A zero a_norm
    still raises.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na = norm(a) if a_norm is None else a_norm
    if na == 0.0:
        raise NumericError("cosine distance undefined for zero vectors")
    nb = nonzero_norms(b) if b_norms is None else b_norms
    s = _dots(b, a)
    s /= na * nb  # in place on a row per candidate; a one-pair value is a scalar, divided anew
    return np.subtract(1.0, s, out=s if s.ndim else None)


def check_finite(v, what: str):
    """NumericError unless every value of v is finite; what names v in the message."""
    if not np.isfinite(v).all():
        raise NumericError(f"non-finite value in {what}")


VECTOR_METRICS = {"L1": l1, "L2": l2, "cosine": cosine}


def check_vec_metric(metric: str, vec_metric):
    """ConfigError naming the choices unless vec_metric is a key of VECTOR_METRICS; metric reads it."""
    if not isinstance(vec_metric, str) or vec_metric not in VECTOR_METRICS:
        raise ConfigError(
            f"metric {metric!r} has unknown vec_metric {vec_metric!r}; choose from {sorted(VECTOR_METRICS)}"
        )
