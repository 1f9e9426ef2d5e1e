"""Vector distances: one query against one vector or against a matrix of candidate rows."""

import numpy as np
import pytest

from wordsim.errors import NumericError
from wordsim.vecdist import VECTOR_METRICS, check_finite, cosine, nonzero_norms


@pytest.mark.parametrize("name", sorted(VECTOR_METRICS))
@pytest.mark.parametrize("width", [1, 8, 11, 130])
def test_row_form_equals_one_pair_form(name, width):
    d = VECTOR_METRICS[name]
    rng = np.random.default_rng(width)
    query, rows = rng.normal(size=width), rng.normal(size=(50, width))
    batch = d(query, rows)
    one_by_one = np.array([d(query, row) for row in rows])
    assert batch.shape == (50,)
    assert isinstance(d(query, rows[0]), float)
    # equal as float64 bits: the row form may not reorder a sum
    assert batch.tobytes() == one_by_one.tobytes()


def test_cosine_zero_query():
    with pytest.raises(NumericError):
        cosine(np.zeros(3), np.ones((4, 3)))
    with pytest.raises(NumericError):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_zero_candidate_row():
    rows = np.ones((4, 3))
    rows[2] = 0.0
    with pytest.raises(NumericError):
        cosine(np.ones(3), rows)
    with pytest.raises(NumericError):
        cosine(np.ones(3), rows[2])


@pytest.mark.parametrize("width", [1, 8, 11, 130])
def test_cosine_with_kept_norms_is_bit_identical(width):
    rng = np.random.default_rng(width)
    query, rows = rng.normal(size=width), rng.normal(size=(50, width))
    norms = nonzero_norms(rows)
    assert cosine(query, rows, norms).tobytes() == cosine(query, rows).tobytes()
    assert cosine(query, rows[3], norms[3]) == cosine(query, rows[3])


def test_nonzero_norms_rejects_a_zero_row():
    rows = np.ones((4, 3))
    rows[1] = 0.0
    with pytest.raises(NumericError, match="zero vectors"):
        nonzero_norms(rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite(bad):
    rows = np.ones((4, 3))
    check_finite(rows, "rows")
    rows[2, 1] = bad
    with pytest.raises(NumericError, match="non-finite value in rows"):
        check_finite(rows, "rows")
