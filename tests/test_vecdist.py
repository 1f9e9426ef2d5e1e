"""Vector distances: one query against one vector or against a matrix of candidate rows."""

import numpy as np
import pytest

from wordsim.errors import NumericError
from wordsim.vecdist import VECTOR_METRICS, cosine


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
