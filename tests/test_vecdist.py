"""Vector distances: one query against one vector or against a matrix of candidate rows."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wordsim.errors import NumericError
from wordsim.vecdist import VECTOR_METRICS, check_finite, cosine, nonzero_norms

U = 2.0 ** -53  # the unit roundoff of float64


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the error factor of k roundings."""
    return k * U / (1 - k * U)


def layouts(block):
    """The rows of block, equal in value, in each memory layout a caller may pass."""
    return {
        "C": np.ascontiguousarray(block),
        "F": np.asfortranarray(block),
        "column-strided": np.repeat(block, 2, axis=1)[:, ::2],
        "row-strided": np.repeat(block, 2, axis=0)[::2],
    }


@pytest.mark.parametrize("name", sorted(VECTOR_METRICS))
@pytest.mark.parametrize("width", [1, 8, 11, 130, 257])
def test_row_form_equals_one_pair_form(name, width):
    d = VECTOR_METRICS[name]
    rng = np.random.default_rng(width)
    query = rng.normal(size=width)
    for n in (1, 2, 50, 400):
        blocks = layouts(rng.normal(size=(n, width)))
        for q in (query, np.repeat(query, 3)[::3]):
            for layout, rows in blocks.items():
                batch = d(q, rows)
                one_by_one = np.array([d(q, row) for row in rows])
                assert batch.shape == (n,)
                assert isinstance(d(q, rows[0]), float)
                # equal as float64 bits: the row form may not reorder a sum
                assert batch.tobytes() == one_by_one.tobytes(), (n, layout)
                # nor may the layout: a row's value depends on that row alone
                assert batch.tobytes() == d(query, blocks["C"]).tobytes(), (n, layout)


@pytest.mark.parametrize("name", sorted(VECTOR_METRICS))
@pytest.mark.parametrize("width", [1, 11, 257])
def test_identical_rows_get_identical_distances(name, width):
    d = VECTOR_METRICS[name]
    rng = np.random.default_rng(width + 1)
    query, row = rng.normal(size=width), rng.normal(size=width)
    rows = rng.normal(size=(400, width))
    at = [0, 1, 7, 200, 399]
    rows[at] = row
    one = np.float64(d(query, row)).tobytes()
    for layout, block in layouts(rows).items():
        got = d(query, block)
        assert {got[i].tobytes() for i in at} == {one}, layout
        assert {nonzero_norms(block)[i].tobytes() for i in at} == {np.float64(nonzero_norms(row)).tobytes()}


# the expressions vecdist computed with np.sum before it moved to einsum: the bound's reference
def former_norms(b):
    return np.sqrt(np.sum(b * b, axis=-1))


def former_cosine(a, b):
    return 1.0 - np.sum(a * b, axis=-1) / (former_norms(a) * former_norms(b))


# no product, square or sum leaves the normal range, as the bound assumes
magnitudes = st.one_of(st.just(0.0), st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 257),
    n=st.integers(1, 6),
    scale=st.sampled_from([None, 1.0, -1.0, 3e-5, -7e4]),
)
def test_cosine_and_norms_stay_within_the_bound_of_np_sum(data, width, n, scale):
    """A norm within a relative 2 gamma_{d+2}, a distance within 2 gamma_{2d+5} + 4u of np.sum's."""
    rows = data.draw(hnp.arrays(np.float64, (n, width), elements=magnitudes))
    query = data.draw(hnp.arrays(np.float64, width, elements=magnitudes))
    if scale is not None:
        rows[0] = scale * query  # parallel or opposite: a distance near 0 or 2
    assume(former_norms(query) > 0 and (former_norms(rows) > 0).all())
    old_norms = former_norms(rows)
    assert (np.abs(nonzero_norms(rows) - old_norms) <= 2 * gamma(width + 2) * old_norms).all()
    got, old = cosine(query, rows), former_cosine(query, rows)
    assert (np.abs(got - old) <= 2 * gamma(2 * width + 5) + 4 * U).all()
    assert got[-1] == cosine(query, rows[-1])


@pytest.mark.parametrize("shapes", [((3,), (2, 2, 3)), ((1, 1, 3), (2, 3)), ((), ())])
def test_cosine_refuses_an_operand_that_is_not_1d_or_2d(shapes):
    with pytest.raises(ValueError, match="expected a vector or a matrix of rows"):
        cosine(np.ones(shapes[0]), np.ones(shapes[1]))


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
