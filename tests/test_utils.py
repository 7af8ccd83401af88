import numpy as np

from ecgemotion.utils import distinct_rows


def test_distinct_rows_first_occurrence_order_and_counts():
    x = np.array(
        [
            [3.0, 1.0],
            [0.0, 2.0],
            [3.0, 1.0],
            [-1.0, 5.0],
            [-0.0, 2.0],  # the same row as [0.0, 2.0]
            [3.0, 1.0],
            [-1.0, 5.0],
        ]
    )
    first, copy, counts = distinct_rows(x)
    assert first.tolist() == [0, 1, 3]
    assert copy.tolist() == [0, 1, 0, 2, 1, 0, 2]
    assert counts.tolist() == [3, 2, 2]
    assert np.array_equal(x[first][copy], x)

