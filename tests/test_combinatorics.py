"""Composition lattices: the stars-and-bars array against the recursive generator."""

import pytest

from recovery_lab._combinatorics import composition_count, compositions


def reference_compositions(total, parts):
    """The recursive tuple generator the array replaced, kept as its oracle."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in reference_compositions(total - head, parts - 1):
            yield (head,) + tail


# every small lattice, and the weight lattices of the 2-d and 3-d CES benchmarks
CASES = [(total, parts) for total in range(9) for parts in range(1, 6)] + [(16, 2), (24, 3)]


@pytest.mark.parametrize("total, parts", CASES)
def test_rows_equal_the_recursive_generator(total, parts):
    got = compositions(total, parts)
    assert got.dtype.kind == "i" and got.shape == (composition_count(total, parts), parts)
    assert list(map(tuple, got.tolist())) == list(reference_compositions(total, parts))


@pytest.mark.parametrize("parts", [0, -1])
def test_parts_below_one_raise(parts):
    with pytest.raises(ValueError, match="parts must be >= 1"):
        compositions(3, parts)
