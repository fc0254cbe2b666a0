import hashlib
import math

import pytest

from deporder.sjt import MAX_N, sjt_enumerate


def test_single_element():
    assert list(sjt_enumerate(1)) == [(1,)]


def test_three_elements_order():
    assert list(sjt_enumerate(3)) == [(1, 2, 3), (1, 3, 2), (3, 1, 2),
                                      (3, 2, 1), (2, 3, 1), (2, 1, 3)]


def test_seven_element_order_pinned():
    # adjacency alone allows other orders; sampling accumulates in this one
    perms = repr(list(sjt_enumerate(7))).encode()
    assert hashlib.sha256(perms).hexdigest() == (
        "a9b69a8546a0b336b152e1bcb91ab9f5905f148b35f707b6ab910fe13a90dd60")


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_complete_distinct_adjacent(n):
    perms = list(sjt_enumerate(n))
    assert perms[0] == tuple(range(1, n + 1))
    for perm in perms:
        assert sorted(perm) == list(range(1, n + 1))
    for previous, perm in zip(perms, perms[1:]):
        # the single adjacent transposition between consecutive orders
        i, j = [k for k in range(n) if previous[k] != perm[k]]
        assert j == i + 1 and (perm[i], perm[j]) == (previous[j], previous[i])
    assert len(set(perms)) == math.factorial(n)


@pytest.mark.parametrize("n", [0, 8, -3])
def test_out_of_range_rejected(n):
    with pytest.raises(ValueError):
        list(sjt_enumerate(n))
