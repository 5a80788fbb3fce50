"""numpy's pairwise summation, in plain floats.

`np.add.reduce` over contiguous float64 data starts from 0.0 and adds the
pairwise sum of the elements: a run shorter than 8 is added one by one; a
run of up to 128 is added in 8 interleaved lanes, which are then combined
as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the leftover
tail is added one by one; a longer run is split at half its length, rounded
down to a multiple of 8, and the two halves are summed alike and added.
These functions do the same additions in the same order.

Zeros can be left out of the sum: a zero leaf only ever decides the sign of
a zero partial sum, and the final 0.0 + s makes any zero total +0.0.
"""

from __future__ import annotations

from bisect import bisect_left


def pairwise_sum(values) -> float:
    """`np.add.reduce(np.array(values))` of a sequence of floats, bit for
    bit."""
    values = list(values)
    return sparse_pairwise_sum(range(len(values)), values, len(values))


def sparse_pairwise_sum(index, value, n: int) -> float:
    """The pairwise sum of a length-n array that holds value[k] at index[k]
    (increasing) and zero elsewhere."""
    if len(value) == 2:     # every grouping adds two terms alike
        return 0.0 + (value[0] + value[1])
    if len(value) < 2:
        return 0.0 + value[0] if value else 0.0
    return 0.0 + _block(index, value, 0, len(index), 0, n)


def _block(index, value, k0: int, k1: int, lo: int, n: int) -> float:
    """The pairwise sum of positions lo..lo+n-1, whose entries are
    index[k0:k1]."""
    if k0 == k1:
        return 0.0
    if n < 8:
        res = 0.0
        for k in range(k0, k1):
            res += value[k]
        return res
    if n <= 128:
        r = [0.0] * 8
        body = lo + n - n % 8
        k = k0
        while k < k1 and index[k] < body:
            r[(index[k] - lo) & 7] += value[k]
            k += 1
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for k in range(k, k1):
            res += value[k]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    mid = bisect_left(index, lo + n2, k0, k1)
    return (_block(index, value, k0, mid, lo, n2)
            + _block(index, value, mid, k1, lo + n2, n - n2))
