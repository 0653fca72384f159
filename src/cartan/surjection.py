"""The surjection operad in chains over GF(2), with table reduction.

An arity-r generator is a tuple s = (s(1), ..., s(k)) of values in
{1, ..., r}; it is a basis element only if it is onto {1, ..., r} and no
two neighbouring values agree, and it counts as zero otherwise.  The
internal degree is the excess k - r.  Only normalized tuples flow
between functions, so the arity of a basis element is always max(s).

`table_reduction` maps Barratt-Eccles basis elements onto surjections.
The element (sigma_0, ..., sigma_n) is read as a table with one row per
permutation.  For every composition a = (a_0, ..., a_n) of n + r with
positive parts, a sequence of n + r values is produced by taking, a_i
times in row i, the first value of sigma_i not yet used -- where the
last value produced by each non-final row stays available to later rows.
The image is the sum of the sequences with no two equal neighbours.
`_read_table` lists only those: it chooses the row lengths one row at a
time and never starts a row whose first value repeats the last value of
the row before, instead of reading every composition and filtering.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .f2 import F2Sum
from .simplicial import is_degenerate


def is_basis_surjection(seq: tuple[int, ...], r: int) -> bool:
    """Onto {1..r} with no equal neighbours."""
    return not is_degenerate(seq) and len(set(seq)) == r


def surj_boundary(c: F2Sum) -> F2Sum:
    """Delete one value at a time, dropping non-basis results."""

    def deletions():
        for s in c:
            r = max(s)
            for k in range(len(s)):
                t = s[:k] + s[k + 1:]
                if is_basis_surjection(t, r):
                    yield t
    return F2Sum(deletions())


def surj_act(sigma: tuple[int, ...], s: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel the values of a basis element by a permutation of its arity."""
    if len(sigma) != max(s):
        raise ValueError("arity mismatch between permutation and surjection")
    return tuple([sigma[v - 1] for v in s])


def surj_compose(s2: tuple[int, ...], p: int, s1: tuple[int, ...]) -> F2Sum:
    """Substitute s1 into the p-th input of s2.

    If p occurs k times in s2, sum over the nondecreasing index tuples
    1 = j_0 <= j_1 <= ... <= j_k = len(s1): the t-th occurrence of p is
    replaced by the stretch s1(j_{t-1}) .. s1(j_t).  Values coming from
    s1 are shifted up by p - 1 and values of s2 above p by max(s1) - 1,
    so the result is an arity max(s1) + max(s2) - 1 tuple; each flattened
    tuple is normalized.  Degrees add.
    """
    r2, r1, n1 = max(s2), max(s1), len(s1)
    if not 1 <= p <= r2:
        raise ValueError(f"input position {p} outside 1..{r2}")
    k = s2.count(p)

    def substitutions():
        for mids in combinations_with_replacement(range(1, n1 + 1), k - 1):
            js = (1,) + mids + (n1,)
            out: list[int] = []
            t = 0
            for v in s2:
                if v < p:
                    out.append(v)
                elif v > p:
                    out.append(v + r1 - 1)
                else:
                    lo, hi = js[t], js[t + 1]
                    t += 1
                    out.extend(w + p - 1 for w in s1[lo - 1:hi])
            seq = tuple(out)
            if is_basis_surjection(seq, r1 + r2 - 1):
                yield seq
    return F2Sum(substitutions())


def _read_table(e: tuple):
    """Every reading of the table `e` with no two equal neighbours.

    Row i reads its free values -- the entries of e[i] not in use, in
    row order -- and stops after any of them; the final row reads them
    all.  Reading k values puts the first k - 1 in use and leaves the
    k-th, the row's last value, free for later rows.  A row's values are
    distinct, so equal neighbours can only meet across rows: when a
    row's first free value equals the last value of the row before, it
    does so for every length of that row.  So before row i's k-th
    choice is pushed, the first free value of row i + 1 under it is
    found, and the choice is dropped when the two are equal; no reading
    with equal neighbours is ever pushed.  That first free value only
    moves right as values go into use, so one pass over row i + 1 finds
    it for every k.  Every complete reading is onto: n + r values are
    read and the n non-final rows release one each, so all r values end
    in use; while a row is read at most r - 1 are, so row i + 1 always
    has a free value.  The search keeps its own stack, so a table of
    many rows does not recurse.
    """
    n = len(e) - 1
    word: list[int] = []
    # (row, values in use as a bit mask, where the previous row starts in the word,
    #  the previous row's free values, how many of them it read)
    stack = [(0, 0, 0, (), 0)]
    while stack:
        i, used, start, prev, k = stack.pop()
        del word[start:]
        word += prev[:k]
        free = [v for v in e[i] if not used >> v & 1]
        if i == n:
            yield tuple(word + free)
            continue
        start = len(word)
        below = iter(e[i + 1])
        first = next(below)
        for k, v in enumerate(free, 1):
            while used >> first & 1:
                first = next(below)
            if first != v:
                stack.append((i + 1, used, start, free, k))
            used |= 1 << v


def table_reduction(c: F2Sum) -> F2Sum:
    """Degree-preserving operad map from Barratt-Eccles elements to surjections."""
    return F2Sum(word for e in c for word in _read_table(e))
