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
Each row's step depends only on the row, the next row and the values in
use; `_ROW_STEPS` holds every step of the tables of arity at most
TR_MEMO_ARITY.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, permutations, repeat

from .f2 import F2Sum
from .simplicial import is_degenerate

# largest arity whose row steps are kept in _ROW_STEPS: the widest table
# that a verify suite (TR_ARITIES) or a benchmark workload reduces
TR_MEMO_ARITY = 3


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


def _free(row: tuple, used: int) -> list[int]:
    """The entries of `row` not in `used` (a bit mask), in row order."""
    return [v for v in row if not used >> v & 1]


def _row_step(row: tuple, below: tuple, used: int, final: bool) -> tuple:
    """What row `row` pushes under the values `used` (a bit mask): two aligned tuples.

    The row reads its free values, the entries of `row` not in use, in
    row order; `below` is the next row.  For every length k of the row
    whose reading the next row does not repeat, the first tuple holds
    the values in use after it and the second the k values read:
    reading k values puts the first k - 1 in use and leaves the k-th,
    the row's last value, free for later rows.  When `below` is the
    final row (`final`), which reads all its free values, each reading
    is finished here: the first tuple is empty and the second holds the
    k values read followed by the final row's free values.
    """
    free = _free(row, used)
    ins, reads = [], []
    below_values = iter(below)
    first = next(below_values)  # the next row's first free value
    for k, v in enumerate(free, 1):
        while used >> first & 1:
            first = next(below_values)
        if first != v:
            if final:
                reads.append(tuple(free[:k] + _free(below, used)))
            else:
                ins.append(used)
                reads.append(tuple(free[:k]))
        used |= 1 << v
    return tuple(ins), tuple(reads)


def _all_row_steps() -> dict:
    """The step of every key a permutation table of arity at most TR_MEMO_ARITY meets.

    A key of arity r is a row and the row below, two permutations of
    1..r, at most r - 1 values in use and the final flag: 2 (r!)^2
    (2^r - 1) keys.
    """
    steps = {}
    for r in range(1, TR_MEMO_ARITY + 1):
        perms = list(permutations(range(1, r + 1)))
        masks = [m << 1 for m in range(2 ** r) if bin(m).count("1") < r]
        steps.update(((row, below, used, final), _row_step(row, below, used, final))
                     for row in perms for below in perms for used in masks
                     for final in (False, True))
    return steps


# every step of arity <= TR_MEMO_ARITY, filled whole by the first table reduction
_ROW_STEPS: dict[tuple, tuple] = {}


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

    A row's step -- the choices that survive the prune -- depends only
    on the row, the row below, the values in use and whether the row
    below is the last, so the stack pushes a step's stored choices with
    one C-level `zip`, and the row before the last finishes its readings
    from its step.  `_ROW_STEPS` holds every step of the permutation
    tables of arity at most TR_MEMO_ARITY: 2 (r!)^2 (2^r - 1) of arity r
    (two rows, at most r - 1 values in use, the flag), 530 steps and
    109 KiB by `sys.getsizeof` over every object it holds, filled whole
    by the first `table_reduction` of the process (1.4 ms).  Any other
    step, of a wider table say, is computed once per call.  Labels are
    compared by ==, so a table of floats equal to permutations reads as
    those permutations.  In-process `operad-identities` rounds ran 8.9%
    to 12.7% slower with the untabled reader (best of 8-10 alternating
    rounds, seeds 1-4), and 28% to 33% slower with every step kept for
    one call only (best of 8, seeds 1-3).
    """
    n = len(e) - 1
    if n == 0:
        yield tuple(_free(e[0], 0))
        return
    steps = {}  # every other step this table meets
    word: list[int] = []
    # (row, values in use as a bit mask, where the row starts in the word,
    #  the values the previous row read)
    stack = [(0, 0, 0, ())]
    while stack:
        i, used, start, read = stack.pop()
        del word[start:]
        word += read
        final = i + 1 == n
        key = (e[i], e[i + 1], used, final)
        step = _ROW_STEPS.get(key) or steps.get(key)
        if step is None:
            step = steps[key] = _row_step(*key)
        ins, reads = step
        if final:
            yield from map(tuple(word).__add__, reads)
        else:
            stack += zip(repeat(i + 1), ins, repeat(len(word)), reads)


def table_reduction(c: F2Sum) -> F2Sum:
    """Degree-preserving operad map from Barratt-Eccles elements to surjections."""
    if not _ROW_STEPS:
        _ROW_STEPS.update(_all_row_steps())
    return F2Sum(chain.from_iterable(map(_read_table, c)))
