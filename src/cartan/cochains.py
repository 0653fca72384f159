"""Cochains on a standard simplex, and the surjection-operad action on them.

A cochain is supported in a single dimension: it is the set of faces
(strictly increasing vertex tuples) on which it evaluates to 1.  A
surjection s with values in {1..r} acts on r cochains by cutting a
target face into len(s) consecutive blocks that overlap in one vertex,
joining the blocks under each value, and evaluating; overlapping joins
and dimension mismatches contribute zero.  On top of the action sit the
cup-i products, the chain-level Steenrod squares, and the Cartan
coboundary witness together with its defect, all acting through
closed-form surjections (see `witness_surjections`).  The defect is
delta of the witness plus one action on (a, a, b, b) of two more
closed forms: the squared product (a cup_0 b) cup_i (a cup_0 b) as
floor((i+2)^2/4) arity-4 words (`squared_product_surjections`) and the
product of squares as i + 1 (`square_surjections`), so no cup is built
as a whole cochain.  The coboundary of the witness is taken on the
cochain, not folded into the words, so a zero defect still checks the
witness words against the other two families; the relation between
the three families of words is checked on its own, with no cochain.
A defect call checks that its inputs are cocycles on the XOR of their
coface masks, prepares (a, a, b, b) once for both of its actions, and
builds one result set: the faces of the witness's coboundary, toggled
by the second action's walk.

Every action runs through one guarded entry, `_act_cochain`, on
operands that `_operands` prepares once per public call: the ambient
check, the zero-operand exit, the lifetime check of the memos below,
and each operand's dimension, slot, membership test and seeds.  The entry
works plan by plan rather than face by face.  Each cut plan is a
conjunction of tests (slot, positions), and each test filters the
target faces that passed the plan's earlier tests in one C-level pass.
An action's plans are compiled once per shape (words, i, dimensions,
slots, m) into a schedule: the prefix tree of their tests in
shared-first order.  Each plan's tests are ordered by how many of the
shape's plans contain them, most first, so the tests that most plans
share sit nearest the root and filter the m-faces once for all of
them; slots that hold the same cochain test it once.  Each node
records whether an odd number of plans end there, since plans with
the same tests cancel.  A face is in the result when an odd number of
plans keep it.

A root of a schedule, a test that no other test precedes, filters
every m-face of the simplex unless its slot holds a sparse operand:
one whose support S holds fewer than one in eight of the faces of its
dimension d, |S| * 8 < C(n+1, d+1), a fixed rule decided once per
operand per call.  Such a root starts from its support instead, by a
seed plan compiled with the schedule (`_seed_plan`): the gaps that its
positions leave places in, and one getter that puts a face of S and the
vertices chosen in its gaps into m-face order.  For each face of S,
`_seeded_faces` first checks that every gap is at least as wide as its
places, so a face with a narrower gap lists nothing, and then lists the
m-faces that carry the face at the root's positions through
`combinations`, or their `product` for several gaps.  So a seeded root
costs in proportion to the support rather than to the simplex, and
skips its own test.  The schedules with their seed plans, and the
m-face lists that the other roots filter, are memoized for as long as
the `_cut_plans` cache holds; a call whose roots are all seeded lists
no m-faces.

The coboundary is bit-parallel.  `delta` numbers the (d+1)-faces of
the n-simplex in the order it first meets them as cofaces f + {v} of
a support face f, each named by its vertex set, an int with one bit
per vertex; the coface mask of a d-face is the integer with a bit at
the number of each of its cofaces.  `_coboundary_bits` XORs the masks
of the support faces, and `delta` decodes the set bits of the result
into faces, so a cocycle costs one dictionary lookup and one XOR per
support face and decodes nothing; a cocycle check tests the XOR itself
and builds no cochain.  A coface becomes a tuple of vertices only when
`delta` first returns it.  Masks and numbers are memoized per
(ambient, dim) on first use by a nonzero cochain, so the memo grows
with the faces `delta` has met, not with the number of faces of the
simplex.

The public constructor checks every rule of a cochain from outside:
ambient, dim and vertices are plain ints, and no face is repeated.  It
checks every face before it hashes any, so an unhashable vertex is
reported like any other bad vertex, and it names the first bad face in
input order, whatever the hash seed.  `Cochain.from_dict` adds only the
rules of a JSON document; the cochains this module builds skip both.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress, product, zip_longest
from math import comb
from operator import itemgetter, lt, xor

from .f2 import F2Sum
from .simplicial import faces_of_dim


# longest echo of an input in an error message
BRIEF = 60
_REPR = reprlib.Repr()
_REPR.maxlevel = _REPR.maxlist = _REPR.maxtuple = BRIEF
_REPR.maxstring = 2 * BRIEF + 3


def brief(x) -> str:
    """The repr of an input cut to its first BRIEF characters, for an error message.

    `reprlib` stops at a bounded depth and length, so a deep or long
    input costs little and cannot exhaust the recursion limit.
    """
    text = _REPR.repr(x)
    return text if len(text) <= BRIEF else text[:BRIEF] + "..."


def _plain_faces(faces: list, dim: int, ambient: int) -> bool:
    """Whether every face is dim + 1 strictly increasing ints in [0, ambient].

    Checks the whole support at once, column by column, so a valid
    support costs a few C-level passes; False sends `Cochain` to its
    per-face loop, which names the first bad face.
    """
    if not faces:
        return True
    if set(map(len, faces)) != {dim + 1} or set(map(type, chain.from_iterable(faces))) != {int}:
        return False
    columns = list(zip(*faces))
    return (all(all(map(lt, x, y)) for x, y in zip(columns, columns[1:]))
            and min(columns[0]) >= 0 and max(columns[-1]) <= ambient)


class Cochain:
    """GF(2) cochain on the standard `ambient`-simplex, homogeneous of dimension `dim`."""

    __slots__ = ("ambient", "dim", "support")

    def __init__(self, ambient: int, dim: int, support=()):
        if type(ambient) is not int or type(dim) is not int:
            raise ValueError("ambient and dim must be integers")
        if ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        faces = [tuple(f) for f in support]
        if dim < 0 and faces:
            raise ValueError(f"a cochain of dimension {dim} has no faces to support it")
        if not _plain_faces(faces, dim, ambient):
            # some face may be bad: find the first one, in input order
            for f in faces:
                if len(f) != dim + 1:
                    raise ValueError(f"face {brief(f)} does not have dimension {dim}")
                if any(type(v) is not int for v in f):
                    raise ValueError(f"face {brief(f)} has non-integer vertices")
                if any(a >= b for a, b in zip(f, f[1:])):
                    raise ValueError(f"face {brief(f)} is not strictly increasing")
                if f[0] < 0 or f[-1] > ambient:
                    raise ValueError(f"face {brief(f)} leaves the ambient simplex")
        self.ambient = ambient
        self.dim = dim
        self.support = frozenset(faces)
        if len(self.support) != len(faces):
            raise ValueError("support contains a repeated face")

    @classmethod
    def _built(cls, ambient: int, dim: int, support: frozenset) -> "Cochain":
        """A cochain whose faces this module computed, so they need no checks."""
        c = object.__new__(cls)
        c.ambient = ambient
        c.dim = dim
        c.support = support
        return c

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "Cochain") -> "Cochain":
        if not isinstance(other, Cochain):
            return NotImplemented
        if (self.ambient, self.dim) != (other.ambient, other.dim):
            raise ValueError("cochain shapes differ")
        return Cochain._built(self.ambient, self.dim, self.support ^ other.support)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain)
                and self.ambient == other.ambient
                and self.dim == other.dim
                and self.support == other.support)

    def __hash__(self) -> int:
        return hash((self.ambient, self.dim, self.support))

    def __repr__(self) -> str:
        return f"Cochain({self.ambient}, {self.dim}, {sorted(self.support)!r})"

    def to_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "support": sorted(list(f) for f in self.support),
        }

    @classmethod
    def from_dict(cls, data) -> "Cochain":
        if not isinstance(data, dict):
            raise ValueError("cochain document must be an object")
        extra = set(data) - {"ambient", "dim", "support"}
        if extra:
            raise ValueError(f"unknown cochain fields: {brief(sorted(extra))}")
        try:
            ambient = data["ambient"]
            dim = data["dim"]
            support = data["support"]
        except KeyError as exc:
            raise ValueError(f"missing cochain field: {exc.args[0]}") from None
        if not isinstance(support, list) or any(not isinstance(f, list) for f in support):
            raise ValueError("support must be a list of faces")
        c = cls(ambient, dim, support)
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        return c


def ones(n: int) -> Cochain:
    """The constant degree-0 cocycle: every vertex."""
    return Cochain(n, 0, faces_of_dim(n, 0))


class _Memo(dict):
    """A dict that fills a missing key with `fill(key)` and keeps the value."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _coface_memo(n: int):
    """Coface masks of faces of the n-simplex, and the cofaces of their bits, filled on first use.

    A coface is named by its vertex set, the int with a bit at each
    vertex, and gets the next bit the first time a mask meets it;
    `cofaces` lists these vertex sets in the order of their bits.  A
    bit's face is decoded into its tuple on first lookup in `faces`,
    which `delta` does only for the faces it returns.
    """
    cofaces: list = []
    bit_of = _Memo(lambda g: cofaces.append(g) or len(cofaces) - 1)

    def mask(f: tuple[int, ...]) -> int:
        x = sum(1 << v for v in f)
        return sum(1 << bit_of[x | 1 << v] for v in range(n + 1) if not x >> v & 1)

    return _Memo(mask), cofaces, _Memo(lambda bit: tuple(_bits(cofaces[bit])))


def _bits(x: int):
    """Positions of the set bits of a nonnegative integer, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# (ambient, dim) -> (coface mask of each dim-face met so far,
#                    vertex set of the (dim+1)-face of each bit handed out so far,
#                    (dim+1)-face of each bit decoded so far)
_COFACES = _Memo(lambda key: _coface_memo(key[0]))


def _coboundary_bits(c: Cochain) -> int:
    """The XOR of the coface masks of the support faces: zero exactly for a cocycle.

    Bit k stands for the k-th coface in `_COFACES[ambient, dim]`.  A
    zero cochain returns 0 before the memo is read, so a dimension
    outside the simplex, as of an out-of-range witness, adds no key.
    """
    if not c.support:
        return 0
    return reduce(xor, map(_COFACES[c.ambient, c.dim][0].__getitem__, c.support), 0)


def _coboundary_faces(c: Cochain):
    """The faces of delta c, decoded from the set bits of `_coboundary_bits(c)`."""
    x = _coboundary_bits(c)
    return map(_COFACES[c.ambient, c.dim][2].__getitem__, _bits(x)) if x else ()


def delta(a: Cochain) -> Cochain:
    """Simplicial coboundary: parity of codimension-one subfaces in the support.

    The bit-mask engine: `_coboundary_bits(a)` XORs the memoized coface
    masks of the support faces, and the set bits of the result are
    decoded into faces, so a cocycle decodes nothing.  A zero cochain
    returns zero before the memo is read.
    """
    return Cochain._built(a.ambient, a.dim + 1, frozenset(_coboundary_faces(a)))


@lru_cache(maxsize=None)
def _cut_plans(seq: tuple[int, ...], dims: tuple[int, ...], m: int):
    """Positions, per value, of every cut of an m-face that can evaluate nonzero.

    A plan lists for each value v the target positions joined under v.
    A block holds at least one vertex, and an interior block whose two
    neighbours carry the same value at least two, since with one vertex
    those neighbours would overlap in it.  Each value's budget must
    cover these least lengths before the search starts, and each block
    leaves enough for the later blocks of its value; cuts whose
    same-value blocks overlap are pruned as they appear.  The result
    only depends on the surjection, the dimensions and m, so it is
    cached and shared by every call on m-faces.  Plans that join the
    same positions share one tuple: a word's plans repeat a few
    position tuples many times, and the cache holds them all.
    """
    r = len(dims)
    n_blocks = len(seq)
    least = [1 + (0 < j < n_blocks - 1 and seq[j - 1] == seq[j + 1]) for j in range(n_blocks)]
    need = [0] * r
    for v, k in zip(seq, least):
        need[v - 1] += k
    rem = [d + 1 for d in dims]
    if any(b < k for b, k in zip(rem, need)) or sum(rem) != m + n_blocks:
        return ()
    plans = []
    pos_acc: list[list[int]] = [[] for _ in range(r)]
    end = [-1] * r
    shared: dict = {}

    def rec(j: int, pos: int) -> None:
        if j == n_blocks:
            plans.append(tuple(shared.setdefault(p, p) for p in map(tuple, pos_acc)))
            return
        v = seq[j] - 1
        if end[v] == pos:
            return
        need[v] -= least[j]
        hi = rem[v] - need[v]
        saved = end[v]
        for length in range(hi if need[v] == 0 else least[j], hi + 1):
            pos_acc[v].extend(range(pos, pos + length))
            rem[v] -= length
            end[v] = pos + length - 1
            rec(j + 1, pos + length - 1)
            end[v] = saved
            rem[v] += length
            del pos_acc[v][-length:]
        need[v] += least[j]

    rec(0, 0)
    return tuple(plans)


def _schedule(key: tuple) -> tuple:
    """The cut plans of (words, i, dims, slots, m) as a prefix tree of tests, shared first.

    A plan becomes its set of tests (slot, positions); plans with one
    set of tests act alike, so only the sets met an odd number of times
    remain.  Each set is ordered by how many remaining sets contain a
    test, most first, ties by the test itself, so the tests most plans
    share sit nearest the root and filter the faces once for all of
    them.  A node is (slot, getter of the positions, whether a
    remaining set ends here, child nodes), and a subtree in which no
    set ends is never built.  The schedule pairs each root with its
    `_seed_plan`, for the calls whose root slot holds a sparse operand.
    `words(i)` is only built here, so an action looks its schedule up
    without hashing the words.
    """
    words, i, dims, slots, m = key
    odd = F2Sum(frozenset(zip(slots, plan)) for s in words(i) for plan in _cut_plans(s, dims, m))
    shared = Counter(chain.from_iterable(odd))
    trie: dict = {}
    for tests in odd:
        *path, last = sorted(tests, key=lambda t: (-shared[t], t))
        node = trie
        for test in path:
            node = node.setdefault(test, [False, {}])[1]
        node.setdefault(last, [False, {}])[0] = True
    # a slice for one position, so that every getter returns a tuple of vertices
    getters = _Memo(lambda positions: itemgetter(*positions) if len(positions) > 1
                    else itemgetter(slice(positions[0], positions[0] + 1)))

    def freeze(node: dict) -> tuple:
        return tuple((slot, getters[positions], ends, freeze(kids))
                     for (slot, positions), (ends, kids) in node.items())

    return tuple(zip(freeze(trie), [_seed_plan(positions, m) for _, positions in trie]))


# (words, i, dims, slots, m) -> schedule of `_act_cochain`, built from `_cut_plans` on first use
_SCHEDULES = _Memo(_schedule)
# (n, m) -> the m-faces of the n-simplex that the roots of non-sparse slots filter,
# listed when the first such root is met and emptied with `_SCHEDULES`
_FACES = _Memo(lambda key: faces_of_dim(*key))


def _walk(nodes: tuple, passed: list, contains: list, out: set) -> None:
    """Filter `passed` through each node's test, and toggle the faces kept where a set ends.

    A node with no children is a set's end, so it toggles what its
    test keeps without listing it.
    """
    for slot, get, ends, kids in nodes:
        kept = compress(passed, map(contains[slot], map(get, passed)))
        if not kids:
            out.symmetric_difference_update(kept)
        elif kept := list(kept):
            if ends:
                out.symmetric_difference_update(kept)
            _walk(kids, kept, contains, out)


def _seed_plan(positions: tuple, m: int) -> tuple:
    """How a root at `positions` lists m-faces from a support: (gaps, order).

    Gap j lies before the j-th position, gap len(positions) after the
    last; `gaps` holds (j, k) for each gap with k > 0 places.  A face
    is listed as s + the vertices chosen for each gap in turn, and
    `order` puts that tuple into m-face order; a root with no gap has
    no `order`, since its m-faces are the support faces themselves.
    """
    counts = [q - p - 1 for p, q in zip((-1,) + positions, positions + (m + 1,))]
    gaps = tuple((j, k) for j, k in enumerate(counts) if k)
    if not gaps:
        return gaps, None
    # the m-face position of each vertex of s + chosen vertices, and its inverse
    layout = positions + tuple(t for t in range(m + 1) if t not in positions)
    return gaps, itemgetter(*sorted(range(m + 1), key=layout.__getitem__))


# (s, g_1, g_2, ...) -> s + g_1 + g_2 + ...
_flat = partial(sum, start=())


def _seeded_faces(plan: tuple, support, n: int):
    """The m-faces of the n-simplex that carry a face of `support` where `_seed_plan` says.

    For each face s of the support, gap j with k places takes any k
    vertices strictly between the vertices of s around it.  A face s
    with a gap narrower than its places lists nothing; the others list
    their choices through C-level iterators, one gap by `combinations`
    alone and several by their `product`.  A root with no gap returns
    the support itself.  Distinct faces of the support give distinct
    m-faces.
    """
    gaps, order = plan
    if not gaps:
        return support
    faces = []
    if len(gaps) == 1:
        (j, k), = gaps
        for s in support:
            bounds = (-1,) + s + (n + 1,)
            lo, hi = bounds[j] + 1, bounds[j + 1]
            if hi - lo >= k:
                faces += map(order, map(s.__add__, combinations(range(lo, hi), k)))
        return faces
    for s in support:
        bounds = (-1,) + s + (n + 1,)
        spans = [range(bounds[j] + 1, bounds[j + 1]) for j, _ in gaps]
        if all(len(r) >= k for r, (_, k) in zip(spans, gaps)):
            choices = product((s,), *[combinations(r, k) for r, (_, k) in zip(spans, gaps)])
            faces += map(order, map(_flat, choices))
    return faces


def _alt(x: int, y: int, length: int) -> tuple[int, ...]:
    """The word x y x y ... of the given length."""
    return ((x, y) * length)[:length]


@lru_cache(maxsize=None)
def cup_surjections(i: int) -> tuple:
    """Surjections acting as the cup-i product: the one word 1 2 1 2 ... of length i + 2."""
    return (_alt(1, 2, i + 2),) if i >= 0 else ()


@lru_cache(maxsize=None)
def witness_surjections(i: int) -> tuple:
    """Arity-4 surjections acting as the degree-i Cartan witness: floor((i+2)^2/4) words, sorted.

    With alt(x, y, L) = x y x y ... (L letters), p >= 0, q >= 1 and L >= 1, they are
    (1 2)^p 1 3 (2 3)^q alt(4, 3, L) with 2p + 2q + L = i + 3, and
    (1 2)^p 1 2 4 (1 4)^q alt(3, 4, L) with 2p + 2q + L = i + 2: the table reduction
    of the Barratt-Eccles Cartan homotopy of the cup-i generator, as the tests check
    for every i <= 12, the CLI's cap.  Checked, not derived here from the paper.
    """
    return tuple(sorted(
        (1, 2) * p + head + tail * q + _alt(x, y, rest)
        for head, tail, x, y, total in (((1, 3), (2, 3), 4, 3, i + 3),
                                        ((1, 2, 4), (1, 4), 3, 4, i + 2))
        for p in range(total // 2) for q in range(1, total // 2 + 1)
        if (rest := total - 2 * p - 2 * q) >= 1))


def square_surjections(i: int) -> tuple:
    """Arity-4 surjections acting as the product of squares: i + 1 words of length i + 4, sorted.

    The j-th word, for j = 0..i, is the cup-j word followed by the
    cup-(i-j) word on the letters 3 4 (j even) or 4 3 (j odd); on
    (a, a, b, b) it acts as (a cup_j a) cup_0 (b cup_{i-j} b).  These are
    the table reduction of the Barratt-Eccles product of squares of the
    cup-i generator, as the tests check for every i <= 12.
    """
    return tuple(sorted(_alt(1, 2, j + 2) + _alt(3 + j % 2, 4 - j % 2, i - j + 2)
                        for j in range(i + 1)))


def _turns(low: int, count: int) -> list:
    """Each way to write `count` blocks as (low) ... (low) (low low+2) (low+2) ... (low+2)."""
    return [((low,),) * k + ((low, low + 2),) + ((low + 2,),) * (count - k - 1)
            for k in range(count)]


def squared_product_surjections(i: int) -> tuple:
    """Arity-4 surjections acting as the squared product: floor((i+2)^2/4) words, sorted.

    In the cup-i word x y x y ... (i + 2 letters), one x becomes 1 3, the
    x's before it 1 and those after it 3; one y becomes 2 4, the y's
    before it 2 and those after it 4.  Each word has length i + 4, and on
    (a, a, b, b) the words act as (a cup_0 b) cup_i (a cup_0 b): they are
    (2 3) cup_i o (cup_0, cup_0), the `surj_compose` of cup words, as
    the tests check for every i <= 40.  A letter from {1, 2} follows one
    from {3, 4} in every word, so none is a `square_surjections` word.
    """
    return tuple(sorted(sum(chain.from_iterable(zip_longest(x, y, fillvalue=())), ())
                        for x in _turns(1, (i + 3) // 2) for y in _turns(2, (i + 2) // 2)))


# memoized: set-up meets each i many times, and a miss rebuilds both word lists
@lru_cache(maxsize=None)
def _defect_surjections(i: int) -> tuple:
    """The words `cartan_defect` adds to delta of the witness: the squared product, then
    the product of squares."""
    return squared_product_surjections(i) + square_surjections(i)


def _seeds(c: Cochain):
    """The support of a sparse operand, which its roots start from; None for any other.

    An operand is sparse when its support holds fewer than one in eight
    of the faces of its dimension.  A root pays about four times as much
    for each face it lists as a scan pays for each face it tests, so
    seeding wins below about one in four; on dense coboundaries it
    would cost twice the scan.
    """
    return c.support if len(c.support) * 8 < comb(c.ambient + 1, c.dim + 1) else None


def _operands(cochains) -> tuple:
    """One call's operands, prepared once for all its actions: (n, dims, slots, contains, seeds).

    Rejects cochains of different simplices.  When an operand is zero,
    `contains` is None and the rest is not prepared, since every action
    on the operands is zero.  Otherwise this is the one point of a call
    that checks the lifetime of the memos: `_SCHEDULES` and `_FACES` are
    emptied when the `_cut_plans` cache is found empty.  The slot of a
    cochain is the first one that holds the same object, so (a, a, b, b)
    or a cup of a with itself tests each support under one name, and
    `contains` holds each operand's membership test and `seeds` its
    `_seeds`.
    """
    n = cochains[0].ambient
    for c in cochains:
        if c.ambient != n:
            raise ValueError("cochains live on different simplices")
    for c in cochains:
        if not c.support:
            return n, None, None, None, None
    if not _cut_plans.cache_info().currsize:
        _SCHEDULES.clear()
        _FACES.clear()
    ids = [id(c) for c in cochains]
    return (n, tuple([c.dim for c in cochains]), tuple(map(ids.index, ids)),
            [c.support.__contains__ for c in cochains], list(map(_seeds, cochains)))


def _act_cochain(words, i: int, operands: tuple, dim: int, plus=()) -> Cochain:
    """The faces `plus` and the surjections `words(i)` acting on `_operands`, as a dim-cochain.

    The one entry for every action.  It returns `plus` before `words(i)`
    is built when the simplex has no dim-face or an operand is zero,
    since the action is multilinear.  Otherwise it toggles, in a copy of
    `plus`, the dim-faces on which an odd number of the words' cut plans
    pass.
    A face passes a test (slot, positions) when its vertices at those
    positions form a face in the support of the cochain in that slot,
    and passes a plan when it passes every test of the plan.  The plans
    are compiled once per (words, i, dims, slots, dim) into a
    `_schedule`, keyed by the function `words` itself, which must give
    the same words for the same i.  The roots of the schedule run in one
    loop.  A root whose slot holds a sparse operand (`_seeds`) starts
    from the dim-faces that `_seeded_faces` lists from its support by
    the seed plan compiled with the root, and these pass its test by
    construction; any other root filters the dim-faces of the simplex,
    listed once per (n, dim) in `_FACES`, and only when some root needs
    them.  Both memos live as long as the
    `_cut_plans` cache, which `_operands` checks.  Each node of the
    schedule filters, in one pass of `compress`, the faces that passed
    its parent, and a subtree stops at its first empty list.  A face
    passes a plan at most once, so the result is the symmetric
    difference of what the plans keep.
    """
    n, dims, slots, contains, seeds = operands
    out = set(plus)
    if contains is not None and 0 <= dim <= n:
        for root, plan in _SCHEDULES[words, i, dims, slots, dim]:
            slot, _, ends, kids = root
            if seeds[slot] is None:
                _walk((root,), _FACES[n, dim], contains, out)
            elif faces := _seeded_faces(plan, seeds[slot], n):
                if ends:
                    out.symmetric_difference_update(faces)
                _walk(kids, faces, contains, out)
    return Cochain._built(n, dim, frozenset(out))


def cup(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Cup-i product of two cochains on the same simplex."""
    if i < 0:
        raise ValueError("cup index must be nonnegative")
    return _act_cochain(cup_surjections, i, _operands((a, b)), a.dim + b.dim - i)


def steenrod_square(k: int, a: Cochain) -> Cochain:
    """Chain-level k-th Steenrod square: cup-(dim - k) of a cochain with itself.

    Zero for k < 0 and k > dim, with no action compiled.
    """
    m = a.dim
    if not 0 <= k <= m:
        return Cochain(a.ambient, m + k, ())
    return cup(m - k, a, a)


def cartan_coboundary(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Cochain whose coboundary realizes the degree-i Cartan relation for cocycles.

    The inputs are fed in doubled order (a, a, b, b) to the witness
    surjections; the result has dimension 2 dim a + 2 dim b - i - 1.
    """
    if i < 0:
        raise ValueError("witness index must be nonnegative")
    return _act_cochain(witness_surjections, i, _operands((a, a, b, b)),
                        2 * a.dim + 2 * b.dim - i - 1)


def cartan_defect(i: int, a: Cochain, b: Cochain) -> Cochain:
    """delta(witness) + (a cup_0 b) cup_i (a cup_0 b) + sum of (a cup_j a) cup_0 (b cup_k b).

    Zero for cocycle inputs; non-cocycles are rejected by the XOR of
    their coface masks, before any action.  The operands (a, a, b, b)
    are prepared once for two actions: the witness, and the words of
    `squared_product_surjections(i)` and `square_surjections(i)`.  The
    coboundary of the witness is taken on the cochain, not folded into
    the words, so a zero defect checks the witness against these words;
    its faces seed the set that the second action toggles, so the
    result is built as one cochain.
    """
    if _coboundary_bits(a) or _coboundary_bits(b):
        raise ValueError("inputs must be cocycles")
    if i < 0:
        raise ValueError("witness index must be nonnegative")
    operands = _operands((a, a, b, b))
    dim = 2 * a.dim + 2 * b.dim - i
    witness = _act_cochain(witness_surjections, i, operands, dim - 1)
    return _act_cochain(_defect_surjections, i, operands, dim, _coboundary_faces(witness))
