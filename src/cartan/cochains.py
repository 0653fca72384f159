"""Cochains on a standard simplex, and the surjection-operad action on them.

A cochain is supported in a single dimension: it is the set of faces
(strictly increasing vertex tuples) on which it evaluates to 1.  A
surjection s with values in {1..r} acts on r cochains by cutting a
target face into len(s) consecutive blocks that overlap in one vertex,
joining the blocks under each value, and evaluating; overlapping joins
and dimension mismatches contribute zero.  On top of the action sit the
cup-i products, the chain-level Steenrod squares, and the Cartan
coboundary witness together with its defect, all acting through
closed-form surjections (see `witness_surjections`).

Evaluation compiles the cut plans once per call: every plan of every
surjection becomes a tuple of (getter, support) pairs, one per cochain,
and each target face is checked against those pairs in one tight loop.

The coboundary is bit-parallel.  Number the (d+1)-faces of the
n-simplex by their colex rank; the coface mask of a d-face f is the
integer with a bit at the rank of every coface f + {v}.  `delta` XORs
the masks of the support faces and decodes the set bits of the result
into faces, so a cocycle costs one dictionary lookup and one XOR per
support face and decodes nothing.  Masks and decoded faces are
memoized per (ambient, dim) on first use, so the memo grows with the
faces `delta` has met, not with the number of faces of the simplex.

Cochains that this module builds itself (the results of the action,
`delta` and `+`) skip the validation that the public constructor and
`Cochain.from_dict` apply to outside input.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from math import comb
from operator import itemgetter, xor

from .simplicial import faces_of_dim


class Cochain:
    """GF(2) cochain on the standard `ambient`-simplex, homogeneous of dimension `dim`."""

    __slots__ = ("ambient", "dim", "support")

    def __init__(self, ambient: int, dim: int, support=()):
        if ambient < 0:
            raise ValueError("ambient dimension must be nonnegative")
        faces = frozenset(tuple(f) for f in support)
        if dim < 0 and faces:
            raise ValueError(f"a cochain of dimension {dim} has no faces to support it")
        for f in faces:
            if len(f) != dim + 1:
                raise ValueError(f"face {f} does not have dimension {dim}")
            if any(not isinstance(v, int) or isinstance(v, bool) for v in f):
                raise ValueError(f"face {f} has non-integer vertices")
            if any(a >= b for a, b in zip(f, f[1:])):
                raise ValueError(f"face {f} is not strictly increasing")
            if f[0] < 0 or f[-1] > ambient:
                raise ValueError(f"face {f} leaves the ambient simplex")
        self.ambient = ambient
        self.dim = dim
        self.support = faces

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

    def value(self, face: tuple[int, ...]) -> int:
        return 1 if tuple(face) in self.support else 0

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
            raise ValueError(f"unknown cochain fields: {sorted(extra)}")
        try:
            ambient = data["ambient"]
            dim = data["dim"]
            support = data["support"]
        except KeyError as exc:
            raise ValueError(f"missing cochain field: {exc.args[0]}") from None
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (ambient, dim)):
            raise ValueError("ambient and dim must be integers")
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        if not isinstance(support, list) or any(not isinstance(f, list) for f in support):
            raise ValueError("support must be a list of faces")
        faces = [tuple(f) for f in support]
        if len(set(faces)) != len(faces):
            raise ValueError("support contains a repeated face")
        return cls(ambient, dim, faces)


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


def _colex_rank(face: tuple[int, ...]) -> int:
    """Position of a strictly increasing vertex tuple among those of its length, in colex order."""
    return sum(comb(v, j) for j, v in enumerate(face, 1))


def _colex_face(size: int, rank: int) -> tuple[int, ...]:
    """The strictly increasing tuple of `size` vertices whose colex rank is `rank`."""
    face = []
    for j in range(size, 0, -1):
        v = j - 1
        while comb(v + 1, j) <= rank:
            v += 1
        rank -= comb(v, j)
        face.append(v)
    return tuple(reversed(face))


def _coface_mask(n: int, f: tuple[int, ...]) -> int:
    """The cofaces f + {v} of a face of the n-simplex, as bits at their colex ranks."""
    bounds = (-1,) + f + (n + 1,)
    mask = 0
    for k in range(len(f) + 1):
        for v in range(bounds[k] + 1, bounds[k + 1]):
            mask |= 1 << _colex_rank(f[:k] + (v,) + f[k:])
    return mask


def _bits(x: int):
    """Positions of the set bits of a nonnegative integer, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# (ambient, dim) -> (coface mask of each dim-face met so far,
#                    (dim+1)-face of each colex rank decoded so far)
_COFACES: dict = {}


def delta(a: Cochain) -> Cochain:
    """Simplicial coboundary: parity of codimension-one subfaces in the support.

    XORs the memoized coface masks of the support faces, and decodes
    the set bits of the result into faces; a cocycle decodes nothing.
    """
    n, dim = a.ambient, a.dim
    memo = _COFACES.get((n, dim))
    if memo is None:
        memo = _COFACES[n, dim] = (_Memo(partial(_coface_mask, n)),
                                   _Memo(partial(_colex_face, dim + 2)))
    masks, faces = memo
    x = reduce(xor, map(masks.__getitem__, a.support), 0)
    return Cochain._built(n, dim + 1, frozenset(map(faces.__getitem__, _bits(x))))


@lru_cache(maxsize=None)
def _cut_plans(seq: tuple[int, ...], dims: tuple[int, ...], m: int):
    """Positions, per value, of every cut of an m-face that can evaluate nonzero.

    A plan lists for each value v the target positions joined under v.
    Cuts whose block lengths cannot match the cochain dimensions, or
    whose same-value blocks overlap, are pruned during the recursion.
    The result only depends on the surjection, the dimensions and m, so
    it is cached and shared by every call on m-faces.
    """
    r = len(dims)
    counts = [0] * r
    for v in seq:
        counts[v - 1] += 1
    budgets = [d + 1 for d in dims]
    if any(budgets[v] < counts[v] for v in range(r)):
        return ()
    if sum(budgets) != m + len(seq):
        return ()
    plans = []
    pos_acc: list[list[int]] = [[] for _ in range(r)]
    rem = budgets[:]
    cnt = counts[:]
    end = [-1] * r
    n_blocks = len(seq)

    def rec(j: int, pos: int) -> None:
        if j == n_blocks:
            plans.append(tuple(tuple(p) for p in pos_acc))
            return
        v = seq[j] - 1
        if end[v] == pos:
            return
        hi = rem[v] - (cnt[v] - 1)
        lo = hi if cnt[v] == 1 else 1
        saved = end[v]
        for length in range(lo, hi + 1):
            if pos + length - 1 > m:
                break
            pos_acc[v].extend(range(pos, pos + length))
            rem[v] -= length
            cnt[v] -= 1
            end[v] = pos + length - 1
            rec(j + 1, pos + length - 1)
            end[v] = saved
            cnt[v] += 1
            rem[v] += length
            del pos_acc[v][-length:]

    rec(0, 0)
    return tuple(plans)


def _compile(surjs, cochains, m: int) -> list:
    """The cut plans of every surjection on m-faces, as (getter, support) pairs.

    A target face passes a plan when each getter picks out a face that
    lies in its support; the action is the parity of passed plans.  A
    getter of one position returns a bare vertex rather than a 1-tuple,
    which happens exactly for dimension-0 cochains, so their support is
    keyed by vertex.
    """
    dims = tuple(c.dim for c in cochains)
    supports = [frozenset(f[0] for f in c.support) if c.dim == 0 else c.support
                for c in cochains]
    return [tuple((itemgetter(*positions), supp) for positions, supp in zip(plan, supports))
            for s in surjs for plan in _cut_plans(s, dims, m)]


def _evaluate(plans, faces) -> list:
    """The faces on which an odd number of the compiled plans pass."""
    out = []
    for f in faces:
        val = 0
        for plan in plans:
            for get, supp in plan:
                if get(f) not in supp:
                    break
            else:
                val ^= 1
        if val:
            out.append(f)
    return out


def apply_surjection(seq: tuple[int, ...], cochains, target: tuple[int, ...]) -> int:
    """Value on `target` of the surjection acting on the given cochains."""
    r = len(cochains)
    if set(seq) != set(range(1, r + 1)):
        raise ValueError("surjection arity does not match the number of cochains")
    ambient = cochains[0].ambient
    if any(c.ambient != ambient for c in cochains):
        raise ValueError("cochains live on different simplices")
    return len(_evaluate(_compile((seq,), cochains, len(target) - 1), (target,)))


@lru_cache(maxsize=None)
def cup_surjections(i: int) -> tuple:
    """Surjections acting as the cup-i product: the one word 1 2 1 2 ... of length i + 2."""
    return (((1, 2) * (i + 2))[:i + 2],) if i >= 0 else ()


@lru_cache(maxsize=None)
def witness_surjections(i: int) -> tuple:
    """Arity-4 surjections acting as the degree-i Cartan witness: floor((i+2)^2/4) words, sorted.

    With alt(x, y, L) = x y x y ... (L letters), p >= 0, q >= 1 and L >= 1, they are
    (1 2)^p 1 3 (2 3)^q alt(4, 3, L) with 2p + 2q + L = i + 3, and
    (1 2)^p 1 2 4 (1 4)^q alt(3, 4, L) with 2p + 2q + L = i + 2: the table reduction
    of the Barratt-Eccles Cartan homotopy of the cup-i generator, as the tests check
    for i <= 8 (a one-off run: i <= 12).  Checked, not derived here from the paper.
    """
    return tuple(sorted(
        (1, 2) * p + head + tail * q + ((x, y) * rest)[:rest]
        for head, tail, x, y, total in (((1, 3), (2, 3), 4, 3, i + 3),
                                        ((1, 2, 4), (1, 4), 3, 4, i + 2))
        for p in range(total // 2) for q in range(1, total // 2 + 1)
        if (rest := total - 2 * p - 2 * q) >= 1))


def _act_cochain(surjs, cochains, n: int, dim: int) -> Cochain:
    """Sum of the surjections acting on cochains of the n-simplex, as a dim-cochain."""
    faces = faces_of_dim(n, dim)
    plans = _compile(surjs, cochains, dim) if faces else []
    return Cochain._built(n, dim, frozenset(_evaluate(plans, faces) if plans else ()))


def cup(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Cup-i product of two cochains on the same simplex."""
    if i < 0:
        raise ValueError("cup index must be nonnegative")
    if a.ambient != b.ambient:
        raise ValueError("cochains live on different simplices")
    return _act_cochain(cup_surjections(i), (a, b), a.ambient, a.dim + b.dim - i)


def steenrod_square(k: int, a: Cochain) -> Cochain:
    """Chain-level k-th Steenrod square: cup-(dim - k) of a cochain with itself."""
    m = a.dim
    if k > m:
        return Cochain(a.ambient, m + k, ())
    return cup(m - k, a, a)


def cartan_coboundary(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Cochain whose coboundary realizes the degree-i Cartan relation for cocycles.

    The inputs are fed in doubled order (a, a, b, b) to the witness
    surjections; the result has dimension 2 dim a + 2 dim b - i - 1.
    """
    if i < 0:
        raise ValueError("witness index must be nonnegative")
    if a.ambient != b.ambient:
        raise ValueError("cochains live on different simplices")
    dim = 2 * a.dim + 2 * b.dim - i - 1
    if not 0 <= dim <= a.ambient:
        # no face to evaluate on: return before listing ~i^2/4 witness words for a huge i
        return Cochain._built(a.ambient, dim, frozenset())
    return _act_cochain(witness_surjections(i), (a, a, b, b), a.ambient, dim)


def cartan_defect(i: int, a: Cochain, b: Cochain) -> Cochain:
    """delta(witness) + (a cup_0 b) cup_i (a cup_0 b) + sum of (a cup_j a) cup_0 (b cup_k b).

    Zero for cocycle inputs; non-cocycles are rejected.
    """
    if not delta(a).is_zero or not delta(b).is_zero:
        raise ValueError("inputs must be cocycles")
    ab = cup(0, a, b)
    out = delta(cartan_coboundary(i, a, b)) + cup(i, ab, ab)
    for j in range(i + 1):
        out = out + cup(0, cup(j, a, a), cup(i - j, b, b))
    return out
