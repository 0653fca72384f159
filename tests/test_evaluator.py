"""The plan-major cochain evaluator and delta against the per-face references in `oracles`."""

import random
from collections import Counter
from itertools import chain, product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cartan.cochains
from cartan.cochains import (Cochain, _Memo, _act_cochain, _clear_memos, _cut_plans,
                             _defect_surjections, _getter, _index, _join_plan, _joined_faces,
                             _operands, _schedule, _seed_plan, _seeded_faces, _seeds,
                             cartan_coboundary, cartan_defect, cup, cup_surjections, delta,
                             ones, square_surjections, squared_product_surjections,
                             steenrod_square, witness_surjections)
from cartan.simplicial import faces_of_dim

from oracles import (act_reference, act_word, brute_cut_plans, cup_i_reference,
                     defect_reference, delta_reference, odd_terms, squares_reference)

KINDS = ("zero", "sparse", "dense")


def make_cochain(rng: random.Random, n: int, dim: int, kind: str) -> Cochain:
    faces = faces_of_dim(n, dim)
    if kind == "zero":
        support = []
    elif kind == "sparse":
        support = rng.sample(faces, min(len(faces), rng.randint(1, 3)))
    else:
        support = [f for f in faces if rng.getrandbits(1)]
    return Cochain(n, dim, support)


@st.composite
def cochains(draw, n=None, min_dim=0, max_dim=None, kinds=KINDS + ("dense",)):
    """A cochain on the n-simplex (n <= 8), of a kind drawn from `kinds`.

    By default it is zero, sparse or dense, dense twice as often.
    """
    if n is None:
        n = draw(st.integers(0, 8))
    dim = draw(st.integers(min_dim, n if max_dim is None else min(n, max_dim)))
    rng = draw(st.randoms(use_true_random=False))
    return make_cochain(rng, n, dim, draw(st.sampled_from(kinds)))


@st.composite
def pairs(draw):
    a = draw(cochains())
    return a, draw(cochains(n=a.ambient))


@st.composite
def windowed(draw, doubled: bool):
    """(i, a, b) with i <= 5 inside the window where the output dimension lies in [0, n].

    The output has dimension s - i, with s = dim a + dim b for cup-i and
    s = 2 dim a + 2 dim b - 1 for the witness on (a, a, b, b), so i is
    drawn from [s - n, s]; a pair whose window misses [0, 5] is redrawn.
    The witness of dense operands was zero in every sampled case with
    i >= dim a + dim b - 1, and almost always on small simplices, so for
    the witness i stops at dim a + dim b, n is 7 or 8, both dimensions
    lie in 1..3 and both operands are dense.
    """
    if doubled:
        n = draw(st.integers(7, 8))
        a, b = (draw(cochains(n=n, min_dim=1, max_dim=3, kinds=("dense",))) for _ in range(2))
    else:
        a, b = draw(pairs())
    s = (2 if doubled else 1) * (a.dim + b.dim) - doubled
    lo, hi = max(0, s - a.ambient), min(5, a.dim + b.dim if doubled else s)
    assume(lo <= hi)
    return draw(st.integers(lo, hi)), a, b


def check_cup(i: int, a: Cochain, b: Cochain) -> Cochain:
    """cup(i, a, b) after checking it against the reference loop and the closed formula."""
    got = cup(i, a, b)
    assert got == act_reference(cup_surjections(i), (a, b), a.ambient, a.dim + b.dim - i)
    assert got == cup_i_reference(i, a, b)
    return got


def check_witness(i: int, a: Cochain, b: Cochain) -> Cochain:
    """cartan_coboundary(i, a, b) after checking it against the reference loop."""
    got = cartan_coboundary(i, a, b)
    dim = 2 * a.dim + 2 * b.dim - i - 1
    assert got.dim == dim
    assert got == act_reference(witness_surjections(i), (a, a, b, b), a.ambient, dim)
    return got


@settings(deadline=None, max_examples=60)
@given(cochains())
def test_delta_matches_the_face_parity_reference(a):
    assert delta(a) == delta_reference(a)


@st.composite
def delta_sequences(draw):
    """Cochains for one run of delta: ambients 0..12, dims -1..n, zero, sparse or dense.

    Every nonzero cochain comes back later as a subset of its support
    with fresh faces added, and the whole list is shuffled, so faces
    repeat (memo hits after misses) and (ambient, dim) keys interleave.
    """
    rng = draw(st.randoms(use_true_random=False))
    seq = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, 12))
        dim = draw(st.integers(-1, n))
        a = make_cochain(rng, n, dim, draw(st.sampled_from(KINDS)))
        seq.append(a)
        if a.support:
            kept = rng.sample(sorted(a.support), rng.randint(1, len(a.support)))
            fresh = make_cochain(rng, n, dim, "sparse").support
            seq.append(Cochain(n, dim, set(kept) ^ fresh))
    rng.shuffle(seq)
    return seq


@settings(deadline=None, max_examples=60)
@given(delta_sequences())
def test_delta_matches_the_reference_along_a_sequence(seq):
    for a in seq:
        assert delta(a) == delta_reference(a)


def test_delta_memo_fills_on_first_use():
    # one mask per support face met and at most n - d cofaces handed a bit each, not a
    # whole (16, d) table; a coface is decoded into its tuple only if delta returns it
    _clear_memos()
    rng = random.Random(5)
    n = 16
    for d in (0, 4, 8, 15):
        a = make_cochain(rng, n, d, "sparse")
        da = delta(a)
        assert da == delta_reference(a) and not da.is_zero
        masks, cofaces, faces = cartan.cochains._COFACES[n, d]
        assert len(masks) == len(a.support)
        assert len(cofaces) <= len(a.support) * (n - d)
        assert set(faces.values()) == da.support
        # a cocycle decodes nothing
        assert delta(da).is_zero and not cartan.cochains._COFACES[n, d + 1][2]


def test_delta_of_zero_adds_no_memo_key():
    # an out-of-range defect takes delta of a zero witness of negative dimension; that
    # must not leave an (ambient, dim) key behind for every index it is called with
    _clear_memos()
    a = delta(Cochain(2, 0, [(0,)]))
    delta(a)
    keys = set(cartan.cochains._COFACES)
    for i in range(10**6, 10**6 + 3):
        assert cartan_defect(i, a, a) == Cochain(2, 4 - i)
    assert set(cartan.cochains._COFACES) == keys


@settings(deadline=None, max_examples=30)
@given(st.integers(10, 12), st.data())
def test_delta_squares_to_zero_on_large_simplices(n, data):
    dim = data.draw(st.integers(-1, n))
    rng = data.draw(st.randoms(use_true_random=False))
    a = make_cochain(rng, n, dim, data.draw(st.sampled_from(KINDS)))
    da = delta(a)
    assert da.dim == dim + 1 and da.ambient == n
    assert delta(da).is_zero


@settings(deadline=None, max_examples=60)
@given(windowed(doubled=False))
def test_cup_matches_the_reference(iab):
    check_cup(*iab)


def test_cup_comparison_is_not_vacuous():
    # every shape on the 7-simplex with an output face; each 1 <= i <= 5 must meet a nonzero cup
    rng = random.Random(3)
    nonzero = dict.fromkeys(range(1, 6), 0)
    for i in nonzero:
        for da in range(8):
            for db in range(8):
                if not 0 <= da + db - i <= 7:
                    continue
                for kind in ("sparse", "dense", "dense"):
                    a = make_cochain(rng, 7, da, kind)
                    b = make_cochain(rng, 7, db, "dense")
                    nonzero[i] += not check_cup(i, a, b).is_zero
    assert all(nonzero.values()), str(nonzero)


@settings(deadline=None, max_examples=100)
@given(pairs(), st.data())
def test_cup_matches_the_closed_formula_for_every_index(ab, data):
    a, b = ab
    i = data.draw(st.integers(0, a.dim + b.dim))
    assert cup(i, a, b) == cup_i_reference(i, a, b)


def test_squares_of_sparse_coboundaries_match_the_closed_formula():
    # the squares-sparse benchmark's shape, past the n <= 8 of the tests above: every
    # Sq^k of the coboundary of three random faces on the 10-, 11- and 12-simplex, and
    # past the benchmark's simplices up to the CLI's ambient cap of 16
    rng = random.Random(4)
    for n, dims in ((10, (2, 4)), (11, (1, 3)), (12, (2, 3)), (14, (2, 3)), (16, (2, 3))):
        for d in dims:
            a = delta(Cochain(n, d - 1, rng.sample(faces_of_dim(n, d - 1), 3)))
            squares = [steenrod_square(k, a) for k in range(d + 1)]
            assert squares == [cup_i_reference(d - k, a, a) for k in range(d + 1)]
            assert sum(not sq.is_zero for sq in squares) >= 2


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5), cochains())
def test_steenrod_square_matches_the_reference(k, a):
    got = steenrod_square(k, a)
    assert got.dim == a.dim + k
    if k <= a.dim:
        assert got == act_reference(cup_surjections(a.dim - k), (a, a), a.ambient, a.dim + k)
    else:
        assert got.is_zero


@settings(deadline=None, max_examples=60)
@given(windowed(doubled=True))
def test_cartan_coboundary_matches_the_reference(iab):
    check_witness(*iab)


def test_witness_comparison_is_not_vacuous():
    # every shape on the 8-simplex with dims <= 4; each i <= 5 must meet a nonzero witness
    rng = random.Random(2)
    nonzero = dict.fromkeys(range(6), 0)
    for i in range(6):
        for da in range(5):
            for db in range(5):
                if not 0 <= 2 * da + 2 * db - i - 1 <= 8:
                    continue
                for kind in ("sparse",) + ("dense",) * 19:
                    a = make_cochain(rng, 8, da, kind)
                    b = make_cochain(rng, 8, db, "dense")
                    nonzero[i] += not check_witness(i, a, b).is_zero
    assert all(nonzero.values()), str(nonzero)


def copy(c: Cochain) -> Cochain:
    """An equal cochain that is a distinct object."""
    return Cochain(c.ambient, c.dim, c.support)


@settings(deadline=None, max_examples=60)
@given(windowed(doubled=True))
def test_one_object_in_several_slots_acts_as_equal_copies(iab):
    # the evaluator shares the tests of slots that hold one object; equal but
    # distinct copies share nothing, so both must give the same cochain
    i, a, b = iab
    assert cup(i, a, a) == cup(i, a, copy(a))
    dim = 2 * a.dim + 2 * b.dim - i - 1
    assert cartan_coboundary(i, a, b) == _act_cochain(
        witness_surjections, i, _operands((a, copy(a), b, copy(b))), dim)
    assert cartan_coboundary(i, a, a) == _act_cochain(
        witness_surjections, i, _operands((a, copy(a), copy(a), copy(a))), 4 * a.dim - i - 1)
    for words in (square_surjections, squared_product_surjections):
        assert _act_cochain(words, i, _operands((a, a, b, b)), dim + 1) == _act_cochain(
            words, i, _operands((a, copy(a), b, copy(b))), dim + 1)


def test_plans_with_one_set_of_tests_cancel():
    # on (a, a, a, a) with dim a = i = d, a plan of each of two square words tests a
    # on positions (0..d), (d..2d), (2d..3d); the pair cancels, so a shared end that
    # counted once would leave a nonzero defect; these cocycles pass all three tests
    # on the face (0, 1, ..., 3d)
    for g in (Cochain(4, 0, [(0,), (2,), (4,)]), Cochain(6, 1, [(0, 1), (2, 3), (4, 5)])):
        a = delta(g)
        d = a.dim
        top = tuple(range(3 * d + 1))
        assert all(top[k * d:(k + 1) * d + 1] in a.support for k in range(3))
        squares = _act_cochain(square_surjections, d, _operands((a, a, a, a)), 3 * d)
        assert squares == squares_reference(d, a, a)
        assert cartan_defect(d, a, a).is_zero


@st.composite
def square_inputs(draw):
    """(i, a, b) with n <= 8 and i <= 5, mostly with a defect that can be nonzero.

    The j-th term needs j <= dim a and i - j <= dim b, and the defect
    dimension 2 dim a + 2 dim b - i must lie in [0, n], so i is drawn
    from that window, or one past its top.  The cochains are zero,
    sparse or dense, dense twice as often, each either drawn as it
    comes or made a cocycle: the coboundary of such a cochain, or
    `ones` in dimension 0.
    """
    n = draw(st.integers(0, 8))
    da = draw(st.integers(0, (n + 1) // 2))
    db = draw(st.integers(0, min(n - da, (n + 1) // 2)))
    s = da + db
    i = draw(st.integers(min(5, max(0, 2 * s - n)), min(5, s + 1)))
    rng = draw(st.randoms(use_true_random=False))

    def operand(dim):
        kind = draw(st.sampled_from(KINDS + ("dense",)))
        if not draw(st.booleans()):
            return make_cochain(rng, n, dim, kind)
        if dim == 0:
            return Cochain(n, 0) if kind == "zero" else ones(n)
        return delta(make_cochain(rng, n, dim - 1, kind))

    return i, operand(da), operand(db)


@settings(deadline=None, max_examples=200)
@given(square_inputs())
def test_product_of_squares_matches_the_literal_sum(iab):
    i, a, b = iab
    got = _act_cochain(square_surjections, i, _operands((a, a, b, b)),
                       2 * a.dim + 2 * b.dim - i)
    assert got == squares_reference(i, a, b)


def test_zero_input_scans_no_face(monkeypatch):
    # the action is multilinear: a zero operand returns before any face is listed
    def no_faces(n, m):
        raise AssertionError("faces listed for a zero operand")

    monkeypatch.setattr(cartan.cochains, "faces_of_dim", no_faces)
    monkeypatch.setattr(cartan.cochains, "_FACES",
                        cartan.cochains._Memo(lambda key: no_faces(*key)))
    a = Cochain(6, 1, [(0, 1), (1, 2), (2, 5)])
    zero = Cochain(6, 1)
    for i in range(3):
        for x, y in ((a, zero), (zero, a), (zero, zero)):
            assert cup(i, x, y) == Cochain(6, 2 - i)
            assert cartan_coboundary(i, x, y) == Cochain(6, 3 - i)
            assert _act_cochain(square_surjections, i, _operands((x, x, y, y)), 4 - i) == (
                Cochain(6, 4 - i))


def act(words, i: int, xs: tuple, dim: int) -> Cochain:
    """`words(i)` acting on the cochains xs through the one action entry."""
    return _act_cochain(words, i, _operands(xs), dim)


def check_listings(monkeypatch) -> Counter:
    """Check each seeded root and each joined kid against a filter of every m-face.

    Wraps `_seed_plan`, `_seeded_faces`, `_join_plan` and `_joined_faces`
    so that each seeded root must list, once each, exactly the m-faces its
    test keeps, and each joined kid exactly the m-faces that both its test
    and its root's keep.  The memos are emptied first, so every schedule is
    built through the wrappers.  The counter returned counts the seeded
    roots, the joined kids and the faces they keep.
    """
    roots = Counter()
    seed_plan, seeded_faces = cartan.cochains._seed_plan, cartan.cochains._seeded_faces
    join_plan, joined_faces = cartan.cochains._join_plan, cartan.cochains._joined_faces
    # (positions, m) of each seed plan and (positions, kid, m) of each join plan built
    # through the wrappers, by the plan's id
    planned = {}

    def plan(positions, m):
        made = seed_plan(positions, m)
        planned[id(made)] = positions, m
        return made

    def listed(made, support, n):
        positions, m = planned[id(made)]
        faces = seeded_faces(made, support, n)
        assert sorted(faces) == [f for f in faces_of_dim(n, m)
                                 if tuple(f[p] for p in positions) in support]
        roots["seeded"] += 1
        return faces

    def join(positions, kid, m, getters):
        made = join_plan(positions, kid, m, getters)
        planned[id(made)] = positions, kid, m
        return made

    def joined(made, support, keys, index):
        positions, kid, m = planned[id(made)]
        assert keys == list(map(made[0], support))
        kid_support = set(chain.from_iterable(index.values()))
        faces = joined_faces(made, support, keys, index)
        # every vertex of a joined m-face is a vertex of one of the two supports
        top = max(chain.from_iterable(chain(support, kid_support)))
        assert sorted(faces) == [f for f in faces_of_dim(top, m)
                                 if tuple(f[p] for p in positions) in support
                                 and tuple(f[q] for q in kid) in kid_support]
        roots["joined"] += 1
        roots["joined faces"] += len(faces)
        return faces

    _clear_memos()
    monkeypatch.setattr(cartan.cochains, "_seed_plan", plan)
    monkeypatch.setattr(cartan.cochains, "_seeded_faces", listed)
    monkeypatch.setattr(cartan.cochains, "_join_plan", join)
    monkeypatch.setattr(cartan.cochains, "_joined_faces", joined)
    return roots


def match_the_scan(monkeypatch, calls: list, roots: Counter) -> tuple:
    """Each call as shipped, with every operand seeded and with none, which must agree.

    Returns the shipped results and the counts of `check_listings` in the
    shipped run; the run with none seeds no root and joins no kid.
    """
    def run():
        return [f(*args) for f, args in calls]

    shipped = run()
    counts = roots.copy()
    with monkeypatch.context() as m:
        m.setattr(cartan.cochains, "_seeds", lambda c: c.support)
        every = run()
    with monkeypatch.context() as m:
        m.setattr(cartan.cochains, "_seeds", lambda c: None)
        before = roots.copy()
        scanned = run()
        assert roots == before
    for call, x, y, z in zip(calls, shipped, every, scanned):
        assert x == y == z, call
    return shipped, counts


def test_seeded_roots_match_the_scan(monkeypatch):
    # each action as shipped, with every operand seeded and with none: arity-1, arity-2
    # and arity-4 words, dimension-0 supports, support faces on vertex 0 and on vertex n
    # (an empty first or last gap), the inner gap of a in the word 1 2 1, a sparse operand
    # next to a dense one, and one object in several slots next to equal copies of it;
    # each seeded root must list, once each, exactly the m-faces its test keeps, and each
    # joined kid exactly the m-faces that both its test and its root's keep
    roots = check_listings(monkeypatch)
    rng = random.Random(22)
    n = 9

    def sparse(dim):
        """Faces on vertex 0 and on vertex n and one more; a dimension-0 one holds one vertex."""
        if dim == 0:
            return Cochain(n, 0, [(rng.choice((0, n)),)])
        middle = tuple(sorted(rng.sample(range(1, n), dim + 1)))
        return Cochain(n, dim, [tuple(range(dim + 1)), middle, tuple(range(n - dim, n + 1))])

    calls = []
    for da, db in product(range(4), repeat=2):
        for a, b in ((sparse(da), sparse(db)), (sparse(da), make_cochain(rng, n, db, "dense")),
                     (make_cochain(rng, n, da, "dense"), sparse(db))):
            calls += [(cup, (i, a, b)) for i in range(da + db + 1)]
            calls += [(steenrod_square, (k, a)) for k in range(da + 1)]
            calls.append((act_word, ((1,), (a,), da)))
            if da + db <= 4:
                for i in range(3):
                    calls.append((cartan_coboundary, (i, a, b)))
                    for words in (_defect_surjections, square_surjections):
                        dim = 2 * da + 2 * db - i
                        calls.append((act, (words, i, (a, a, b, b), dim)))
                        calls.append((act, (words, i, (a, copy(a), b, copy(b)), dim)))
    for d in (1, 2, 3):
        a = delta(Cochain(n, d - 1, rng.sample(faces_of_dim(n, d - 1), 3)))
        calls += [(cartan_defect, (i, a, a)) for i in range(2 * d)]

    shipped, counts = match_the_scan(monkeypatch, calls, roots)
    seeded, joined, kept = counts["seeded"], counts["joined"], counts["joined faces"]
    nonzero = sum(not c.is_zero for c in shipped)
    assert seeded > 350 and joined > 150 and kept > 80 and nonzero > 200, (
        seeded, joined, kept, nonzero)


def test_operands_between_one_in_eight_and_one_in_four_are_seeded(monkeypatch):
    # the band that the sparse rule seeds at one in four and scanned at one in eight:
    # operands at n = 9..12 whose supports hold between 1/8 and 1/4 of the faces of their
    # dimension, in cups, squares and the arity-4 words on (a, a, b, b); each seeded root
    # and each joined kid is checked against a filter of every m-face, and each result
    # against the scan and against seeding every operand
    roots = check_listings(monkeypatch)
    rng = random.Random(32)

    def band(n, dim):
        """A random cochain whose support holds between 1/8 and 1/4 of the dim-faces."""
        faces = faces_of_dim(n, dim)
        size = rng.randint(-(-len(faces) // 8), (len(faces) - 1) // 4)
        c = Cochain(n, dim, rng.sample(faces, size))
        assert 1 / 8 <= size / len(faces) < 1 / 4 and _seeds(c) is c.support
        return c

    calls = []
    for n in range(9, 13):
        for da, db in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
            a, b = band(n, da), band(n, db)
            calls += [(cup, (i, a, b)) for i in range(da + db + 1)]
            calls += [(steenrod_square, (k, a)) for k in range(da + 1)]
            if da + db <= 3:
                for i in range(2):
                    calls.append((cartan_coboundary, (i, a, b)))
                    for words in (_defect_surjections, square_surjections):
                        calls.append((act, (words, i, (a, a, b, b), 2 * da + 2 * db - i)))

    shipped, counts = match_the_scan(monkeypatch, calls, roots)
    seeded, joined, kept = counts["seeded"], counts["joined"], counts["joined faces"]
    nonzero = sum(not c.is_zero for c in shipped)
    assert seeded > 60 and joined > 100 and kept > 1500 and nonzero > 100, (
        seeded, joined, kept, nonzero)


@st.composite
def seed_cases(draw):
    """(positions, m, n, support) of a seeded root: n <= 12, up to 12 support faces.

    Half the time the positions are consecutive, so that plans with no
    gap (m = dim) and plans with gaps only at the ends come up often.
    """
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, n))
    if draw(st.booleans()):
        first = draw(st.integers(0, m))
        positions = tuple(range(first, draw(st.integers(first, m)) + 1))
    else:
        positions = tuple(sorted(draw(st.sets(st.integers(0, m), min_size=1))))
    faces = faces_of_dim(n, len(positions) - 1)
    support = draw(st.sets(st.sampled_from(faces), min_size=1, max_size=12))
    return positions, m, n, frozenset(support)


def test_seeded_faces_match_a_brute_force_filter():
    # the compiled lister against a filter of every m-face: each m-face whose vertices at
    # the positions form a support face is listed exactly once, and nothing else is; the
    # plans have 0 to 3 or more gaps with places, at either end or inside, and many support
    # faces have a gap narrower than its places
    seen = Counter()

    @settings(deadline=None, max_examples=1500)
    @given(seed_cases())
    def check(case):
        positions, m, n, support = case
        plan = _seed_plan(positions, m)
        faces = list(_seeded_faces(plan, support, n))
        kept = [f for f in faces_of_dim(n, m) if tuple(f[p] for p in positions) in support]
        assert sorted(faces) == kept, case
        # (j, places) of each gap with places: gap j lies between the (j - 1)-th and the
        # j-th position, or an end of the m-face, and takes vertices between the same
        # vertices of a support face s, or an end of the simplex
        gaps = [(j, q - p - 1) for j, (p, q) in
                enumerate(zip((-1,) + positions, positions + (m + 1,))) if q - p - 1]
        narrow = [s for s in support
                  if any((s + (n + 1,))[j] - ((-1,) + s)[j] - 1 < k for j, k in gaps)]
        seen[min(len(gaps), 3), "gaps"] += 1
        seen["first gap"] += positions[0] > 0
        seen["last gap"] += positions[-1] < m
        seen["narrow faces"] += len(narrow)
        seen["all narrow"] += len(narrow) == len(support)
        seen["nonempty"] += bool(faces)
        seen["several gaps, nonempty"] += len(gaps) >= 2 and bool(faces)

    check()
    floors = {(0, "gaps"): 200, (1, "gaps"): 300, (2, "gaps"): 150, (3, "gaps"): 20,
              "first gap": 300, "last gap": 250, "narrow faces": 1500, "all narrow": 150,
              "nonempty": 500, "several gaps, nonempty": 80}
    assert all(seen[key] >= floor for key, floor in floors.items()), seen


@st.composite
def join_cases(draw):
    """(positions, kid, m, n, support, kid support) of a root and a kid that cover 0..m.

    Half the time they are the two blocks of cup_0, which share one
    vertex.  Otherwise the kid holds every position the root leaves and
    any of the root's.  Each support holds up to 6 random faces and the
    two projections of up to 6 random m-faces, some of them on vertex 0
    or on vertex n, so that many pairs of faces agree where they overlap.
    """
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, n))
    if draw(st.booleans()):
        cut = draw(st.integers(0, m))
        positions, kid = tuple(range(cut + 1)), tuple(range(cut, m + 1))
    else:
        positions = tuple(sorted(draw(st.sets(st.integers(0, m), min_size=1))))
        extra = draw(st.sets(st.sampled_from(positions), min_size=len(positions) == m + 1))
        kid = tuple(sorted(set(range(m + 1)).difference(positions) | extra))
    rng = draw(st.randoms(use_true_random=False))
    tops = faces_of_dim(n, m)
    ends = [f for f in tops if f[0] == 0 or f[-1] == n]
    picked = [rng.choice(ends) for _ in range(draw(st.integers(0, 3)))]
    picked += rng.sample(tops, min(len(tops), draw(st.integers(0, 3))))

    def support(at):
        faces = faces_of_dim(n, len(at) - 1)
        noise = rng.sample(faces, min(len(faces), draw(st.integers(0, 6))))
        return frozenset(noise + [tuple(f[p] for p in at) for f in picked])

    return positions, kid, m, n, support(positions), support(kid)


class Unprobed(dict):
    """A kid index that fails the test when a key is looked up in it, as a probe would."""

    def get(self, key, default=None):
        raise AssertionError(f"probed a disjoint join at {key}")

    __getitem__ = __contains__ = get


def test_joined_faces_match_a_brute_force_filter():
    # the hash join against a filter of every m-face, called as an action calls it, with
    # the root's key list and the kid's index prepared: each m-face whose vertices at the
    # root's positions form a face of its support and whose vertices at the kid's form one
    # of the kid's is listed exactly once, and nothing else is; the cases include cup_0's
    # one shared vertex, kids that share no position, pairs whose interleaving breaks the
    # strict order (crossings), and disjoint joins, whose keys miss the index entirely and
    # which must return [] without a probe
    seen = Counter()

    @settings(deadline=None, max_examples=800)
    @given(join_cases())
    def check(case):
        positions, kid, m, n, support, kid_support = case
        join = _join_plan(positions, kid, m, _Memo(_getter))
        keys = list(map(join[0], support))
        index = _index(list(map(join[1], kid_support)), kid_support)
        assert sorted(chain.from_iterable(index.values())) == sorted(kid_support)
        disjoint = index.keys().isdisjoint(keys)
        faces = _joined_faces(join, support, keys, Unprobed(index) if disjoint else index)
        kept = [f for f in faces_of_dim(n, m) if tuple(f[p] for p in positions) in support
                and tuple(f[q] for q in kid) in kid_support]
        assert sorted(faces) == kept, case
        shared = set(positions) & set(kid)
        seen["cup_0"] += len(shared) == 1 and positions[-1] == kid[0]
        seen["no shared vertex"] += not shared
        seen["crossings"] += bool(join[3])
        seen["crossings, nonempty"] += bool(join[3]) and bool(faces)
        seen["vertex 0"] += any(f[0] == 0 for f in faces)
        seen["vertex n"] += any(f[-1] == n for f in faces)
        seen["nonempty"] += bool(faces)
        seen["disjoint"] += disjoint

    check()
    # a root and a kid that leave a position uncovered have no join
    assert _join_plan((0, 2), (0, 1), 3, _Memo(_getter)) is None
    floors = {"cup_0": 250, "no shared vertex": 30, "crossings": 50, "crossings, nonempty": 25,
              "vertex 0": 250, "vertex n": 200, "nonempty": 300, "disjoint": 100}
    assert all(seen[key] >= floor for key, floor in floors.items()), seen


def test_a_square_indexes_each_kid_once(monkeypatch):
    # the joins of one call share their kid indexes: one steenrod_square call builds at
    # most one index per (kid slot, kid getter), however many of its joins read it, and
    # the joins of at least some calls outnumber their indexes; a call builds one key list
    # per (slot, getter) and keeps it, so the identity of the key list stands for the pair
    index, joined_faces = cartan.cochains._index, cartan.cochains._joined_faces
    built, joins = Counter(), Counter()

    def counted(keys, support):
        built[id(keys), id(support)] += 1
        return index(keys, support)

    def joined(join, support, keys, kid_index):
        joins["joins"] += 1
        return joined_faces(join, support, keys, kid_index)

    monkeypatch.setattr(cartan.cochains, "_index", counted)
    monkeypatch.setattr(cartan.cochains, "_joined_faces", joined)
    rng = random.Random(31)
    shared = 0
    for n, d in product((10, 12), (2, 3, 4)):
        a = delta(Cochain(n, d - 1, rng.sample(faces_of_dim(n, d - 1), 3)))
        for k in range(d + 1):
            built.clear()
            joins.clear()
            assert steenrod_square(k, a) == cup_i_reference(d - k, a, a)
            assert all(count == 1 for count in built.values()), (n, d, k, built)
            shared += joins["joins"] > len(built)
    assert shared >= 5, shared


def test_squares_of_sparse_cochains_list_no_m_face(monkeypatch):
    # every root of a square of a sparse cochain starts from its support, so no list of
    # all the m-faces is built: the property that keeps squares-sparse's memory small
    def no_faces(key):
        raise AssertionError(f"m-faces listed: {key}")

    monkeypatch.setattr(cartan.cochains, "_FACES", cartan.cochains._Memo(no_faces))
    rng = random.Random(12)
    nonzero = 0
    for d in (2, 3, 4):
        for _ in range(2):
            a = delta(Cochain(12, d - 1, rng.sample(faces_of_dim(12, d - 1), 3)))
            for k in range(d + 1):
                sq = steenrod_square(k, a)
                assert sq == cup_i_reference(d - k, a, a)
                nonzero += not sq.is_zero
    assert nonzero > 12, nonzero


def test_cut_plans_match_the_brute_force_cuts():
    # every word of the witness, squared-product, square and cup families for small i, at
    # every dimension vector up to a bound, on the one m whose cuts can fit and its neighbours
    families = [(witness_surjections, 4, 4, 2), (squared_product_surjections, 4, 4, 2),
                (square_surjections, 4, 4, 2), (cup_surjections, 2, 6, 4)]
    nonempty = 0
    for words, r, max_i, max_dim in families:
        for i in range(max_i + 1):
            for s in words(i):
                for dims in product(range(max_dim + 1), repeat=r):
                    fit = sum(dims) + r - len(s)
                    for m in range(max(0, fit - 1), fit + 2):
                        plans = _cut_plans(s, dims, m)
                        assert list(plans) == brute_cut_plans(s, dims, m), (s, dims, m)
                        nonempty += bool(plans)
    assert nonempty > 100


def test_schedules_live_as_long_as_the_cut_plans(monkeypatch):
    # a schedule is built from the cut plans, so emptying their cache rebuilds it
    # and so are the face lists the schedules filter
    schedules, faces = cartan.cochains._SCHEDULES, cartan.cochains._FACES
    built = Counter()
    fill = schedules.fill
    monkeypatch.setattr(schedules, "fill", lambda key: built.update([key[0]]) or fill(key))
    rng = random.Random(8)
    a, b = (make_cochain(rng, 6, 2, "dense") for _ in range(2))
    _cut_plans.cache_clear()
    expected = cup(1, a, b)
    first, = schedules.values()
    listed, = faces.values()
    assert listed == faces_of_dim(6, 3)
    assert cup(1, a, b) == expected and _cut_plans.cache_info().misses == 1
    assert next(iter(schedules.values())) is first
    assert next(iter(faces.values())) is listed
    _cut_plans.cache_clear()
    assert cup(1, a, b) == expected and _cut_plans.cache_info().misses == 1
    rebuilt, = schedules.values()
    assert rebuilt is not first
    relisted, = faces.values()
    assert relisted is not listed
    assert built == {cup_surjections: 2}
    # one defect call prepares its operands once for both of its actions: after the
    # cut plans are emptied it compiles the witness and the defect words once each
    x, y = (delta(make_cochain(rng, 6, 0, "dense")) for _ in range(2))
    for rounds in (1, 2):
        _cut_plans.cache_clear()
        for _ in range(2):
            assert cartan_defect(0, x, y).is_zero
        assert built == {cup_surjections: 2, witness_surjections: rounds,
                         _defect_surjections: rounds}
        assert len(schedules) == 2 and set(faces) == {(6, 3), (6, 4)}


def test_clear_memos_empties_every_memo(monkeypatch):
    # one clear leaves all seven memos empty, so the next defect compiles each of its two
    # schedules once, however warm the memos were
    lru = (_cut_plans, cup_surjections, witness_surjections, _defect_surjections)
    memos = (cartan.cochains._SCHEDULES, cartan.cochains._FACES, cartan.cochains._COFACES)
    built = Counter()
    fill = cartan.cochains._SCHEDULES.fill
    monkeypatch.setattr(cartan.cochains._SCHEDULES, "fill",
                        lambda key: built.update([key[0]]) or fill(key))
    rng = random.Random(9)
    x, y = (delta(make_cochain(rng, 6, 0, "dense")) for _ in range(2))
    assert cup(1, x, y) == cup_i_reference(1, x, y) and cartan_defect(0, x, y).is_zero
    assert all(f.cache_info().currsize for f in lru) and all(memos)
    _clear_memos()
    assert not any(f.cache_info().currsize for f in lru) and not any(memos)
    built.clear()
    for _ in range(2):
        assert cartan_defect(0, x, y).is_zero
    assert built == {witness_surjections: 1, _defect_surjections: 1}


def test_shared_operands_match_the_literal_defect_at_the_edges():
    # the operand bundle of (a, a, b, b) against the literal defect where it is special:
    # one object in all four slots, a zero cocycle, a witness of dimension -1 (so no
    # witness action), and a defect above the simplex
    rng = random.Random(21)
    n = 4
    a, b = (delta(make_cochain(rng, n, d - 1, "dense")) for d in (1, 2))
    zero = Cochain(n, 1)
    cases = [(i, a, a) for i in range(5)]
    cases += [(i, x, y) for i in range(3) for x, y in ((a, zero), (zero, b), (zero, zero))]
    cases += [(2 * a.dim + 2 * b.dim, a, b), (4 * a.dim, a, a)]
    cases += [(i, a, b) for i in (0, 1)]
    for i, x, y in cases:
        got = cartan_defect(i, x, y)
        assert got == defect_reference(i, x, y), (i, x, y)
        assert got.is_zero and got.dim == 2 * x.dim + 2 * y.dim - i
    assert not cartan_coboundary(0, a, a).is_zero


def tree_tests(nodes: tuple, top: tuple):
    """(slot, positions) of every node, parents first: each getter applied to the face
    (0, 1, ..., m) returns its positions."""
    for slot, get, _, kids in nodes:
        yield slot, get(top)
        yield from tree_tests(kids, top)


def end_sets(nodes: tuple, top: tuple, path: frozenset = frozenset()):
    """The tests on the path to each node marked as an end, one set per such node."""
    for slot, get, ends, kids in nodes:
        here = path | {(slot, get(top))}
        if ends:
            yield here
        yield from end_sets(kids, top, here)


def lexicographic_nodes(sets) -> int:
    """Nodes of the prefix tree of the sets' sorted tests: one per distinct prefix."""
    return len({tuple(sorted(t))[:k] for t in sets for k in range(1, len(t) + 1)})


def action_shapes():
    """(words, i, dims, slots, m) of every witness and defect action with i <= 5, dims <= 3.

    The slots are those of (a, a, b, b), and of (a, a, a, a) when the
    dimensions agree.
    """
    for words, shift in ((witness_surjections, -1), (_defect_surjections, 0)):
        for i, p, q in product(range(6), range(4), range(4)):
            m = 2 * p + 2 * q - i + shift
            for slots in ((0, 0, 2, 2),) + (((0, 0, 0, 0),) if p == q else ()):
                if m >= 0:
                    yield words, i, (p, p, q, q), slots, m


def test_schedules_end_once_per_odd_set_and_share_first():
    # each set of tests met an odd number of times ends at exactly one node, the
    # shared-first tree never has more nodes than the prefix tree of sorted tests, and
    # every getter, of one position too, returns a tuple of its slot's dimension + 1
    # positions
    shapes = smaller = 0
    for key in action_shapes():
        words, i, dims, slots, m = key
        odd = odd_terms(frozenset(zip(slots, plan))
                        for s in words(i) for plan in _cut_plans(s, dims, m))
        tree, top = tuple(root for root, *_ in _schedule(key)), tuple(range(m + 1))
        tests = list(tree_tests(tree, top))
        for slot, positions in tests:
            assert type(positions) is tuple and len(positions) == dims[slot] + 1, (key, slot)
        ends = Counter(end_sets(tree, top))
        assert set(ends) == odd and set(ends.values()) <= {1}, key
        nodes, lexicographic = len(tests), lexicographic_nodes(odd)
        assert nodes <= lexicographic, (key, nodes, lexicographic)
        shapes += bool(odd)
        smaller += nodes < lexicographic
    assert shapes > 80 and smaller > 60, (shapes, smaller)


def test_reordered_schedules_match_the_references_on_dense_coboundaries():
    # every cartan-warm cell at n = 8 and 9 with i <= 5: the witness against the reference
    # loop, the defect's one action against the squared product by the closed cup-i formula
    # plus the literal product of squares, and the defect against the literal defect
    rng = random.Random(18)
    witnesses = nonzero = 0
    for n, i in product((8, 9), range(6)):
        for p, q in product(range(1, n + 1), repeat=2):
            dim = 2 * (p + q) - i
            if not 1 <= dim <= n:
                continue
            a, b = (delta(make_cochain(rng, n, d - 1, "dense")) for d in (p, q))
            witness = check_witness(i, a, b)
            words = _act_cochain(_defect_surjections, i, _operands((a, a, b, b)), dim)
            ab = cup_i_reference(0, a, b)
            assert words == cup_i_reference(i, ab, ab) + squares_reference(i, a, b)
            assert cartan_defect(i, a, b) == defect_reference(i, a, b) == delta(witness) + words
            witnesses += not witness.is_zero
            nonzero += not words.is_zero
    assert witnesses > 30 and nonzero > 20, (witnesses, nonzero)
