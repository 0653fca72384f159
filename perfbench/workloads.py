"""The benchmark workloads: seeded inputs, ops, output checks, traced ops.

BENCHMARK.json lists all but `cli-cold`, which is run by hand (see README.md).

Each workload is a closed loop with one client in one process.  An op
is the unit timed for latency.  `run(k)` is the untraced op; `traced(k,
tr)` makes the same library calls one by one, each inside a span;
`check(k, out)` decides, outside the timed region, whether the op's
output is right.  `prepare(k)` runs untimed before every op.

Only library functions that the library itself uses are called, and
every input comes from the workload's own seeded generator.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations_with_replacement, permutations
from math import comb
from operator import add

from cartan import cli
from cartan.barratt_eccles import (MID_SWAP4, SWAP2, cartan_homotopy,
                                   compose_perm, cup_generator, diag_embed,
                                   diagonal_homotopy, embedding_homotopy,
                                   nerve_map, outer_embed, product_of_squares,
                                   sigma_act, squared_product)
from cartan.cochains import (Cochain, _cut_plans, cartan_coboundary,
                             cartan_defect, cup, cup_surjections, delta,
                             steenrod_square, witness_surjections)
from cartan.f2 import F2Sum, singleton
from cartan.simplicial import aw, boundary, ez, faces_of_dim, is_degenerate, product, shih
from cartan.surjection import surj_act, surj_boundary, table_reduction


class PlanCache:
    """Clears the library's caches, keeping the cut-plan hit and miss counts."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        info = _cut_plans.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        witness_surjections.cache_clear()
        cup_surjections.cache_clear()
        _cut_plans.cache_clear()

    def reset(self) -> None:
        """Empty the caches and start counting from zero."""
        self.clear()
        self.hits = self.misses = 0

    def uncounted(self, fn, *args):
        """Call fn without its cut-plan lookups entering the counts."""
        before = _cut_plans.cache_info()
        try:
            return fn(*args)
        finally:
            after = _cut_plans.cache_info()
            self.hits -= after.hits - before.hits
            self.misses -= after.misses - before.misses

    def totals(self) -> tuple[int, int]:
        info = _cut_plans.cache_info()
        return self.hits + info.hits, self.misses + info.misses


def random_coboundary(rng: random.Random, n: int, dim: int) -> Cochain:
    """delta of a random (dim - 1)-cochain on the n-simplex, each face kept with probability 1/2."""
    g = Cochain(n, dim - 1, [f for f in faces_of_dim(n, dim - 1) if rng.getrandbits(1)])
    return delta(g)


# --- cochain-level calls, recorded with the shape that sets their cost ---

def traced_cochain(tr, name, fn, *args):
    """Span a cochains call and note (surjections, dims, n, out dim) for the computed counts."""
    out = tr.call(name, fn, *args)
    if name == "cochains.cup":
        i, a, b = args
        tr.shapes[("cup", i, (a.dim, b.dim), a.ambient, a.dim + b.dim - i)] += 1
    elif name == "cochains.steenrod_square":
        k, a = args
        if k <= a.dim:
            tr.shapes[("cup", a.dim - k, (a.dim, a.dim), a.ambient, a.dim + k)] += 1
    elif name == "cochains.cartan_coboundary":
        i, a, b = args
        tr.shapes[("witness", i, (a.dim, a.dim, b.dim, b.dim), a.ambient,
                   2 * a.dim + 2 * b.dim - i - 1)] += 1
    return out


def surjection_counts(shapes) -> tuple[int, int]:
    """(face x surjection evaluations, cut plans they may walk) implied by the recorded shapes."""
    evaluations = plans = 0
    for (kind, i, dims, n, m), calls in shapes.items():
        surjs = cup_surjections(i) if kind == "cup" else witness_surjections(i)
        faces = comb(n + 1, m + 1) if 0 <= m <= n else 0
        evaluations += calls * faces * len(surjs)
        plans += calls * faces * sum(len(_cut_plans(s, dims, m)) for s in surjs)
    return evaluations, plans


def traced_defect(tr, i: int, a: Cochain, b: Cochain):
    """cartan_defect(i, a, b) as the sum of its parts, each part in its own span.

    Returns (defect, witness).
    """
    if not (traced_cochain(tr, "cochains.delta", delta, a).is_zero
            and traced_cochain(tr, "cochains.delta", delta, b).is_zero):
        raise ValueError("inputs must be cocycles")
    ab = traced_cochain(tr, "cochains.cup", cup, 0, a, b)
    witness = traced_cochain(tr, "cochains.cartan_coboundary", cartan_coboundary, i, a, b)
    out = traced_cochain(tr, "cochains.delta", delta, witness)
    out = tr.call("cochains.add", add, out, traced_cochain(tr, "cochains.cup", cup, i, ab, ab))
    for j in range(i + 1):
        x = traced_cochain(tr, "cochains.cup", cup, j, a, a)
        y = traced_cochain(tr, "cochains.cup", cup, i - j, b, b)
        out = tr.call("cochains.add", add, out, traced_cochain(tr, "cochains.cup", cup, 0, x, y))
    tr.count("witness_ops")
    tr.count("witness_nonzero", int(not witness.is_zero))
    return out, witness


def traced_table_reduction(tr, c: F2Sum) -> F2Sum:
    """table_reduction in a span, counting the compositions it reads and the terms it keeps."""
    out = tr.call("surjection.table_reduction", table_reduction, c)
    tr.count("table_reduction.rows", sum(comb(len(e) + len(e[0]) - 2, len(e) - 1) for e in c))
    tr.count("table_reduction.terms_out", len(out))
    return out


def traced_homotopy(tr, name: str, fn, c: F2Sum) -> F2Sum:
    out = tr.call(name, fn, c)
    tr.count("homotopy_terms", len(out))
    return out


def build_probe(tr, witness_indices, cup_indices, caches: PlanCache) -> list[tuple[str, bool]]:
    """Rebuild the workload's witness and cup surjections on cold caches, layer by layer.

    The witness goes through both Barratt-Eccles homotopies (with the
    Shih step of the diagonal one timed on its own) and table reduction.
    Returns, per index, whether the rebuild agrees with the library's.
    """
    agree = []
    for i in witness_indices:
        caches.clear()
        tr.op = f"build:witness:{i}"
        gen = cup_generator(i)
        e = singleton(gen)
        h1 = traced_homotopy(tr, "barratt_eccles.embedding_homotopy", embedding_homotopy, e)
        tr.call("simplicial.shih", shih, singleton(product(gen, gen)))
        h2 = traced_homotopy(tr, "barratt_eccles.diagonal_homotopy", diagonal_homotopy, e)
        surjs = traced_table_reduction(tr, tr.call("f2.add", add, h1, h2))
        agree.append((f"witness {i}", tuple(sorted(surjs)) == witness_surjections(i)))
    for i in cup_indices:
        caches.clear()
        tr.op = f"build:cup:{i}"
        surjs = traced_table_reduction(tr, singleton(cup_generator(i)))
        agree.append((f"cup {i}", tuple(sorted(surjs)) == cup_surjections(i)))
    caches.clear()
    return agree


class Workload:
    """Shared defaults: no per-op preparation, nothing to build or release."""

    name = ""
    witness_indices: tuple = ()
    cup_indices: tuple = ()

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.caches = PlanCache()
        self.ops: list = []

    def prepare(self, k: int) -> None:
        pass

    def setup_traced(self, tr) -> None:
        pass

    def vacuity(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# --- cli-cold ---

CLI_N = 6
CLI_I = range(8)
CLI_BOOT = "import sys; from cartan.cli import run; sys.argv[0] = 'cartan'; run()"


def cli_dims(i: int, n: int) -> list[tuple[int, int]]:
    """Cocycle dimensions whose witness (and defect) dimension lies in [0, n]."""
    return [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
            if 0 <= 2 * (p + q) - i - 1 and 2 * (p + q) - i <= n]


class CliCold(Workload):
    """One fresh interpreter per op, alternating `zeta` and `defect`, --i cycling 0..7."""

    name = "cli-cold"
    witness_indices = tuple(CLI_I)
    cup_indices = tuple(CLI_I)

    def __init__(self, seed: int, root: str):
        super().__init__(seed, root)
        out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("CARTAN_MAX_N", None)
        self.expected: list[bytes] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.ops = []
        for i in CLI_I:
            for command in ("zeta", "defect"):
                da, db = rng.choice(cli_dims(i, CLI_N))
                paths = []
                for name, dim in (("alpha", da), ("beta", db)):
                    path = os.path.join(self.tmp, f"{command}-{i}-{name}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(random_coboundary(rng, CLI_N, dim).to_dict(), fh)
                    paths.append(path)
                self.ops.append((command, i, paths[0], paths[1]))
        self.caches.clear()
        self.expected = []
        for command, i, pa, pb in self.ops:
            a, b = cli.load_cochain(pa, CLI_N), cli.load_cochain(pb, CLI_N)
            result = cartan_coboundary(i, a, b) if command == "zeta" else cartan_defect(i, a, b)
            self.expected.append(capture(cli.print_cochain, result))

    def argv(self, k: int) -> list[str]:
        command, i, pa, pb = self.ops[k]
        return [command, "--i", str(i), "--n", str(CLI_N), pa, pb]

    def run(self, k: int):
        proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *self.argv(k)],
                              capture_output=True, env=self.env, cwd=self.root, check=False)
        return proc.returncode, proc.stdout, None

    def prepare(self, k: int) -> None:
        self.caches.clear()

    def run_in_process(self, k: int):
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(self.argv(k))
        return code, buf.getvalue().encode(), None

    def traced(self, k: int, tr):
        """The layer calls cmd_zeta / cmd_defect make, in order, each in a span.

        A defect comes back with its inputs, so that the check can compare
        the sum of its parts with `cartan_defect`.
        """
        command, i, pa, pb = self.ops[k]
        a = tr.call("cli.load_cochain", cli.load_cochain, pa, CLI_N)
        b = tr.call("cli.load_cochain", cli.load_cochain, pb, CLI_N)
        for c in (a, b):
            if not traced_cochain(tr, "cochains.delta", delta, c).is_zero:
                return cli.COCYCLE, b"", None
        tr.call("cochains.witness_surjections", witness_surjections, i)
        if command == "zeta":
            result = traced_cochain(tr, "cochains.cartan_coboundary", cartan_coboundary, i, a, b)
            tr.count("witness_ops")
            tr.count("witness_nonzero", int(not result.is_zero))
            decomposed = None
        else:
            for j in range(i + 1):
                tr.call("cochains.cup_surjections", cup_surjections, j)
            result, _ = traced_defect(tr, i, a, b)
            decomposed = (i, a, b, result)
        tr.count("output_ops")
        tr.count("output_nonzero", int(not result.is_zero))
        return cli.OK, tr.call("cli.print_cochain", capture, cli.print_cochain, result), decomposed

    def check(self, k: int, out) -> bool:
        code, stdout, decomposed = out
        if code != cli.OK or stdout != self.expected[k]:
            return False
        if decomposed is not None:
            i, a, b, defect = decomposed
            return defect == cartan_defect(i, a, b)
        return True

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def capture(fn, *args) -> bytes:
    buf = StringIO()
    with redirect_stdout(buf):
        fn(*args)
    return buf.getvalue().encode()


# --- cartan-warm ---

WARM_N = (7, 8, 9)
WARM_I = range(6)


def warm_cells() -> list[tuple[int, int, int, int]]:
    """(n, i, dim a, dim b) with a witness dimension >= 0 and a defect dimension <= n."""
    return [(n, i, p, q) for n in WARM_N for i in WARM_I
            for p in range(1, n + 1) for q in range(1, n + 1)
            if 0 <= 2 * (p + q) - i - 1 and 2 * (p + q) - i <= n]


class CartanWarm(Workload):
    """cartan_defect on one dense random coboundary pair per cell, caches filled in set-up."""

    name = "cartan-warm"
    witness_indices = tuple(WARM_I)
    cup_indices = tuple(WARM_I)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.ops = [(i, random_coboundary(rng, n, p), random_coboundary(rng, n, q))
                    for n, i, p, q in warm_cells()]
        self.witness_nonzero: dict[int, bool] = {}
        self.caches.clear()
        for args in self.ops:
            cartan_defect(*args)

    def setup_traced(self, tr) -> None:
        self.caches.clear()
        for i in self.witness_indices:
            tr.call("cochains.witness_surjections", witness_surjections, i)
        for i in self.cup_indices:
            tr.call("cochains.cup_surjections", cup_surjections, i)
        for args in self.ops:
            traced_defect(tr, *args)

    def run(self, k: int):
        return cartan_defect(*self.ops[k]), False

    def traced(self, k: int, tr):
        i, a, b = self.ops[k]
        out, witness = traced_defect(tr, i, a, b)
        self.witness_nonzero[k] = not witness.is_zero
        tr.count("output_ops")
        tr.count("output_nonzero", int(not out.is_zero))
        return out, True

    def check(self, k: int, out) -> bool:
        """A zero defect; a traced one must also equal cartan_defect."""
        defect, decomposed = out
        if decomposed and defect != cartan_defect(*self.ops[k]):
            return False
        if k not in self.witness_nonzero:
            self.witness_nonzero[k] = not cartan_coboundary(*self.ops[k]).is_zero
        return defect.is_zero

    def vacuity(self) -> dict:
        seen = self.witness_nonzero.values()
        return {"witness_nonzero_ratio": sum(seen) / len(seen) if seen else 0.0}


# --- squares-sparse ---

SPARSE_N = (10, 11, 12)
SPARSE_DIMS = range(1, 5)
SPARSE_COCYCLES_PER_CELL = 6
SPARSE_SUPPORT = 3


class SquaresSparse(Workload):
    """Every Sq^k of coboundaries of 3-face cochains on large simplices."""

    name = "squares-sparse"
    cup_indices = tuple(range(max(SPARSE_DIMS) + 1))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.ops = []
        for n in SPARSE_N:
            for d in SPARSE_DIMS:
                for _ in range(SPARSE_COCYCLES_PER_CELL):
                    g = Cochain(n, d - 1, rng.sample(faces_of_dim(n, d - 1), SPARSE_SUPPORT))
                    a = delta(g)
                    self.ops.extend((k, a) for k in range(d + 1))
        self.verified: dict[int, Cochain] = {}
        self.caches.clear()
        self._warm(lambda name, fn, *args: fn(*args))

    def _warm(self, call) -> None:
        shapes = set()
        for k, a in self.ops:
            if (k, a.dim, a.ambient) not in shapes:
                shapes.add((k, a.dim, a.ambient))
                call("cochains.steenrod_square", steenrod_square, k, a)

    def setup_traced(self, tr) -> None:
        self.caches.clear()
        for i in self.cup_indices:
            tr.call("cochains.cup_surjections", cup_surjections, i)
        self._warm(lambda name, fn, *args: traced_cochain(tr, name, fn, *args))

    def run(self, k: int):
        return steenrod_square(*self.ops[k])

    def traced(self, k: int, tr):
        out = traced_cochain(tr, "cochains.steenrod_square", steenrod_square, *self.ops[k])
        tr.count("output_ops")
        tr.count("output_nonzero", int(not out.is_zero))
        return out

    def check(self, k: int, out) -> bool:
        """Sq^0 a = a and delta(Sq^k a) = 0; later rounds must repeat the checked output."""
        if k in self.verified:
            return out == self.verified[k]
        sq, a = self.ops[k]
        if (sq == 0 and out != a) or not delta(out).is_zero:
            return False
        self.verified[k] = out
        return True

    def vacuity(self) -> dict:
        seen = [not c.is_zero for c in self.verified.values()]
        return {"output_nonzero_ratio": sum(seen) / len(seen) if seen else 0.0}


# --- operad-identities ---

LEMMA_MAX_DEGREE = 8
TR_ARITY = 3
TR_MAX_DEGREE = 3
PRODUCT_MAX_AMBIENT = 4
PRODUCT_MAX_DEGREE = 4
DIAG_SWAP = diag_embed(SWAP2)


def d_of(call, name, fn, c):
    """Boundary of a degree +1 map at c: d(f(c)) + f(d(c))."""
    return call("f2.add", add,
                call("simplicial.boundary", boundary, call(name, fn, c)),
                call(name, fn, call("simplicial.boundary", boundary, c)))


def boundary_h1(call, c):
    lhs = d_of(call, "barratt_eccles.embedding_homotopy", embedding_homotopy, c)
    rhs = call("f2.add", add,
               call("barratt_eccles.sigma_act", sigma_act, MID_SWAP4,
                    call("barratt_eccles.nerve_map", nerve_map, outer_embed, c)),
               call("barratt_eccles.nerve_map", nerve_map, diag_embed, c))
    return lhs, rhs


def equiv(name, fn):
    def identity(call, c):
        lhs = call(name, fn, call("barratt_eccles.sigma_act", sigma_act, SWAP2, c))
        rhs = call("barratt_eccles.sigma_act", sigma_act, DIAG_SWAP, call(name, fn, c))
        return lhs, rhs
    return identity


def boundary_h2(call, c):
    lhs = d_of(call, "barratt_eccles.diagonal_homotopy", diagonal_homotopy, c)
    rhs = call("f2.add", add,
               call("barratt_eccles.nerve_map", nerve_map, diag_embed, c),
               call("barratt_eccles.product_of_squares", product_of_squares, c))
    return lhs, rhs


def outer_is_squared_product(call, c):
    return (call("barratt_eccles.nerve_map", nerve_map, outer_embed, c),
            call("barratt_eccles.squared_product", squared_product, c))


def total_boundary(call, c):
    lhs = d_of(call, "barratt_eccles.cartan_homotopy", cartan_homotopy, c)
    rhs = call("f2.add", add,
               call("barratt_eccles.sigma_act", sigma_act, MID_SWAP4,
                    call("barratt_eccles.squared_product", squared_product, c)),
               call("barratt_eccles.product_of_squares", product_of_squares, c))
    return lhs, rhs


def tr_chain_map(call, c):
    return (call("surjection.surj_boundary", surj_boundary,
                 call("surjection.table_reduction", table_reduction, c)),
            call("surjection.table_reduction", table_reduction,
                 call("simplicial.boundary", boundary, c)))


def tr_equivariance(call, c):
    """tr(sigma . e) = sigma . tr(e) for every sigma of the arity, as two tuples of sums."""
    tr_c = call("surjection.table_reduction", table_reduction, c)
    r = len(next(iter(c))[0])
    sigmas = list(permutations(range(1, r + 1)))
    lhs = tuple(call("surjection.surj_act", act_all, s, tr_c) for s in sigmas)
    rhs = tuple(call("surjection.table_reduction", table_reduction,
                     call("barratt_eccles.sigma_act", sigma_act, s, c))
                for s in sigmas)
    return lhs, rhs


def act_all(sigma, c: F2Sum) -> F2Sum:
    return F2Sum(surj_act(sigma, s) for s in c)


def shih_homotopy(call, c):
    return (d_of(call, "simplicial.shih", shih, c),
            call("f2.add", add, call("simplicial.ez", ez, call("simplicial.aw", aw, c)), c))


def aw_ez_identity(call, t):
    return call("simplicial.aw", aw, call("simplicial.ez", ez, t)), t


LEMMA_IDENTITIES = (boundary_h1,
                    equiv("barratt_eccles.embedding_homotopy", embedding_homotopy),
                    boundary_h2, outer_is_squared_product, total_boundary,
                    equiv("barratt_eccles.diagonal_homotopy", diagonal_homotopy))


class Traced:
    """`call` for identity ops in a traced run: a span per call, plus the layer counts."""

    def __init__(self, tr):
        self.tr = tr

    def __call__(self, name, fn, *args):
        if name in HOMOTOPIES:
            return traced_homotopy(self.tr, name, fn, *args)
        if name == "surjection.table_reduction":
            return traced_table_reduction(self.tr, *args)
        return self.tr.call(name, fn, *args)


HOMOTOPIES = {"barratt_eccles.embedding_homotopy", "barratt_eccles.diagonal_homotopy",
              "barratt_eccles.cartan_homotopy"}


def arity2_basis(degree: int) -> list[tuple]:
    """Both arity-2 elements of a degree: entries alternate between the two permutations."""
    base = cup_generator(degree)
    return [base, tuple(compose_perm(SWAP2, s) for s in base)]


def arity_basis(r: int, degree: int) -> list[tuple]:
    perms = list(permutations(range(1, r + 1)))
    out = [(p,) for p in perms]
    for _ in range(degree):
        out = [e + (p,) for e in out for p in perms if p != e[-1]]
    return out


def product_simplices(max_ambient: int, max_degree: int) -> list[tuple]:
    """Nondegenerate simplices of Delta^a x Delta^b, a + b <= max_ambient."""
    out = []
    for a in range(max_ambient + 1):
        for b in range(max_ambient + 1 - a):
            for d in range(max_degree + 1):
                for x in combinations_with_replacement(range(a + 1), d + 1):
                    for y in combinations_with_replacement(range(b + 1), d + 1):
                        z = product(x, y)
                        if not is_degenerate(z):
                            out.append(z)
    return out


def tensor_terms(max_ambient: int, max_bidegree: int) -> list[tuple]:
    """Pairs (x, y) of faces of Delta^a and Delta^b, a, b <= max_ambient, of bidegree <= max."""
    faces = [[f for m in range(a + 1) for f in faces_of_dim(a, m)]
             for a in range(max_ambient + 1)]
    return [(x, y) for fa in faces for fb in faces for x in fa for y in fb
            if len(x) + len(y) - 2 <= max_bidegree]


class OperadIdentities(Workload):
    """One identity on one basis element per op; the seed fixes the order."""

    name = "operad-identities"

    def setup(self) -> None:
        ops = [(identity, singleton(e))
               for d in range(LEMMA_MAX_DEGREE + 1) for e in arity2_basis(d)
               for identity in LEMMA_IDENTITIES]
        ops += [(identity, singleton(e))
                for d in range(TR_MAX_DEGREE + 1) for e in arity_basis(TR_ARITY, d)
                for identity in (tr_chain_map, tr_equivariance)]
        ops += [(shih_homotopy, singleton(z))
                for z in product_simplices(PRODUCT_MAX_AMBIENT, PRODUCT_MAX_DEGREE)]
        ops += [(aw_ez_identity, singleton(t))
                for t in tensor_terms(PRODUCT_MAX_AMBIENT, PRODUCT_MAX_DEGREE)]
        random.Random(self.seed).shuffle(ops)
        self.ops = ops

    def run(self, k: int):
        identity, c = self.ops[k]
        return identity(direct, c)

    def traced(self, k: int, tr):
        identity, c = self.ops[k]
        return identity(Traced(tr), c)

    def check(self, k: int, out) -> bool:
        lhs, rhs = out
        return lhs == rhs


def direct(name, fn, *args):
    return fn(*args)


WORKLOADS = {w.name: w for w in (CliCold, CartanWarm, SquaresSparse, OperadIdentities)}
