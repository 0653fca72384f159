"""Verification sweeps: operad and simplicial identities, and the Cartan defect sweep.

`IDENTITIES` holds every identity suite as data: a default degree
bound, the largest bound `cartan verify` accepts, an enumerator of the
basis elements of one degree, and labelled pairs (lhs, rhs) of linear
maps that must agree; `cartan verify` offers the suites in the table's
order, after `cartan`.  `run_identities` checks every pair on every
basis element through the degree bound, so coverage is exhaustive and
no seed is involved.  The arity-2 basis has exactly two elements in
each degree, which is why the four homotopy lemma suites go up to
degree 8 by default, and to 12 at most: the diagonal homotopy of a
degree-d element has 2^d - 1 terms.

`run_cartan` is the one seeded sweep: it evaluates the Cartan defect
on random coboundary pairs of a standard simplex.  Each suite returns a
`VerifyReport`, the record `cartan verify` prints as JSON: the suite,
its failures, the seconds it took, the sweep's i, n and seed (None for
an identity suite), the number of trials or basis elements checked, and
the other settings in `params`.  An identity failure names the identity and the basis
element, a sweep failure its inputs and defect; an empty failure list
means every check held.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from functools import partial
from itertools import permutations

from .barratt_eccles import (MID_SWAP4, SWAP2, cartan_homotopy, diag_embed,
                             diagonal_homotopy, embedding_homotopy, nerve_map,
                             outer_embed, product_of_squares, sigma_act,
                             squared_product)
from .cochains import Cochain, cartan_defect, delta, ones
from .f2 import F2Sum, hom_boundary, singleton
from .simplicial import (aw, boundary, degree_simplices, ez, faces_of_dim,
                         is_degenerate, product, shih)
from .surjection import surj_act, surj_boundary, table_reduction

# largest ambient simplex of the structural suites' bases (shih-homotopy: sum of both)
MAX_AMBIENT = 4
# arities of the Barratt-Eccles elements fed to table reduction
TR_ARITIES = (2, 3)


class VerifyReport(namedtuple("VerifyReport", "suite failures elapsed i n trials seed params",
                              defaults=(None, None, 0, None, None))):
    """What one suite checked, and every check that failed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {**self._asdict(), "elapsed": round(self.elapsed, 3)}


# --- bases, one degree at a time ---

def arity_basis(r: int, degree: int) -> list[tuple]:
    """Every arity-r Barratt-Eccles basis element of the given degree."""
    perms = list(permutations(range(1, r + 1)))
    out = [(p,) for p in perms]
    for _ in range(degree):
        out = [e + (p,) for e in out for p in perms if p != e[-1]]
    return out


def product_basis(degree: int) -> list[tuple]:
    """Nondegenerate product simplices of two standard simplices.

    The two ambient dimensions sum to at most MAX_AMBIENT.
    """
    out = []
    for a in range(MAX_AMBIENT + 1):
        for b in range(MAX_AMBIENT + 1 - a):
            for x in degree_simplices(a, degree):
                for y in degree_simplices(b, degree):
                    z = product(x, y)
                    if not is_degenerate(z):
                        out.append(z)
    return out


def tensor_basis(degree: int) -> list[tuple]:
    """Tensor terms (x, y) of total degree `degree`.

    x and y are faces of standard simplices of dimension at most MAX_AMBIENT.
    """
    return [(x, y)
            for a in range(MAX_AMBIENT + 1) for b in range(MAX_AMBIENT + 1)
            for p in range(degree + 1)
            for x in faces_of_dim(a, p) for y in faces_of_dim(b, degree - p)]


def tr_basis(degree: int) -> list[tuple]:
    """Barratt-Eccles basis elements of every arity in TR_ARITIES."""
    return [e for r in TR_ARITIES for e in arity_basis(r, degree)]


# --- the sides of the identities ---

def _intertwined(h):
    """h applied after the swap, and the diagonal image of the swap applied after h."""
    return (lambda c: h(sigma_act(SWAP2, c)),
            lambda c: sigma_act(diag_embed(SWAP2), h(c)))


def _perms_of(e: tuple) -> list[tuple]:
    return list(permutations(range(1, len(e[0]) + 1)))


def _acted_reduction(c: F2Sum) -> F2Sum:
    """sigma . table_reduction(c) for every sigma of the arity, each term tagged by sigma."""

    def per_basis(e):
        tr = table_reduction(singleton(e))
        return F2Sum((sigma, surj_act(sigma, s)) for sigma in _perms_of(e) for s in tr)

    return c.map_basis(per_basis)


def _reduced_action(c: F2Sum) -> F2Sum:
    """table_reduction(sigma . c) for every sigma of the arity, each term tagged by sigma."""
    return c.map_basis(lambda e: F2Sum(
        (sigma, s)
        for sigma in _perms_of(e) for s in table_reduction(sigma_act(sigma, singleton(e)))))


IDENTITIES = {
    "boundary-h1": (8, 12, partial(arity_basis, 2), (
        ("boundary-h1", hom_boundary(embedding_homotopy, boundary, boundary),
         lambda c: sigma_act(MID_SWAP4, nerve_map(outer_embed, c)) + nerve_map(diag_embed, c)),
    )),
    "boundary-h2": (8, 12, partial(arity_basis, 2), (
        ("outer-vs-squared-product", partial(nerve_map, outer_embed), squared_product),
        ("boundary-h2", hom_boundary(diagonal_homotopy, boundary, boundary),
         lambda c: nerve_map(diag_embed, c) + product_of_squares(c)),
        ("total-boundary", hom_boundary(cartan_homotopy, boundary, boundary),
         lambda c: sigma_act(MID_SWAP4, squared_product(c)) + product_of_squares(c)),
    )),
    "equiv-h1": (8, 12, partial(arity_basis, 2), (
        ("equiv-h1", *_intertwined(embedding_homotopy)),
    )),
    "equiv-h2": (8, 12, partial(arity_basis, 2), (
        ("equiv-h2", *_intertwined(diagonal_homotopy)),
    )),
    "aw-ez-identity": (4, 8, tensor_basis, (
        ("aw-ez-identity", lambda c: aw(ez(c)), lambda c: c),
    )),
    "shih-homotopy": (4, 4, product_basis, (
        ("shih-homotopy", hom_boundary(shih, boundary, boundary),
         lambda c: ez(aw(c)) + c),
    )),
    "tr-chain-map": (4, 4, tr_basis, (
        ("chain-map", lambda c: surj_boundary(table_reduction(c)),
         lambda c: table_reduction(boundary(c))),
        ("equivariance", _acted_reduction, _reduced_action),
    )),
}


def _lists(x):
    """A nested tuple as nested lists, for the JSON report."""
    return [_lists(y) for y in x] if isinstance(x, tuple) else x


def run_identities(name: str, max_degree: int | None = None) -> VerifyReport:
    """Check every identity of suite `name` on every basis element through `max_degree`.

    `max_degree` defaults to the suite's own bound in `IDENTITIES`.
    """
    default, _, basis, identities = IDENTITIES[name]
    if max_degree is None:
        max_degree = default
    t0 = time.perf_counter()
    failures = []
    trials = 0
    for degree in range(max_degree + 1):
        for e in basis(degree):
            trials += 1
            c = singleton(e)
            for label, lhs, rhs in identities:
                if lhs(c) != rhs(c):
                    failures.append({"identity": label, "element": _lists(e)})
    return VerifyReport(name, failures, time.perf_counter() - t0,
                        trials=trials, params={"max_degree": max_degree})


# --- the Cartan defect sweep ---

def random_cochain(rng: random.Random, n: int, dim: int) -> Cochain:
    return Cochain(n, dim, [f for f in faces_of_dim(n, dim) if rng.getrandbits(1)])


def cocycle_dim_pool(n: int, i: int) -> list[tuple[int, int]]:
    """Coboundary dimension pairs, preferring ones whose defect has faces to live on."""
    top = max(n, 1)
    every = [(d1, d2) for d1 in range(top) for d2 in range(top)]
    feasible = [p for p in every if 2 * (p[0] + 1) + 2 * (p[1] + 1) - i <= n]
    return feasible or every


def sweep_inputs(i: int, n: int, trials: int, seed: int,
                 dims: tuple[int, int] | None = None):
    """The seeded cochains (gamma1, gamma2) of each `run_cartan` trial, in order."""
    rng = random.Random(seed)
    pool = cocycle_dim_pool(n, i)
    for _ in range(trials):
        d1, d2 = dims if dims is not None else rng.choice(pool)
        yield random_cochain(rng, n, d1), random_cochain(rng, n, d2)


def run_cartan(i: int, n: int, trials: int = 100, seed: int = 0,
               dims: tuple[int, int] | None = None) -> VerifyReport:
    """Defect of the witness on seeded random coboundary pairs plus constant cocycles."""
    t0 = time.perf_counter()
    failures = []
    const = ones(n)
    defect = cartan_defect(i, const, const)
    if not defect.is_zero:
        failures.append({"trial": "constant", "defect": defect.to_dict()})
    for t, (g1, g2) in enumerate(sweep_inputs(i, n, trials, seed, dims)):
        a, b = delta(g1), delta(g2)
        defect = cartan_defect(i, a, b)
        if not defect.is_zero:
            failures.append({"trial": t,
                             "gamma1": g1.to_dict(), "gamma2": g2.to_dict(),
                             "alpha": a.to_dict(), "beta": b.to_dict(),
                             "defect": defect.to_dict()})
    return VerifyReport("cartan", failures, time.perf_counter() - t0,
                        i=i, n=n, trials=trials, seed=seed,
                        params={} if dims is None else {"dims": list(dims)})


# read only by perfbench/run.py:297; ROADMAP item 2 deletes both once it reads IDENTITIES
LEMMA_SUITES = {name: partial(run_identities, name)
                for name in ("boundary-h1", "equiv-h1", "boundary-h2", "equiv-h2")}

STRUCTURAL_SUITES = {name: partial(run_identities, name)
                     for name in ("shih-homotopy", "aw-ez-identity", "tr-chain-map")}
