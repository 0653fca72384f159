"""Command-line surface: products, squares, the Cartan witness, reductions, sweeps.

Exit codes: 0 success, 1 a verification sweep found counterexamples,
2 malformed arguments or input files, 3 shape mismatch (ambient or slot
disagreements, a cap exceeded), 4 cocycle precondition violated.
Every work knob has a cap: the ambient dimension (`CARTAN_MAX_N`), the
witness index `--i` of `zeta`, `defect` and `verify cartan`, the
sweep's `--trials`, and each identity suite's `--max-degree`; `tr` and
`surj-compose` count the values they would read and refuse a count
above `MAX_VALUES_READ` before doing any work.
Output is deterministic for fixed inputs and seed: supports, term lists
and JSON keys are all sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from .cochains import (Cochain, cartan_coboundary, cartan_defect, cup, delta,
                       steenrod_square)
from .f2 import F2Sum, singleton
from .simplicial import is_degenerate
from .surjection import is_basis_surjection, surj_compose, table_reduction
from .verify import IDENTITIES, LEMMA_SUITES, STRUCTURAL_SUITES, run_cartan

OK = 0
FAILED = 1
PARSE = 2
SHAPE = 3
COCYCLE = 4

DEFAULT_MAX_N = 6
# largest --i of zeta, defect and verify cartan: defect runs i + 1 cup products,
# and the witness has floor((i+2)^2 / 4) words of length i + 5 to evaluate
MAX_WITNESS_INDEX = 12
# largest --trials of verify cartan
MAX_TRIALS = 10_000
# largest number of values tr (rows x row length) or surj-compose (index tuples
# x output length) may read; at the cap tr takes about 4 s, surj-compose about 1 s
MAX_VALUES_READ = 2_000_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def max_ambient() -> int:
    """Ambient-dimension cap, overridable through CARTAN_MAX_N."""
    raw = os.environ.get("CARTAN_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise CliError(PARSE, f"CARTAN_MAX_N must be an integer, not {raw!r}") from None


def require_at_most(command: str, what: str, value: int | None, cap: int) -> None:
    """Refuse a work knob, or the work an input implies, above its cap."""
    if value is not None and value > cap:
        raise CliError(SHAPE, f"{command} caps {what} at {cap}")


def read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(PARSE, f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(PARSE, f"{path}: {exc}") from None


def load_cochain(path: str, n: int | None) -> Cochain:
    try:
        c = Cochain.from_dict(read_json(path))
    except ValueError as exc:
        raise CliError(PARSE, f"{path}: {exc}") from None
    cap = max_ambient()
    if c.ambient > cap:
        raise CliError(SHAPE, f"{path}: ambient {c.ambient} exceeds the cap {cap} (CARTAN_MAX_N)")
    if n is not None and c.ambient != n:
        raise CliError(SHAPE, f"{path}: ambient {c.ambient} does not match --n {n}")
    return c


def require_cocycle(path: str, c: Cochain) -> None:
    if not delta(c).is_zero:
        raise CliError(COCYCLE, f"{path}: not a cocycle")


def print_cochain(c: Cochain) -> None:
    print(json.dumps(c.to_dict(), sort_keys=True))


def format_surjections(terms, as_json: bool) -> str:
    seqs = sorted(terms)
    if as_json:
        return json.dumps([list(s) for s in seqs])
    if not seqs:
        return "0"
    return " + ".join("(" + ",".join(str(v) for v in s) + ")" for s in seqs)


def cmd_cochain_op(args) -> int:
    """Load the cochain operands on one simplex, check them, and print `args.op` of them."""
    if args.witness:
        require_at_most(args.command, "--i", args.i, MAX_WITNESS_INDEX)
    paths = [args.alpha] + ([args.beta] if "beta" in args else [])
    cochains = [load_cochain(path, args.n) for path in paths]
    if any(c.ambient != cochains[0].ambient for c in cochains):
        raise CliError(SHAPE, "cochains live on different ambient simplices")
    if args.cocycles:
        for path, c in zip(paths, cochains):
            require_cocycle(path, c)
    print_cochain(args.op(args, *cochains))
    return OK


def parse_perm_tuple(data) -> tuple:
    if not isinstance(data, list) or not data:
        raise CliError(PARSE, "expected a nonempty list of permutations")
    perms = []
    for p in data:
        if not isinstance(p, list) or any(not isinstance(v, int) for v in p):
            raise CliError(PARSE, f"not a permutation: {p!r}")
        perms.append(tuple(p))
    r = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(1, r + 1)):
            raise CliError(PARSE, f"not a permutation of 1..{r}: {list(p)!r}")
    return tuple(perms)


def cmd_tr(args) -> int:
    e = parse_perm_tuple(read_json(args.element))
    # a degenerate element is zero, so no table is read
    if is_degenerate(e):
        c = F2Sum()
    else:
        n, r = len(e) - 1, len(e[0])
        # one row of n + r values per composition of n + r into n + 1 parts
        require_at_most("tr", "values read", comb(n + r - 1, n) * (n + r), MAX_VALUES_READ)
        c = singleton(e)
    print(format_surjections(table_reduction(c), args.json))
    return OK


def parse_surjection(text: str) -> tuple[int, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise CliError(PARSE, f"not a JSON array: {text!r}") from None
    if (not isinstance(data, list) or not data
            or any(not isinstance(v, int) for v in data)):
        raise CliError(PARSE, f"expected a nonempty array of integers: {text!r}")
    seq = tuple(data)
    if min(seq) < 1 or not is_basis_surjection(seq, max(seq)):
        raise CliError(PARSE, f"not a basis surjection: {text!r}")
    return seq


def cmd_surj_compose(args) -> int:
    s2 = parse_surjection(args.outer)
    s1 = parse_surjection(args.inner)
    if not 1 <= args.p <= max(s2):
        raise CliError(SHAPE, f"slot {args.p} is out of range for arity {max(s2)}")
    # one word of len(s2) + len(s1) - 1 values per nondecreasing (k-1)-tuple over 1..len(s1)
    k = s2.count(args.p)
    require_at_most("surj-compose", "values read",
                    comb(len(s1) + k - 2, k - 1) * (len(s2) + len(s1) - 1), MAX_VALUES_READ)
    print(format_surjections(surj_compose(s2, args.p, s1), args.json))
    return OK


CARTAN_FLAGS = ("i", "n", "trials", "seed", "dim")


def cmd_verify(args) -> int:
    unused = ("max_degree",) if args.suite == "cartan" else CARTAN_FLAGS
    for flag in unused:
        if getattr(args, flag) is not None:
            raise CliError(PARSE, f"verify {args.suite} does not take --{flag.replace('_', '-')}")
    if args.suite == "cartan":
        if args.i is None or args.n is None:
            raise CliError(PARSE, "the cartan sweep needs --i and --n")
        cap = max_ambient()
        if args.n > cap:
            raise CliError(SHAPE, f"ambient {args.n} exceeds the cap {cap} (CARTAN_MAX_N)")
        require_at_most("verify cartan", "--i", args.i, MAX_WITNESS_INDEX)
        require_at_most("verify cartan", "--trials", args.trials, MAX_TRIALS)
        report = run_cartan(args.i, args.n,
                            trials=100 if args.trials is None else args.trials,
                            seed=0 if args.seed is None else args.seed,
                            dims=None if args.dim is None else tuple(args.dim))
    else:
        _, cap, _, _ = IDENTITIES[args.suite]
        require_at_most(f"verify {args.suite}", "--max-degree", args.max_degree, cap)
        suites = {**LEMMA_SUITES, **STRUCTURAL_SUITES}
        report = suites[args.suite](max_degree=args.max_degree)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return OK if report.ok else FAILED


def nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartan",
        description="Cup-i products, Steenrod squares and the Cartan "
                    "coboundary witness on simplex cochains over GF(2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def cochain_cmd(name, op, helptext, cocycles, beta=True, witness=False):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=nonneg, default=None,
                       help="expected ambient dimension")
        p.add_argument("alpha", help="cochain JSON file")
        if beta:
            p.add_argument("beta", help="cochain JSON file")
        p.set_defaults(handler=cmd_cochain_op, op=op, cocycles=cocycles, witness=witness)
        return p

    p = cochain_cmd("cup", lambda args, a, b: cup(args.i, a, b),
                    "cup-i product of two cochains", cocycles=False)
    p.add_argument("--i", type=nonneg, required=True, help="cup index")

    p = cochain_cmd("sq", lambda args, a: steenrod_square(args.k, a),
                    "chain-level Steenrod square of a cocycle", cocycles=True, beta=False)
    p.add_argument("--k", type=nonneg, required=True, help="square index")

    p = cochain_cmd("zeta", lambda args, a, b: cartan_coboundary(args.i, a, b),
                    "Cartan coboundary witness of two cocycles", cocycles=True, witness=True)
    p.add_argument("--i", type=nonneg, required=True, help="witness index")

    p = cochain_cmd("defect", lambda args, a, b: cartan_defect(args.i, a, b),
                    "Cartan defect of two cocycles (zero when the witness works)",
                    cocycles=True, witness=True)
    p.add_argument("--i", type=nonneg, required=True, help="witness index")

    p = sub.add_parser("tr", help="table reduction of a tuple of permutations")
    p.add_argument("element", help="JSON file: list of one-line permutations")
    p.add_argument("--json", action="store_true", help="print a JSON array instead of text")
    p.set_defaults(handler=cmd_tr)

    p = sub.add_parser("surj-compose", help="operadic composition of two surjections")
    p.add_argument("outer", help="outer surjection as a JSON array")
    p.add_argument("p", type=nonneg, help="slot of the outer surjection")
    p.add_argument("inner", help="inner surjection as a JSON array")
    p.add_argument("--json", action="store_true", help="print a JSON array instead of text")
    p.set_defaults(handler=cmd_surj_compose)

    p = sub.add_parser("verify", help="verification sweeps; default is the Cartan sweep")
    p.add_argument("suite", nargs="?", default="cartan",
                   choices=["cartan"] + sorted(LEMMA_SUITES) + sorted(STRUCTURAL_SUITES))
    p.add_argument("--i", type=nonneg, default=None, help="witness index (cartan sweep)")
    p.add_argument("--n", type=nonneg, default=None, help="ambient dimension (cartan sweep)")
    p.add_argument("--trials", type=nonneg, default=None,
                   help="random trials (cartan sweep, default 100)")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed (cartan sweep, default 0)")
    p.add_argument("--max-degree", type=nonneg, default=None,
                   help="exhaustive degree bound of an identity suite (default: the suite's own)")
    p.add_argument("--dim", type=nonneg, nargs=2, default=None,
                   metavar=("DIM1", "DIM2"),
                   help="fix the dimensions of the sampled cochain pair (cartan sweep)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else PARSE
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
