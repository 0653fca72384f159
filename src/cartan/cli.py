"""Command-line surface: products, squares, the Cartan witness, reductions, sweeps.

Exit codes: 0 success, 1 a verification sweep found counterexamples,
2 malformed arguments or input files, 3 shape mismatch (ambient or slot
disagreements, a cap exceeded, a result dimension too long to print),
4 cocycle precondition violated.
Every work knob has a cap: the ambient dimension (`CARTAN_MAX_N`, itself
at most `MAX_AMBIENT_CAP`), the witness index `--i` of `zeta`, `defect`
and `verify cartan`, the sweep's `--trials` alone and times its ambient's
face count (`MAX_SWEEP_COST`), its `--dim` values, and each identity
suite's `--max-degree`; `tr` and `surj-compose` count the values they
would read and refuse a count above `MAX_VALUES_READ` before doing any
work.
Output is deterministic for fixed inputs and seed: supports, term lists
and JSON keys are all sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from .cochains import (BRIEF, Cochain, brief, cartan_coboundary, cartan_defect, cup, delta,
                       steenrod_square)
from .f2 import F2Sum, singleton
from .simplicial import is_degenerate
from .surjection import is_basis_surjection, surj_compose, table_reduction
from .verify import IDENTITIES, run_cartan, run_identities

OK = 0
FAILED = 1
PARSE = 2
SHAPE = 3
COCYCLE = 4

DEFAULT_MAX_N = 6
# largest value CARTAN_MAX_N may take: at ambient 16 the slowest calls on dense random
# coboundaries took 1.3 s (sq --k 3 of an 8-cocycle), 0.6 s (zeta --i 4 of a 1- and a
# 7-cocycle) and 1.1 s (defect --i 5 of a 0- and an 8-cocycle; 0.8 s for defect --i 12
# of two 7-cocycles), at most 150 MB each, on one shared 2-core VM; the cocycle check's
# delta keeps one coface mask per support face, with one bit per coface met so far, at
# most C(n+1, d+2); a dense cocycle meets nearly all of them (30 MB of masks for a dense
# 7-cocycle at ambient 16), so at ambient 20 a dense 9-cocycle alone would need about 8 GB
MAX_AMBIENT_CAP = 16
# largest --i of zeta, defect and verify cartan: the witness has floor((i+2)^2 / 4)
# words of length i + 5 to evaluate, and defect adds the floor((i+2)^2 / 4)
# squared-product words and the i + 1 square words, all of length i + 4
MAX_WITNESS_INDEX = 12
# largest --trials of verify cartan
MAX_TRIALS = 10_000
# largest --trials x C(n+1, (n+1)//2) of verify cartan, the trials times the most faces
# of one dimension of the n-simplex; a trial took at most 23 us per such face (n = 16,
# i = 6; 33 us at n = 0, where the count is 1) on one shared 2-core VM, so a sweep at
# the cap runs for about a minute, and the default 100 trials run at every ambient up
# to MAX_AMBIENT_CAP (100 x C(17, 8) = 2,431,000)
MAX_SWEEP_COST = 2_500_000
# largest number of values tr (rows x row length) or surj-compose (index tuples
# x output length) may read, counted as if tr pruned no reading; at the cap tr took
# under 0.5 s on every table tried, surj-compose about 1 s
MAX_VALUES_READ = 2_000_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def max_ambient() -> int:
    """Ambient-dimension cap, overridable through CARTAN_MAX_N up to MAX_AMBIENT_CAP."""
    raw = os.environ.get("CARTAN_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(PARSE, f"CARTAN_MAX_N must be an integer, not {brief(raw)}") from None
    if cap < 0:
        raise CliError(PARSE, f"CARTAN_MAX_N must be nonnegative, not {brief(raw)}")
    if cap > MAX_AMBIENT_CAP:
        raise CliError(PARSE, f"CARTAN_MAX_N must be at most {MAX_AMBIENT_CAP}, not {brief(raw)}")
    return cap


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
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers too long to convert
        raise CliError(PARSE, f"{path}: {exc}") from None


def load_cochain(path: str, n: int | None) -> Cochain:
    try:
        c = Cochain.from_dict(read_json(path))
    except ValueError as exc:
        raise CliError(PARSE, f"{path}: {exc}") from None
    cap = max_ambient()
    if c.ambient > cap:
        raise CliError(SHAPE, f"{path}: ambient {brief(c.ambient)} exceeds the cap {cap}"
                              " (CARTAN_MAX_N)")
    if n is not None and c.ambient != n:
        raise CliError(SHAPE, f"{path}: ambient {brief(c.ambient)} does not match --n {brief(n)}")
    return c


def print_cochain(c: Cochain) -> None:
    try:
        text = json.dumps(c.to_dict(), sort_keys=True)
    except ValueError as exc:
        # as in read_json: an integer too long to convert, here the result's dimension
        raise CliError(SHAPE, f"result dimension too long to print: {exc}") from None
    print(text)


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
        require_at_most(args.command, "--i", args.index, MAX_WITNESS_INDEX)
    paths = [args.alpha] + ([args.beta] if "beta" in args else [])
    cochains = [load_cochain(path, args.n) for path in paths]
    if any(c.ambient != cochains[0].ambient for c in cochains):
        raise CliError(SHAPE, "cochains live on different ambient simplices")
    if args.cocycles:
        for path, c in zip(paths, cochains):
            if not delta(c).is_zero:
                raise CliError(COCYCLE, f"{path}: not a cocycle")
    print_cochain(args.op(args.index, *cochains))
    return OK


def parse_perm_tuple(data) -> tuple:
    if not isinstance(data, list) or not data:
        raise CliError(PARSE, "expected a nonempty list of permutations")
    perms = []
    for p in data:
        if not isinstance(p, list) or any(type(v) is not int for v in p):
            raise CliError(PARSE, f"not a permutation: {brief(p)}")
        perms.append(tuple(p))
    r = len(perms[0])
    if r == 0:
        raise CliError(PARSE, "a permutation needs at least one value")
    for p in perms:
        if sorted(p) != list(range(1, r + 1)):
            raise CliError(PARSE, f"not a permutation of 1..{r}: {brief(list(p))}")
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
    except RecursionError:
        # a short fixed phrase keeps the line as short as the bounded prefix it echoes
        raise CliError(PARSE, f"{brief(text)}: nested too deep") from None
    except ValueError as exc:
        # as in read_json: bad JSON or an integer too long to convert
        raise CliError(PARSE, f"{brief(text)}: {exc}") from None
    if (not isinstance(data, list) or not data
            or any(type(v) is not int for v in data)):
        raise CliError(PARSE, f"expected a nonempty array of integers: {brief(text)}")
    seq = tuple(data)
    if min(seq) < 1 or not is_basis_surjection(seq, max(seq)):
        raise CliError(PARSE, f"not a basis surjection: {brief(text)}")
    return seq


def cmd_surj_compose(args) -> int:
    s2 = parse_surjection(args.outer)
    s1 = parse_surjection(args.inner)
    if not 1 <= args.p <= max(s2):
        raise CliError(SHAPE, f"slot {brief(args.p)} is out of range for arity {max(s2)}")
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
            raise CliError(SHAPE, f"ambient {brief(args.n)} exceeds the cap {cap} (CARTAN_MAX_N)")
        require_at_most("verify cartan", "--i", args.i, MAX_WITNESS_INDEX)
        require_at_most("verify cartan", "--trials", args.trials, MAX_TRIALS)
        # the sweep samples cochains of dimension below max(n, 1) (`cocycle_dim_pool`)
        require_at_most("verify cartan", "--dim", None if args.dim is None else max(args.dim),
                        max(args.n, 1) - 1)
        trials = 100 if args.trials is None else args.trials
        require_at_most("verify cartan", "--trials x C(n+1, (n+1)//2)",
                        trials * comb(args.n + 1, (args.n + 1) // 2), MAX_SWEEP_COST)
        report = run_cartan(args.i, args.n, trials=trials,
                            seed=0 if args.seed is None else args.seed,
                            dims=None if args.dim is None else tuple(args.dim))
    else:
        _, cap, _, _ = IDENTITIES[args.suite]
        require_at_most(f"verify {args.suite}", "--max-degree", args.max_degree, cap)
        report = run_identities(args.suite, args.max_degree)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return OK if report.ok else FAILED


def nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{brief(text)} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


class Parser(argparse.ArgumentParser):
    """Parses `cartan` and its subcommands; cuts an error message to 4 BRIEF UTF-8 bytes."""

    def error(self, message):
        # argparse echoes a bad int or choice whole; a bad suite name of BRIEF characters makes
        # 222 bytes. A lone surrogate of an argv that is not UTF-8 counts as the escape stderr
        # prints for it, so the bytes are valid UTF-8 and "ignore" drops only a character the
        # cut splits
        data = message.encode(errors="backslashreplace")
        if len(data) > 4 * BRIEF:
            message = data[:4 * BRIEF].decode(errors="ignore") + "..."
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="cartan",
        description="Cup-i products, Steenrod squares and the Cartan "
                    "coboundary witness on simplex cochains over GF(2).")
    sub = parser.add_subparsers(dest="command", required=True)

    def cochain_cmd(name, op, index, helptext, cocycles, beta=True, witness=False):
        flag, indexhelp = index
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=nonneg, default=None,
                       help="expected ambient dimension")
        p.add_argument("alpha", help="cochain JSON file")
        if beta:
            p.add_argument("beta", help="cochain JSON file")
        # after the positionals, so a missing-arguments line names them first
        p.add_argument(f"--{flag}", dest="index", metavar=flag.upper(), type=nonneg,
                       required=True, help=indexhelp)
        p.set_defaults(handler=cmd_cochain_op, op=op, cocycles=cocycles, witness=witness)

    cochain_cmd("cup", cup, ("i", "cup index"), "cup-i product of two cochains", cocycles=False)
    cochain_cmd("sq", steenrod_square, ("k", "square index"),
                "chain-level Steenrod square of a cocycle", cocycles=True, beta=False)
    cochain_cmd("zeta", cartan_coboundary, ("i", "witness index"),
                "Cartan coboundary witness of two cocycles", cocycles=True, witness=True)
    cochain_cmd("defect", cartan_defect, ("i", "witness index"),
                "Cartan defect of two cocycles (zero when the witness works)",
                cocycles=True, witness=True)

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
    p.add_argument("suite", nargs="?", default="cartan", choices=["cartan", *IDENTITIES])
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
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
