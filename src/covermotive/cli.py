"""Command line driver.

Subcommands:

* group    - build a group and print its conjugacy data
* trees    - census of stable trees, optionally with class markings
* class    - compute the compactified class for a group and degree
* verify   - stratification against recursion type by type, exit 0 only on agreement
* hurwitz  - count product-one tuples, and with --orbits list their braid orbits

Groups are given either as --group strings (cyclic:3, product_cyclic:2,2,
dihedral:4, symmetric:3) or as a JSON spec file via --group-file, never both;
every command but trees needs one.  A spec takes JSON integers only (no
bools, floats, strings or null), no key but the one spec kind and an optional
"schema", which must be 1, and a builtin spec no key but kind and params.
Integers on the command line (--n, builtin params and --marking ids) are
ASCII digits with an optional leading '-'.  class --marking and
--per-marking exclude each other, and hurwitz --mod-conj needs --orbits.
All output is byte-deterministic for a fixed input.  The enumeration caps
are the constants STABLE_TREE_CAP, MARKING_CAP and TUPLE_CAP.

class, verify and trees --group read one Calculator, which _calculator builds
once every cap has passed; the marking cap guards only the paths that list
class tuples or types (verify, class --per-marking and --with-verification).
The census lines of class and trees come from one count of the stable trees
by edge number, _census.  No command builds a tree.

Exit codes: 0 success (and verified equality for verify), 1 verification
failure (a mismatch, or an exact division that fails in verify or class
--with-verification), 2 malformed input, 3 size or enumeration cap exceeded,
4 abelian-only functionality asked of a nonabelian group, 5 output could not
be written (stdout was closed early, as by `| head`).  Each error class of
covermotive.errors is a key of EXIT_CODES.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

from .calculator import Calculator
from .errors import InexactDivision, MalformedSpec, NotAGroup, SizeLimit, UnsupportedNonabelian
from .groups import FiniteGroup, build_group, class_order
from .hurwitz import braid_orbits
from .motives import format_poly, monomial, to_poincare
from .trees import profile_counts

SCHEMA_VERSION = 1

EXIT_CODES = {
    InexactDivision: 1, MalformedSpec: 2, NotAGroup: 2, SizeLimit: 3, UnsupportedNonabelian: 4
}


def integer(text: str) -> int:
    """text as an int if it is ASCII digits with an optional leading '-'.

    int() alone also reads '1_0', '+1', ' 1' and non-ASCII digits.
    """
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


STABLE_TREE_CAP = 9
MARKING_CAP = 2_000_000
TUPLE_CAP = 10**8


def _exceeds(base: int, exp: int, factor: int, cap: int) -> bool:
    """Whether base ** exp * factor > cap.

    base ** cap.bit_length() > cap whenever base > 1, so clamping the
    exponent there decides the same way without building a huge integer.
    """
    return base ** min(exp, cap.bit_length()) * factor > cap


def _require_n(args, least: int) -> None:
    """Refuse a degree below the subcommand's minimum before any work."""
    if args.n < least:
        raise MalformedSpec(f"--n must be at least {least}, got {args.n}")


def _parse_builtin(text: str) -> dict:
    kind, _, params = text.partition(":")
    try:
        values = [integer(p) for p in params.split(",")] if params else []
    except ValueError:
        raise MalformedSpec(f"builtin parameters must be integers, got {params!r}")
    return {"builtin": {"kind": kind, "params": values}}


def _load_group(args) -> FiniteGroup:
    if args.group is not None:
        return build_group(_parse_builtin(args.group))
    try:
        spec = json.loads(Path(args.group_file).read_text())
    except OSError as exc:
        raise MalformedSpec(f"cannot read group file: {exc}")
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise MalformedSpec(f"group file is not valid JSON: {exc}")
    return build_group(spec)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _poly_payload(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def cmd_group(args) -> int:
    group = _load_group(args)
    conj = group.conj
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "name": group.name,
            "order": group.order,
            "abelian": group.is_abelian(),
            "class_count": conj.count,
            "class_sizes": list(conj.sizes),
            "class_orders": [class_order(group, c) for c in range(conj.count)],
            "involution": list(conj.involution),
        }
        sys.stdout.write(_json_dumps(payload))
    else:
        print(f"group {group.name}: order {group.order}, "
              f"{'abelian' if group.is_abelian() else 'nonabelian'}")
        print(f"conjugacy classes: {conj.count}")
        for c in range(conj.count):
            print(f"  class {c}: size {conj.sizes[c]}, element order "
                  f"{class_order(group, c)}, inverse class {conj.involution[c]}")
    return 0


def _census(n: int, calc: Calculator | None = None):
    """The stable n-trees counted by edge count E, off the valence profiles.

    A tree with E edges has E + 1 vertices and classes^(n + E) markings, and
    whatever its shape it admits exactly the sweep's product-one leaf tuples.
    Returns the rows (topologies with E edges, [E + 1, E] and with a
    calculator [markings, admissible markings] of one such tree) in
    increasing E, as enumerate_stable_trees orders the trees, and the totals:
    topologies, then with a calculator marked and admissible marked trees.
    """
    per_edges = Counter()
    for profile, count in profile_counts(n).items():
        per_edges[len(profile) - 1] += count
    rows = [(per_edges[e], [e + 1, e]) for e in sorted(per_edges)]
    totals = [sum(per_edges.values())]
    if calc is not None:
        sweep = calc.sweep(n)
        admissible = sweep.admissible_count // sweep.topology_count
        for _, row in rows:
            row += [calc.conj.count ** (n + row[1]), admissible]
        totals += [sum(count * row[2] for count, row in rows), totals[0] * admissible]
    return rows, totals


def cmd_trees(args) -> int:
    calc = None
    if args.group is not None or args.group_file is not None:
        calc = _calculator(args, lists=False)
    else:
        _require_n(args, 3)
        _check_tree_cap(args.n)
    rows, totals = _census(args.n, calc)
    if args.csv:
        header = ["topology", "vertices", "edges"]
        if calc is not None:
            header += ["gerby", "admissible"]
        print(",".join(header))
        idx = 0
        for count, row in rows:
            tail = ",".join(map(str, row))
            sys.stdout.write("".join(f"{i},{tail}\n" for i in range(idx, idx + count)))
            idx += count
    else:
        print(f"stable trees with {args.n} leaves: {totals[0]} topologies")
        if calc is not None:
            print(f"marked trees over {calc.group.name}: {totals[1]}")
            print(f"admissible marked trees: {totals[2]}")
    return 0


def _parse_marking(text: str, n: int) -> tuple[int, ...]:
    """The marking's class ids; Calculator.class_bbar_marked checks their range."""
    try:
        marking = tuple(integer(p) for p in text.split(","))
    except ValueError:
        raise MalformedSpec(f"marking must be comma-separated class ids, got {text!r}")
    if len(marking) != n:
        raise MalformedSpec(f"marking length {len(marking)} does not match n = {n}")
    return marking


def _check_tree_cap(n: int) -> None:
    if n > STABLE_TREE_CAP:
        raise SizeLimit(
            f"n = {n} exceeds stable tree cap {STABLE_TREE_CAP} (outputs are checked against "
            f"Keel's closed form through n = {STABLE_TREE_CAP})"
        )


def _calculator(args, lists: bool) -> Calculator:
    """Load the group; refuse n < 3, degrees beyond the tree cap and, if the
    command lists class tuples or types, beyond the marking cap.

    The gate of class, verify and trees --group.  The recursion lists the
    product-one types of each degree up to n and class --per-marking the
    class tuples; the sweep counts its markings without listing them, and
    the strata, the census and verify --all-props's flag count line are
    read off the valence profiles of the stable n-trees, so the checks
    bound every enumeration before it starts.
    """
    _require_n(args, 3)
    group = _load_group(args)
    ncls = group.conj.count
    if lists and _exceeds(ncls, args.n, 1, MARKING_CAP):
        raise SizeLimit(f"{ncls}^{args.n} class tuples exceed marking cap {MARKING_CAP}")
    _check_tree_cap(args.n)
    return Calculator(group)


def cmd_class(args) -> int:
    if args.per_marking and args.format == "text":
        raise MalformedSpec("--per-marking needs --format json")
    n = args.n
    marking = None if args.marking is None else _parse_marking(args.marking, n)
    calc = _calculator(args, lists=args.per_marking or args.with_verification)
    cls = calc.class_bbar(n) if marking is None else calc.class_bbar_marked(marking)
    poincare = to_poincare(cls)
    hodge_euler = format_poly(cls.coeffs, monomial("u", "v"))
    verification = calc.verify_main_theorem(n) if args.with_verification else None
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "group": calc.group.name,
            "n": n,
            "coefficients": _poly_payload(cls),
            "hodge_euler": hodge_euler,
            "poincare": None if poincare is None else [str(c) for c in poincare],
        }
        if args.per_marking:
            # Every product-one marking carries the sweep's one class.
            strata = _poly_payload(calc.sweep(n).strata)
            payload["per_marking"] = {",".join(map(str, m)): strata for m in calc.per_marking(n)}
        if verification is not None:
            payload["verification"] = {
                "equal": verification.equal,
                "lhs": _poly_payload(verification.lhs),
                "rhs": _poly_payload(verification.rhs),
                "terms": {name: _poly_payload(t) for name, t in verification.terms},
            }
        sys.stdout.write(_json_dumps(payload))
    else:
        label = f"{calc.group.name}, n = {n}"
        if args.marking is not None:
            label += f", marking ({args.marking})"
        print(f"class for {label}: {cls}")
        print(f"hodge-euler: {hodge_euler}")
        if poincare is not None:
            print(f"poincare: {format_poly(poincare, monomial('t'))}")
        topologies, marked, admissible = _census(n, calc)[1]
        print(f"census: {topologies} topologies, {marked} marked trees, "
              f"{admissible} admissible strata")
        if verification is not None:
            print(f"verification: {'equal' if verification.equal else 'MISMATCH'}")
    return 0


def cmd_verify(args) -> int:
    calc = _calculator(args, lists=True)
    report = calc.verify_main_theorem(args.n)
    ok = report.equal
    print(f"{calc.group.name}, n = {args.n}")
    for name, term in report.terms:
        print(f"  {name}: {term}")
    print(f"  stratification: {report.lhs}")
    print(f"  recursion:      {report.rhs}")
    print(f"  {'EQUAL' if report.equal else 'MISMATCH'}")
    if not report.equal:
        cvec, strata, recursion = report.first_difference
        print(f"  first differing type {','.join(map(str, cvec))}: "
              f"stratification {strata}, recursion {recursion}")
    if args.all_props:
        for name, lhs, rhs in calc.verify_mainprop(args.n):
            ok = ok and lhs == rhs
            print(f"  {name}: {'EQUAL' if lhs == rhs else 'MISMATCH'} ({lhs} vs {rhs})")
        euler = calc.euler_identity_check(args.n)
        ok = ok and euler
        print(f"  per-tree flag count identity: {'HOLDS' if euler else 'FAILS'}")
    return 0 if ok else 1


def cmd_hurwitz(args) -> int:
    if args.mod_conj and not args.orbits:
        raise MalformedSpec("--mod-conj needs --orbits")
    _require_n(args, 1)
    group = _load_group(args)
    order, n = group.order, args.n
    # Work: order^(n-1) tuples of length n.  With --orbits, with or without
    # --mod-conj, that times 2(n-1), an upper bound: the closure moves each
    # m-tuple of each level m <= n - 1 by one lookup and each top block by one
    # more, and decodes a tuple once per orbit and per --mod-conj class counted.
    factor, count = n, f"{order}^{n - 1} tuples of length {n}"
    if args.orbits:
        factor *= 2 * (n - 1)
        count += f", times 2(n-1) = {2 * (n - 1)} for orbits,"
    if _exceeds(order, n - 1, factor, TUPLE_CAP):
        raise SizeLimit(f"{count} exceed tuple cap {TUPLE_CAP}")
    # The last entry is forced by the first n - 1, so the count needs no list.
    print(f"product-one tuples for {group.name}, n = {n}: {order ** (n - 1)}")
    if args.orbits:
        orbits = braid_orbits(group, n, args.mod_conj)
        print(f"braid orbits{' mod conjugation' if args.mod_conj else ''}: {len(orbits)}")
        print("orbit,size,representative")
        for idx, (least, size) in enumerate(orbits):
            print(f"{idx},{size},{' '.join(map(str, least))}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covermotive",
        description="exact classes of compactified moduli of abelian covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p, required=True):
        given = p.add_mutually_exclusive_group(required=required)
        given.add_argument("--group", help="builtin family, e.g. cyclic:2 or symmetric:3")
        given.add_argument("--group-file", help="path to a JSON group spec")

    p_group = sub.add_parser("group", help="build a group and print class data")
    add_group_args(p_group)
    p_group.add_argument("--format", choices=("text", "json"), default="text")
    p_group.set_defaults(func=cmd_group)

    p_trees = sub.add_parser("trees", help="census of stable trees")
    p_trees.add_argument("--n", type=integer, required=True)
    add_group_args(p_trees, required=False)
    p_trees.add_argument("--csv", action="store_true", help="emit per-topology census rows")
    p_trees.set_defaults(func=cmd_trees)

    p_class = sub.add_parser("class", help="compute the compactified class")
    add_group_args(p_class)
    p_class.add_argument("--n", type=integer, required=True)
    one_or_all = p_class.add_mutually_exclusive_group()
    one_or_all.add_argument("--marking", help="comma-separated class ids, one per point")
    one_or_all.add_argument("--per-marking", action="store_true", help="JSON only")
    p_class.add_argument("--with-verification", action="store_true")
    p_class.add_argument("--format", choices=("json", "text"), default="json")
    p_class.set_defaults(func=cmd_class)

    p_verify = sub.add_parser("verify", help="stratification against recursion")
    add_group_args(p_verify)
    p_verify.add_argument("--n", type=integer, required=True)
    p_verify.add_argument("--all-props", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_hurwitz = sub.add_parser("hurwitz", help="product-one tuples and braid orbits")
    add_group_args(p_hurwitz)
    p_hurwitz.add_argument("--n", type=integer, required=True)
    p_hurwitz.add_argument("--orbits", action="store_true")
    p_hurwitz.add_argument("--mod-conj", action="store_true")
    p_hurwitz.set_defaults(func=cmd_hurwitz)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does.  As the Python docs'
        # note on SIGPIPE advises, point stdout at devnull so that the final
        # flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 5


if __name__ == "__main__":
    sys.exit(main())
