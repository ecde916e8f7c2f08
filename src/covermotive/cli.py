"""Command line driver.

Subcommands:

* group    - build a group and print its conjugacy data
* trees    - census of stable trees, optionally with class markings
* class    - compute the compactified class for a group and degree
* verify   - check stratification against recursion, exit 0 only on agreement
* hurwitz  - enumerate product-one tuples and braid orbits

Groups are given either as --builtin strings (cyclic:3, product_cyclic:2,2,
dihedral:4, symmetric:3) or as a JSON spec file via --group-file.  All output
is byte-deterministic for a fixed input.  The environment variable
COVERMOTIVE_CAP overrides the enumeration caps; it may lower the stable tree
cap but never raise it.

Exit codes: 0 success (and verified equality for verify), 1 verification
failure, 2 malformed input, 3 size or enumeration cap exceeded, 4 abelian-only
functionality asked of a nonabelian group.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from .calculator import Calculator, build_report
from .errors import (
    DegreeOverflow,
    MalformedSpec,
    NotAGroup,
    SizeLimit,
    UnsupportedNonabelian,
)
from .groups import FiniteGroup, build_group, class_involution, class_order, conjugacy_classes
from .hurwitz import DEFAULT_TUPLE_CAP, braid_orbits, enumerate_hurwitz
from .motives import format_poly, monomial
from .trees import (
    DEFAULT_MARKING_CAP,
    STABLE_TREE_CAP,
    enumerate_stable_trees,
    export_dot,
    profile_counts,
)

SCHEMA_VERSION = 1


def _cap_override(default: int) -> int:
    raw = os.environ.get("COVERMOTIVE_CAP")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise MalformedSpec(f"COVERMOTIVE_CAP must be an integer, got {raw!r}")
    if value < 1:
        raise MalformedSpec(f"COVERMOTIVE_CAP must be positive, got {value}")
    return value


def _require_n(args, least: int) -> None:
    """Refuse a degree below the subcommand's minimum before any work."""
    if args.n < least:
        raise MalformedSpec(f"--n must be at least {least}, got {args.n}")


def _parse_builtin(text: str) -> dict:
    kind, _, params = text.partition(":")
    try:
        values = [int(p) for p in params.split(",")] if params else []
    except ValueError:
        raise MalformedSpec(f"builtin parameters must be integers, got {params!r}")
    return {"builtin": {"kind": kind, "params": values}}


def _load_group(args) -> FiniteGroup:
    if getattr(args, "group_file", None):
        try:
            spec = json.loads(Path(args.group_file).read_text())
        except OSError as exc:
            raise MalformedSpec(f"cannot read group file: {exc}")
        except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
            raise MalformedSpec(f"group file is not valid JSON: {exc}")
        if isinstance(spec, dict):
            spec.pop("schema", None)
        return build_group(spec)
    if getattr(args, "group", None):
        return build_group(_parse_builtin(args.group))
    raise MalformedSpec("no group given: use --group or --group-file")


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _poly_payload(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def _class_report_payload(report) -> dict:
    payload = {
        "schema": SCHEMA_VERSION,
        "group": report.group_name,
        "n": report.n,
        "coefficients": _poly_payload(report.cls),
        "hodge_euler": report.hodge_euler,
        "poincare": None if report.poincare is None else [str(c) for c in report.poincare],
    }
    if report.per_marking is not None:
        payload["per_marking"] = {
            ",".join(str(c) for c in cvec): _poly_payload(cls)
            for cvec, cls in report.per_marking.items()
        }
    if report.verification is not None:
        v = report.verification
        payload["verification"] = {
            "equal": v.equal,
            "lhs": _poly_payload(v.lhs),
            "rhs": _poly_payload(v.rhs),
            "terms": {name: _poly_payload(t) for name, t in v.terms},
        }
    return payload


def cmd_group(args) -> int:
    group = _load_group(args)
    conj = conjugacy_classes(group)
    iota = class_involution(group)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "name": group.name,
            "order": group.order,
            "abelian": group.is_abelian(),
            "class_count": conj.count,
            "class_sizes": list(conj.sizes),
            "class_orders": [class_order(group, c) for c in range(conj.count)],
            "involution": list(iota.mapping),
        }
        sys.stdout.write(_json_dumps(payload))
    else:
        print(f"group {group.name}: order {group.order}, "
              f"{'abelian' if group.is_abelian() else 'nonabelian'}")
        print(f"conjugacy classes: {conj.count}")
        for c in range(conj.count):
            print(f"  class {c}: size {conj.sizes[c]}, element order "
                  f"{class_order(group, c)}, inverse class {iota(c)}")
    return 0


def cmd_trees(args) -> int:
    # A row depends on its tree only through the edge count E: E + 1 vertices,
    # classes^(n + E) markings, and the sweep's product-one leaf tuples as the
    # admissible ones.  Rows go by E, as enumerate_stable_trees orders them.
    _require_n(args, 3)
    n, tree_cap = args.n, min(STABLE_TREE_CAP, _cap_override(STABLE_TREE_CAP))
    per_edges = Counter()
    for profile, count in profile_counts(n, tree_cap).items():
        per_edges[len(profile) - 1] += count
    columns = {e: [e + 1, e] for e in per_edges}
    group = None
    if args.group or getattr(args, "group_file", None):
        group = _load_group(args)
        ncls = conjugacy_classes(group).count
        cap = _cap_override(DEFAULT_MARKING_CAP)
        most = ncls ** (2 * n - 3)  # on a tree with the most edges, n - 3
        if most > cap:
            raise SizeLimit(f"{most} markings exceed cap {cap}")
        admissible = len(Calculator(group, tree_cap=tree_cap).sweep(n).per_marking)
        for e, row in columns.items():
            row += [ncls ** (n + e), admissible]
    if args.dot:
        out = Path(args.dot)
        out.mkdir(parents=True, exist_ok=True)
        for idx, nt in enumerate(enumerate_stable_trees(n, tree_cap)):
            (out / f"tree_{idx:04d}.dot").write_text(export_dot(nt))
    if args.csv:
        header = ["topology", "vertices", "edges"]
        if group is not None:
            header += ["gerby", "admissible"]
        print(",".join(header))
        idx = 0
        for e in sorted(per_edges):
            tail = ",".join(map(str, columns[e]))
            sys.stdout.write("".join(f"{i},{tail}\n" for i in range(idx, idx + per_edges[e])))
            idx += per_edges[e]
    else:
        total = sum(per_edges.values())
        print(f"stable trees with {n} leaves: {total} topologies")
        if group is not None:
            gerby = sum(count * columns[e][2] for e, count in per_edges.items())
            print(f"marked trees over {group.name}: {gerby}")
            print(f"admissible marked trees: {total * admissible}")
    return 0


def _parse_marking(text: str, n: int, ncls: int) -> tuple[int, ...]:
    try:
        marking = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise MalformedSpec(f"marking must be comma-separated class ids, got {text!r}")
    if len(marking) != n:
        raise MalformedSpec(f"marking length {len(marking)} does not match n = {n}")
    for c in marking:
        if not 0 <= c < ncls:
            raise MalformedSpec(f"marking names class {c}; class ids run 0..{ncls - 1}")
    return marking


def _calculator(args) -> Calculator:
    """Load the group; refuse n < 3 and degrees beyond the marking or tree cap.

    The sweep lists the product-one class tuples of each degree up to n, the
    recursion works on their types, and the strata and verify --all-props's
    flag count line are read off the valence profiles of the stable n-trees,
    so the checks bound every enumeration before it starts.
    """
    _require_n(args, 3)
    group = _load_group(args)
    ncls = conjugacy_classes(group).count
    cap = _cap_override(DEFAULT_MARKING_CAP)
    # ncls ** cap.bit_length() > cap whenever ncls > 1, so the clamped power
    # decides the same way without building a huge integer.
    if ncls ** min(args.n, cap.bit_length()) > cap:
        raise SizeLimit(f"{ncls}^{args.n} class tuples exceed marking cap {cap}")
    tree_cap = min(STABLE_TREE_CAP, _cap_override(STABLE_TREE_CAP))
    if args.n > tree_cap:
        raise SizeLimit(f"n = {args.n} exceeds stable tree cap {tree_cap}")
    return Calculator(group, tree_cap=tree_cap)


def cmd_class(args) -> int:
    calc = _calculator(args)
    marking = _parse_marking(args.marking, args.n, calc.conj.count) if args.marking else None
    report = build_report(
        calc,
        args.n,
        marking=marking,
        with_per_marking=args.per_marking,
        with_verification=args.with_verification,
    )
    if args.format == "json":
        sys.stdout.write(_json_dumps(_class_report_payload(report)))
    else:
        label = f"{report.group_name}, n = {report.n}"
        if marking is not None:
            label += f", marking ({args.marking})"
        print(f"class for {label}: {report.cls}")
        print(f"hodge-euler: {report.hodge_euler}")
        if report.poincare is not None:
            print(f"poincare: {format_poly(report.poincare, monomial('t'))}")
        print(f"census: {report.census['topologies']} topologies, "
              f"{report.census['gerby_trees']} marked trees, "
              f"{report.census['admissible_strata']} admissible strata")
        if report.verification is not None:
            print(f"verification: {'equal' if report.verification.equal else 'MISMATCH'}")
    return 0


def cmd_verify(args) -> int:
    calc = _calculator(args)
    report = calc.verify_main_theorem(args.n)
    ok = report.equal
    print(f"{report.group_name}, n = {report.n}")
    for name, term in report.terms:
        print(f"  {name}: {term}")
    print(f"  stratification: {report.lhs}")
    print(f"  recursion:      {report.rhs}")
    print(f"  {'EQUAL' if report.equal else 'MISMATCH'}")
    if args.all_props:
        for sub in calc.verify_mainprop(args.n):
            ok = ok and sub.equal
            print(f"  {sub.name}: {'EQUAL' if sub.equal else 'MISMATCH'} "
                  f"({sub.lhs} vs {sub.rhs})")
        euler = calc.euler_identity_check(args.n)
        ok = ok and euler
        print(f"  per-tree flag count identity: {'HOLDS' if euler else 'FAILS'}")
    return 0 if ok else 1


def cmd_hurwitz(args) -> int:
    _require_n(args, 1)
    group = _load_group(args)
    cap = _cap_override(DEFAULT_TUPLE_CAP)
    # Bound: order^(n-1) tuples of length n, and with --orbits that times
    # 2(n-1), twice the n-1 braid moves the closure makes per vector.  The
    # power is clamped as in _calculator, so a large n builds no huge integer.
    work = group.order ** min(args.n - 1, cap.bit_length()) * args.n
    moves = ""
    if args.orbits:
        work *= 2 * (args.n - 1)
        moves = f", times 2(n-1) = {2 * (args.n - 1)} for orbits,"
    if work > cap:
        raise SizeLimit(
            f"{group.order}^{args.n - 1} tuples of length {args.n}{moves} exceed tuple cap {cap}"
        )
    vectors = enumerate_hurwitz(group, args.n, cap=cap)
    print(f"product-one tuples for {group.name}, n = {args.n}: {len(vectors)}")
    if args.orbits:
        orbits = braid_orbits(group, vectors, mod_conjugation=args.mod_conj)
        print(f"braid orbits{' mod conjugation' if args.mod_conj else ''}: {len(orbits)}")
        print("orbit,size,representative")
        for idx, orbit in enumerate(orbits):
            rep = " ".join(str(g) for g in orbit[0])
            print(f"{idx},{len(orbit)},{rep}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covermotive",
        description="exact classes of compactified moduli of abelian covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("--group", help="builtin family, e.g. cyclic:2 or symmetric:3")
        p.add_argument("--group-file", help="path to a JSON group spec")

    p_group = sub.add_parser("group", help="build a group and print class data")
    add_group_args(p_group)
    p_group.add_argument("--format", choices=("text", "json"), default="text")
    p_group.set_defaults(func=cmd_group)

    p_trees = sub.add_parser("trees", help="enumerate stable trees")
    p_trees.add_argument("--n", type=int, required=True)
    add_group_args(p_trees)
    p_trees.add_argument("--csv", action="store_true", help="emit per-topology census rows")
    p_trees.add_argument("--dot", help="directory for DOT files, one per topology")
    p_trees.set_defaults(func=cmd_trees)

    p_class = sub.add_parser("class", help="compute the compactified class")
    add_group_args(p_class)
    p_class.add_argument("--n", type=int, required=True)
    p_class.add_argument("--marking", help="comma-separated class ids, one per point")
    p_class.add_argument("--per-marking", action="store_true")
    p_class.add_argument("--with-verification", action="store_true")
    p_class.add_argument("--format", choices=("json", "text"), default="json")
    p_class.set_defaults(func=cmd_class)

    p_verify = sub.add_parser("verify", help="stratification against recursion")
    add_group_args(p_verify)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--all-props", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_hurwitz = sub.add_parser("hurwitz", help="product-one tuples and braid orbits")
    add_group_args(p_hurwitz)
    p_hurwitz.add_argument("--n", type=int, required=True)
    p_hurwitz.add_argument("--orbits", action="store_true")
    p_hurwitz.add_argument("--mod-conj", action="store_true")
    p_hurwitz.set_defaults(func=cmd_hurwitz)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedSpec, NotAGroup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeLimit, DegreeOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedNonabelian as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
