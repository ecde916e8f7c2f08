"""Run one covermotive command with the public functions of every layer wrapped.

Usage: python3 perfbench/trace_child.py <covermotive arguments>

The program is not changed: the wrappers are installed from here, at every
binding a caller uses (a function imported by name into another module is
replaced there too, for example ``covermotive.calculator.compose``).  stdout
is the command's own, byte for byte.  When the command ends, one line
``PERFBENCH-TRACE <json>`` is appended to stderr.  Its ``values`` map holds,
for this process:

* ``<layer>.<function>_s``: self time, the span's duration minus the time
  covered by wrapped calls made inside it (and minus the tracer's own
  bookkeeping);
* work counters such as ``trees.enumerate.trees_out``.

A key is left out when the function or attribute it is read from does not
exist in the program, so a removed function reads as absent, never as 0.
Work on a memoised result (``Calculator.sweep``) is counted once per result.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

MARKER = "PERFBENCH-TRACE "


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = {}
        self.broken: set[str] = set()
        self._open: list[list[float]] = []  # child time of each open span
        self._counted: list[object] = []  # memoised results already counted
        self.calculator = None  # the Calculator whose method is running

    def provide(self, *keys: str) -> None:
        for key in keys:
            self.values.setdefault(key, 0)

    def add(self, key: str, amount: float) -> None:
        self.values[key] += amount

    def first_sight(self, result) -> bool:
        if any(result is seen for seen in self._counted):
            return False
        self._counted.append(result)
        return True

    def choose(self, time_key, args) -> str:
        try:
            return time_key(args)
        except (AttributeError, TypeError):
            self.broken.update(time_key.keys)
            return time_key.keys[0]

    def span(self, fn, time_key, counters=(), count=None, calls_key=None, method=False):
        """Wrap fn in a span that adds its self time to time_key.

        time_key is a key or a function of the call's arguments returning one.
        count(result, args) returns {counter key: increment}; counters lists
        the keys it may return.
        """
        keys = [time_key] if isinstance(time_key, str) else list(time_key.keys)
        self.provide(*keys, *counters, *([calls_key] if calls_key else []))
        tracer = self
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if method:
                tracer.calculator = args[0]
            key = time_key if isinstance(time_key, str) else tracer.choose(time_key, args)
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                tracer.add(key, (t1 - t0) - children[0])
                if calls_key:
                    tracer.add(calls_key, 1)
            if count is not None:
                try:
                    increments = count(result, args)
                except (AttributeError, TypeError, KeyError):
                    tracer.broken.update(counters)
                else:
                    for counter, amount in increments.items():
                        tracer.add(counter, amount)
            if open_spans:
                open_spans[-1][0] += perf_counter() - t0
            return result

        return wrapper

    def counting(self, fn, key):
        """Wrap fn so that it only counts its calls; no span, so no timer cost."""
        self.provide(key)
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        return {"values": {k: v for k, v in self.values.items() if k not in self.broken}}


def _rebind(original, wrapper) -> None:
    """Replace original wherever a covermotive module binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "covermotive" or name.startswith("covermotive.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class _ComposeKey:
    """compose's time goes to the recursion term its outer argument makes.

    The outer argument of the edge-unit term is the degree-2 unit; every other
    outer module (the open part) feeds the slots term.
    """

    keys = ("smodules.compose.slots_s", "smodules.compose.edge_unit_s")

    def __call__(self, args) -> str:
        outer = args[0]
        if outer.degrees() == [2]:
            return "smodules.compose.edge_unit_s"
        return "smodules.compose.slots_s"


def _atoms(module) -> int:
    return len(module.atoms())


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer; skip what the program lacks."""
    import covermotive.cli  # noqa: F401  (loads every layer the CLI uses)

    modules = sys.modules

    def wrap_function(module_name, attr, *span_args, **span_kwargs):
        original = getattr(modules.get(module_name), attr, None)
        if original is None:
            return
        _rebind(original, tracer.span(original, *span_args, **span_kwargs))

    def wrap_method(cls_path, attr, *span_args, **span_kwargs):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(modules.get(module_name), cls_name, None)
        original = getattr(cls, attr, None)
        if original is None:
            return
        setattr(cls, attr, tracer.span(original, *span_args, method=True, **span_kwargs))

    def once(count):
        """Count a memoised result's work only the first time it is returned."""
        return lambda result, args: count(result, args) if tracer.first_sight(result) else {}

    # groups
    wrap_function("covermotive.groups", "build_group", "groups.build_group_s")
    wrap_function("covermotive.groups", "conjugacy_classes", "groups.conjugacy_classes_s")

    # trees
    wrap_function(
        "covermotive.trees", "enumerate_stable_trees", "trees.enumerate_s",
        counters=("trees.enumerate.trees_out",),
        count=lambda r, a: {"trees.enumerate.trees_out": len(r)},
    )
    wrap_function(
        "covermotive.trees", "gerby_markings", "trees.gerby_markings_s",
        counters=("trees.gerby_markings.markings_out",),
        count=lambda r, a: {"trees.gerby_markings.markings_out": len(r)},
    )
    wrap_function(
        "covermotive.trees", "is_admissible", "trees.is_admissible_s",
        calls_key="trees.is_admissible.calls",
        counters=("trees.is_admissible.admissible",),
        count=lambda r, a: {"trees.is_admissible.admissible": int(bool(r))},
    )

    # calculator
    calc = "covermotive.calculator.Calculator"
    wrap_method(calc, "topologies", "calculator.topologies_s")
    wrap_method(
        calc, "sweep", "calculator.sweep_s",
        counters=("calculator.sweep.markings_visited", "calculator.sweep.admissible"),
        count=once(lambda r, a: {
            "calculator.sweep.markings_visited": r.topology_count * a[0].conj.count ** r.n,
            "calculator.sweep.admissible": r.admissible_count,
        }),
    )
    wrap_method(
        calc, "open_module", "calculator.open_module_s",
        counters=("calculator.open_module.atoms_out",),
        count=lambda r, a: {"calculator.open_module.atoms_out": _atoms(r)},
    )
    wrap_method(
        calc, "dbar_module", "calculator.dbar_module_s",
        counters=("calculator.dbar_module.atoms_out",),
        count=lambda r, a: {"calculator.dbar_module.atoms_out": _atoms(r)},
    )
    wrap_method(calc, "terms", "calculator.terms_s")

    # smodules
    wrap_function(
        "covermotive.smodules", "compose", _ComposeKey(),
        counters=("smodules.compose.atoms_out",),
        count=lambda r, a: {"smodules.compose.atoms_out": _atoms(r)},
    )

    def count_convolution(result, args):
        iota = tracer.calculator.iota
        atoms = result.atoms()
        unit_pairs = sum(
            1 for atom in atoms if len(atom.attach) == 2 and atom.attach[1] == iota(atom.attach[0])
        )
        return {
            "smodules.day_convolve.atoms_out": len(atoms),
            "smodules.day_convolve.unit_pair_atoms": unit_pairs,
        }

    wrap_function(
        "covermotive.smodules", "day_convolve", "smodules.day_convolve_s",
        counters=("smodules.day_convolve.atoms_out", "smodules.day_convolve.unit_pair_atoms"),
        count=count_convolution,
    )

    # motives: operation counts only
    poly = getattr(modules.get("covermotive.motives"), "MotivePoly", None)
    for attr, key in (("__mul__", "motives.mul_calls"), ("__add__", "motives.add_calls")):
        original = getattr(poly, attr, None)
        if original is not None:
            setattr(poly, attr, tracer.counting(original, key))

    # hurwitz
    wrap_function(
        "covermotive.hurwitz", "enumerate_hurwitz", "hurwitz.enumerate_s",
        counters=("hurwitz.enumerate.tuples_out",),
        count=lambda r, a: {"hurwitz.enumerate.tuples_out": len(r)},
    )
    wrap_function(
        "covermotive.hurwitz", "braid_orbits", "hurwitz.braid_orbits_s",
        counters=("hurwitz.braid_orbits.orbits_out",),
        count=lambda r, a: {"hurwitz.braid_orbits.orbits_out": len(r)},
    )
    wrap_function(
        "covermotive.hurwitz", "nielsen_count", "hurwitz.nielsen_count_s",
        calls_key="hurwitz.nielsen_count.calls",
    )

    # cli: main's self time is argument parsing and output formatting
    wrap_function("covermotive.cli", "main", "cli.self_s")


def _freeness_checks():
    """The program's own freeness-check counter, if it still keeps one."""
    stats = getattr(sys.modules.get("covermotive.smodules"), "stats", None)
    checks = getattr(stats, "freeness_checks", None)
    return checks if isinstance(checks, int) else None


def main(argv: list[str]) -> int:
    import covermotive.cli

    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = covermotive.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        report = tracer.report()
        checks = _freeness_checks()
        if checks is not None:
            report["values"]["smodules.freeness_checks"] = checks
        sys.stderr.write(MARKER + json.dumps(report, sort_keys=True) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
