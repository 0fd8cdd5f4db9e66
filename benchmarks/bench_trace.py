"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of toricwedge's modules with
wrappers that record spans: calls, inclusive time and self time (a span's
duration minus the part its child spans cover), split by the calling span.
Each function is patched under every name that binds it in any toricwedge
module, so a call is caught whichever module looks it up.  A function that
no longer exists is reported as absent and its metrics read 0.  Cache
figures come from each lru_cache's cache_info().
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("planefan", "wedgepuzzle", "shephard", "exactmath", "cli")

# (module, function, span name)
SPANS = (
    ("planefan", "enumerate_fans", "planefan.enumerate_fans"),
    ("wedgepuzzle", "enumerate_puzzles", "wedgepuzzle.enumerate"),
    ("wedgepuzzle", "validate_puzzle", "wedgepuzzle.validate"),
    ("wedgepuzzle", "puzzle_canonical_key", "wedgepuzzle.canonical_key"),
    ("wedgepuzzle", "realizable_square", "wedgepuzzle.realizable_square"),
    ("wedgepuzzle", "assemble_matrix", "wedgepuzzle.assemble_matrix"),
    ("wedgepuzzle", "check_nonsingular", "wedgepuzzle.check_nonsingular"),
    ("shephard", "positive_relation", "shephard.positive_relation"),
    ("shephard", "shephard_diagram", "shephard.diagram"),
    ("shephard", "s_sigma", "shephard.s_sigma"),
    ("shephard", "support_function_polytopal", "shephard.support"),
    ("exactmath", "strict_feasible", "exactmath.lp"),
    ("cli", "certificate_to_dict", "cli.serialize"),
    ("cli", "matrix_to_dict", "cli.serialize"),
    ("cli", "puzzle_to_dict", "cli.serialize"),
    ("cli", "_write", "cli.serialize"),
    ("cli", "load_input", "cli.load_input"),
)
# called millions of times: counted, not timed
COUNTED = (("exactmath", "integer_det", "exactmath.integer_det"),)
CACHES = (
    ("planefan", "canonical_form"),
    ("wedgepuzzle", "shift"),
    ("wedgepuzzle", "is_edge"),
    ("shephard", "_positive_relation"),
)
# the span that calls an LP names the oracle it serves
LP_CALLERS = {
    "shephard.s_sigma": "exactmath.lp.shephard.s",
    "shephard.support": "exactmath.lp.support.s",
    "shephard.positive_relation": "exactmath.lp.posrel.s",
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("planefan.enumerate_fans.s", "s", "lower"),
    ("planefan.base_fans", "count", "lower"),
    ("planefan.canonical_form.misses", "count", "lower"),
    ("wedgepuzzle.enumerate.s", "s", "lower"),
    ("wedgepuzzle.candidates_validated", "count", "lower"),
    ("wedgepuzzle.classes", "count", "higher"),
    ("wedgepuzzle.class_yield", "ratio", "higher"),
    ("wedgepuzzle.validate.s", "s", "lower"),
    ("wedgepuzzle.canonical_key.calls", "count", "lower"),
    ("wedgepuzzle.canonical_key.s", "s", "lower"),
    ("wedgepuzzle.realizable_square.calls", "count", "lower"),
    ("wedgepuzzle.realizable_square.s", "s", "lower"),
    ("wedgepuzzle.shift.cache_size", "count", "lower"),
    ("wedgepuzzle.is_edge.cache_size", "count", "lower"),
    ("wedgepuzzle.shift.misses", "count", "lower"),
    ("wedgepuzzle.assemble_matrix.s", "s", "lower"),
    ("wedgepuzzle.check_nonsingular.calls", "count", "lower"),
    ("wedgepuzzle.check_nonsingular.per_class", "count/class", "lower"),
    ("wedgepuzzle.check_nonsingular.s", "s", "lower"),
    ("shephard.positive_relation.s", "s", "lower"),
    ("shephard.positive_relation.lp_solves", "count", "lower"),
    ("shephard.diagram.s", "s", "lower"),
    ("shephard.s_sigma.s", "s", "lower"),
    ("shephard.support.s", "s", "lower"),
    ("exactmath.lp.calls", "count", "lower"),
    ("exactmath.lp.rows_mean", "rows", "lower"),
    ("exactmath.lp.vars_mean", "vars", "lower"),
    ("exactmath.lp.shephard.s", "s", "lower"),
    ("exactmath.lp.support.s", "s", "lower"),
    ("exactmath.lp.posrel.s", "s", "lower"),
    ("exactmath.integer_det.calls", "count", "lower"),
    ("cli.serialize.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.load_input.s", "s", "lower"),
)


def modules():
    return {name: importlib.import_module(f"toricwedge.{name}") for name in MODULES}


def clear_caches() -> None:
    """Empty every lru_cache in the program, as a fresh process would have."""
    for mod in modules().values():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and \
                    getattr(obj, "__module__", "").startswith("toricwedge"):
                obj.cache_clear()


class Tracer:
    def __init__(self):
        self.stack: list = []  # [span name, time covered by child spans]
        self.calls = defaultdict(int)  # (span, parent) -> calls
        self.self_s = defaultdict(float)  # (span, parent) -> self time
        self.incl_s = defaultdict(float)  # (span, parent) -> inclusive time
        self.counts = defaultdict(int)
        self.lp_rows = 0
        self.lp_vars = 0
        self.cache_misses = defaultdict(int)
        self.cache_peak = defaultdict(int)
        self.absent: list = []
        self._patched: list = []  # (module, attr, original)

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        mods = modules()
        hooks = {
            "planefan.enumerate_fans": self._count_result("planefan.base_fans"),
            "wedgepuzzle.enumerate": self._count_result("wedgepuzzle.classes"),
            "exactmath.lp": self._lp_size,
        }
        for mod_name, attr, span in SPANS:
            fn = getattr(mods[mod_name], attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patch(mods, fn, self._span(span, fn, hooks.get(span)))
        for mod_name, attr, counter in COUNTED:
            fn = getattr(mods[mod_name], attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._patch(mods, fn, self._counter(counter, fn))
        for mod_name, attr in CACHES:
            if not hasattr(getattr(mods[mod_name], attr, None), "cache_info"):
                self.absent.append(f"{mod_name}.{attr}.cache_info")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, mods, fn, wrapper) -> None:
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _span(self, name, fn, on_call):
        stack, calls, self_s, incl_s = self.stack, self.calls, self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                key = (name, parent)
                calls[key] += 1
                incl_s[key] += dt
                self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_call is not None:
                on_call(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_result(self, counter):
        def hook(args, result):
            self.counts[counter] += len(result)
        return hook

    def _lp_size(self, args, result) -> None:
        system = args[0]
        self.lp_vars += system.dimension
        self.lp_rows += len(system.equalities) + len(system.weak) + len(system.strict)

    # -- reading ----------------------------------------------------------
    def read_caches(self) -> None:
        """Fold the caches' figures for one operation in; call before the next
        operation clears them."""
        mods = modules()
        for mod_name, attr in CACHES:
            info = getattr(getattr(mods[mod_name], attr, None), "cache_info", None)
            if info is None:
                continue
            ci = info()
            name = f"{mod_name}.{attr}"
            self.cache_misses[name] += ci.misses
            self.cache_peak[name] = max(self.cache_peak[name], ci.currsize)

    def _sum(self, table, span, parents=None) -> float:
        return sum(v for (s, p), v in table.items()
                   if s == span and (parents is None or p in parents))

    def metrics(self, certified: int, output_bytes: int) -> dict:
        calls = lambda span: self._sum(self.calls, span)
        self_s = lambda span: self._sum(self.self_s, span)
        validated = calls("wedgepuzzle.validate")
        classes = self.counts["wedgepuzzle.classes"]
        lp_calls = calls("exactmath.lp")
        minors_outside_squares = sum(
            v for (s, p), v in self.calls.items()
            if s == "wedgepuzzle.check_nonsingular" and p != "wedgepuzzle.realizable_square")
        values = {
            "planefan.enumerate_fans.s": self_s("planefan.enumerate_fans"),
            "planefan.base_fans": self.counts["planefan.base_fans"],
            "planefan.canonical_form.misses": self.cache_misses["planefan.canonical_form"],
            "wedgepuzzle.enumerate.s": self._sum(self.incl_s, "wedgepuzzle.enumerate"),
            "wedgepuzzle.candidates_validated": validated,
            "wedgepuzzle.classes": classes,
            "wedgepuzzle.class_yield": classes / validated if validated else 0.0,
            "wedgepuzzle.validate.s": self_s("wedgepuzzle.validate"),
            "wedgepuzzle.canonical_key.calls": calls("wedgepuzzle.canonical_key"),
            "wedgepuzzle.canonical_key.s": self_s("wedgepuzzle.canonical_key"),
            "wedgepuzzle.realizable_square.calls": calls("wedgepuzzle.realizable_square"),
            "wedgepuzzle.realizable_square.s": self_s("wedgepuzzle.realizable_square"),
            "wedgepuzzle.shift.cache_size": self.cache_peak["wedgepuzzle.shift"],
            "wedgepuzzle.is_edge.cache_size": self.cache_peak["wedgepuzzle.is_edge"],
            "wedgepuzzle.shift.misses": self.cache_misses["wedgepuzzle.shift"],
            "wedgepuzzle.assemble_matrix.s": self_s("wedgepuzzle.assemble_matrix"),
            "wedgepuzzle.check_nonsingular.calls": calls("wedgepuzzle.check_nonsingular"),
            "wedgepuzzle.check_nonsingular.per_class":
                minors_outside_squares / certified if certified else 0.0,
            "wedgepuzzle.check_nonsingular.s": self_s("wedgepuzzle.check_nonsingular"),
            "shephard.positive_relation.s": self_s("shephard.positive_relation"),
            "shephard.positive_relation.lp_solves":
                self.cache_misses["shephard._positive_relation"],
            "shephard.diagram.s": self_s("shephard.diagram"),
            "shephard.s_sigma.s": self_s("shephard.s_sigma"),
            "shephard.support.s": self_s("shephard.support"),
            "exactmath.lp.calls": lp_calls,
            "exactmath.lp.rows_mean": self.lp_rows / lp_calls if lp_calls else 0.0,
            "exactmath.lp.vars_mean": self.lp_vars / lp_calls if lp_calls else 0.0,
            "exactmath.integer_det.calls": self.counts["exactmath.integer_det"],
            "cli.serialize.s": self_s("cli.serialize"),
            "cli.output_bytes": output_bytes,
            "cli.load_input.s": self_s("cli.load_input"),
        }
        for caller, metric in LP_CALLERS.items():
            values[metric] = self._sum(self.incl_s, "exactmath.lp", {caller})
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def summary(self) -> dict:
        """Aggregated spans, one entry per (span, calling span)."""
        return {
            "spans": [{"span": s, "parent": p, "calls": self.calls[(s, p)],
                       "inclusive_s": self.incl_s[(s, p)], "self_s": self.self_s[(s, p)]}
                      for s, p in sorted(self.calls)],
            "counts": dict(self.counts),
            "cache_misses": dict(self.cache_misses),
            "cache_peak_size": dict(self.cache_peak),
            "absent": self.absent,
        }
