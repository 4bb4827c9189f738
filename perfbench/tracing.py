"""Per-layer numbers, taken by wrapping the package's public names from outside.

:class:`Tracer` replaces module attributes (and every other module attribute,
module-level dict entry or class alias bound to the same object) with timing
and counting wrappers.  Nothing in the package is edited.  A name a later
refactor removes is recorded in ``absent`` and its metrics read 0.

Spans nest: a wrapped call records its duration, and the time its wrapped
callees cover, so a layer's self time is the difference.  A recursive name
(``eval_expr``) is timed at its outermost call only.  ``echelon_reduce`` is
counted without a span; it also counts *systems*, the distinct row lists it
is asked to extend, attributed to the innermost open span: one per pair sum
in the punctual engine's pair phase and one per candidate subspace in the
closed-subspace sweep.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from statistics import median

#: (module, attribute, span key); a dotted attribute names a class member
SPANS = (
    ("motivecount.cli", "main", "cli.main"),
    ("motivecount.oracle.counting", "count_punctual_total_vs_table", "oracle.cell"),
    ("motivecount.oracle.counting", "punctual_ideal_records", "oracle.records"),
    ("motivecount.oracle.counting", "count_grassmannian", "oracle.grassmannian"),
    ("motivecount.oracle._pure", "enumerate_ideals", "oracle.enumerate"),
    ("motivecount.oracle._pure", "principal_closures", "oracle.principal_sweep"),
    ("motivecount.oracle._pure", "close_under_multiplication", "oracle.element_closure"),
    ("motivecount.oracle.ideals", "IdealRecord.from_rows", "oracle.record_check"),
    ("motivecount.oracle.ideals", "enumerate_closed_subspaces", "oracle.closed_sweep"),
    ("motivecount.motive", "MotiveClass.__mul__", "motive.mul"),
    ("motivecount.motive", "MotiveClass.__add__", "motive.add"),
    ("motivecount.motive", "MotiveClass.sym_power", "motive.sym_power"),
    ("motivecount.motive", "MotiveClass.exact_div", "motive.exact_div"),
    ("motivecount.atoms", "grassmannian", "atoms.grassmannian"),
    ("motivecount.atoms", "hilb_p2", "atoms.hilb_p2"),
    ("motivecount.dsl", "parse", "dsl.parse"),
    ("motivecount.dsl", "eval_expr", "dsl.eval"),
    ("motivecount.dsl", "format_expr", "dsl.format"),
    ("motivecount.strata", "verify_all", "strata.verify_all"),
    ("motivecount.strata", "omega26_assembled", "strata.omega26"),
)

ECHELON_REDUCE = ("motivecount.oracle.ideals", "echelon_reduce")
ECHELON_FORMS = ("motivecount.oracle.counting", "reduced_echelon_forms")
#: lru-cached atoms whose cache_info() gives the hit ratio
CACHED_ATOMS = (("motivecount.atoms", "grassmannian"), ("motivecount.atoms", "hilb_p2"))

#: package modules whose import time the traced run reports
MODULES = (
    "motivecount", "motivecount.motive", "motivecount.atoms", "motivecount.dsl",
    "motivecount.strata", "motivecount.cli", "motivecount.oracle",
    "motivecount.oracle.algebra", "motivecount.oracle.gf", "motivecount.oracle.ideals",
    "motivecount.oracle._pure", "motivecount.oracle.tables", "motivecount.oracle.counting",
)

#: every per-layer metric, in report order
LAYER_METRICS = (
    "oracle.punctual_cell_s", "oracle.principal_sweep_s", "oracle.elements_swept",
    "oracle.principal_ideals", "oracle.pair_sums", "oracle.pair_sum_s",
    "oracle.ideals_found", "oracle.record_check_s", "oracle.echelon_reduce_calls",
    "oracle.dedup_ratio", "oracle.pair_yield",
    "oracle.grassmannian_s", "oracle.echelon_forms", "oracle.closed_sweep_s",
    "oracle.closed_candidates", "oracle.closed_yield",
    "motive.mul_calls", "motive.mul_s", "motive.add_calls", "motive.sym_power_calls",
    "motive.sym_power_s", "motive.exact_div_s",
    "atoms.grassmannian_s", "atoms.hilb_p2_s", "atoms.cache_hit_ratio",
    "dsl.parse_s", "dsl.eval_s", "dsl.format_s",
    "strata.verify_all_s", "strata.omega26_calls", "strata.omega26_s",
    "cli.render_s",
)

#: spans whose every call is also listed with its arguments, for the
#: per-cell reference figures
DETAILED = ("oracle.cell", "oracle.grassmannian", "oracle.closed_sweep")

IMPORT_METRICS = tuple(f"import.{m}_s" for m in MODULES) + ("import.package_s",)


def _resolve(module_name: str, attr: str):
    """(owner, name, raw attribute) or None when the module or name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


def _describe(args) -> str:
    return " ".join(getattr(a, "curve", None) or repr(a) for a in args)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()       # outermost activations, inclusive
        self.child_seconds = Counter()  # time covered by wrapped callees
        self.systems = Counter()       # distinct row lists per enclosing span
        self.sizes = Counter()         # sizes of returned collections
        self.absent: list[str] = []
        self.details: list[tuple[str, str, float]] = []  # (span, arguments, seconds)
        self._stack: list[list] = []   # [key, child seconds]
        self._depth = Counter()
        self._undo: list = []
        self._last_rows = None

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, attr, key in SPANS:
            self._patch(module_name, attr, lambda fn, key=key: self._span(fn, key))
        self._patch(*ECHELON_REDUCE, self._echelon_counter)
        self._patch(*ECHELON_FORMS, self._form_counter)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        found = _resolve(module_name, attr)
        if found is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        owner, name, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        # the name itself, class aliases such as __rmul__ = __mul__, re-exports
        # (from .x import f) and dispatch tables ({"kind": f})
        namespaces = [owner] if isinstance(owner, type) else [
            mod for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "motivecount" or mod_name.startswith("motivecount."))]
        for space in namespaces:
            for other, value in list(vars(space).items()):
                if value is raw:
                    setattr(space, other, replacement)
                    self._undo.append(lambda s=space, o=other: setattr(s, o, raw))
                elif isinstance(value, dict) and not isinstance(owner, type):
                    for k, v in list(value.items()):
                        if v is raw:
                            value[k] = replacement
                            self._undo.append(lambda d=value, k=k: d.__setitem__(k, raw))

    # -- wrappers -------------------------------------------------------------------

    def _span(self, fn, key: str):
        calls, seconds, child, depth, stack = (
            self.calls, self.seconds, self.child_seconds, self._depth, self._stack)
        sizes, details = self.sizes, self.details
        clock = time.perf_counter
        detailed = key in DETAILED

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                seconds[key] += elapsed
                child[key] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if isinstance(result, (tuple, list, dict, set)):
                sizes[key] += len(result)
            if detailed:
                details.append((key, _describe(args), elapsed))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _echelon_counter(self, fn):
        calls, systems, stack = self.calls, self.systems, self._stack

        def wrapper(rows, *args, **kwargs):
            calls["oracle.echelon_reduce"] += 1
            if rows is not self._last_rows:
                self._last_rows = rows
                systems[stack[-1][0] if stack else None] += 1
            return fn(rows, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _form_counter(self, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            for form in fn(*args, **kwargs):
                calls["oracle.echelon_form"] += 1
                yield form

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------------

    def cache_hit_ratio(self) -> float:
        hits = misses = 0
        for module_name, attr in CACHED_ATOMS:
            found = _resolve(module_name, attr)
            raw = found[2] if found else None
            info = getattr(raw, "cache_info", None) or getattr(
                getattr(raw, "__wrapped__", None), "cache_info", None)
            if info is not None:
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self) -> dict[str, float]:
        s, c, z = self.seconds, self.calls, self.sizes

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "oracle.punctual_cell_s": s["oracle.cell"],
            "oracle.principal_sweep_s": s["oracle.principal_sweep"],
            "oracle.elements_swept": c["oracle.element_closure"],
            "oracle.principal_ideals": z["oracle.principal_sweep"],
            "oracle.pair_sums": self.systems["oracle.enumerate"],
            "oracle.pair_sum_s": s["oracle.enumerate"] - self.child_seconds["oracle.enumerate"],
            "oracle.ideals_found": z["oracle.records"],
            "oracle.record_check_s": s["oracle.record_check"],
            "oracle.echelon_reduce_calls": c["oracle.echelon_reduce"],
            "oracle.dedup_ratio": ratio(z["oracle.principal_sweep"], c["oracle.element_closure"]),
            "oracle.pair_yield": ratio(z["oracle.records"], self.systems["oracle.enumerate"]),
            "oracle.grassmannian_s": s["oracle.grassmannian"],
            "oracle.echelon_forms": c["oracle.echelon_form"],
            "oracle.closed_sweep_s": s["oracle.closed_sweep"],
            "oracle.closed_candidates": self.systems["oracle.closed_sweep"],
            "oracle.closed_yield": ratio(z["oracle.closed_sweep"],
                                         self.systems["oracle.closed_sweep"]),
            "motive.mul_calls": c["motive.mul"],
            "motive.mul_s": s["motive.mul"],
            "motive.add_calls": c["motive.add"],
            "motive.sym_power_calls": c["motive.sym_power"],
            "motive.sym_power_s": s["motive.sym_power"],
            "motive.exact_div_s": s["motive.exact_div"],
            "atoms.grassmannian_s": s["atoms.grassmannian"],
            "atoms.hilb_p2_s": s["atoms.hilb_p2"],
            "atoms.cache_hit_ratio": self.cache_hit_ratio(),
            "dsl.parse_s": s["dsl.parse"],
            "dsl.eval_s": s["dsl.eval"],
            "dsl.format_s": s["dsl.format"],
            "strata.verify_all_s": s["strata.verify_all"],
            "strata.omega26_calls": c["strata.omega26"],
            "strata.omega26_s": s["strata.omega26"],
            "cli.render_s": s["cli.main"] - self.child_seconds["cli.main"],
        }
        assert tuple(out) == LAYER_METRICS
        return out


def import_times(stderr: str) -> dict[str, float]:
    """Self import time per package module, in seconds, from the output of
    ``python -X importtime``."""
    self_us = Counter()
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if len(fields) == 3 and fields[0].isdigit():
            self_us[fields[2]] += int(fields[0])
    out = {f"import.{m}_s": self_us[m] / 1e6 for m in MODULES}
    out["import.package_s"] = sum(v for k, v in self_us.items()
                                  if k == "motivecount" or k.startswith("motivecount.")) / 1e6
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(s[key] for s in samples) for key in samples[0]}
