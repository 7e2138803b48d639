"""Span tracing for the benchmark's traced run.

The tracer wraps the package's functions from outside: each target is
replaced at every module binding through which callers reach it (a function
imported by name, such as ``milnor.magnus_expand``, is wrapped there too),
and methods are replaced on their class.  Every call records a span
``[name, start, end, parent, job]`` plus per-call counters; spans stay in
memory until the run ends.  ``uninstall`` restores the original objects, so
untraced passes in the same process run the unmodified program.

A target the package no longer has is skipped and listed in ``missing``;
its metrics then read 0.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "boundarylink"


def _crossings_out(args, kwargs, out, ok):
    return {"crossings_out": len(out.crossings)} if ok else {}


def _magnus_name(args, kwargs):
    reduced = kwargs.get("reduced", args[3] if len(args) > 3 else True)
    return "magnus.magnus_expand." + ("reduced" if reduced else "full")


def _magnus_counts(args, kwargs, out, ok):
    word = args[0] if args else kwargs["w"]
    counts = {"letters_in": len(word)}
    if ok:
        counts["terms_out"] = len(out.coefficients)
    return counts


def _normalize_counts(args, kwargs, out, ok):
    seq = args[0] if args else kwargs["seq"]
    counts = {"moves_in": len(seq.moves)}
    if ok:
        counts["moves_out"] = len(out.moves)
    return counts


def _good_basis_counts(args, kwargs, out, ok):
    a = args[0] if args else kwargs["a"]
    return {"pairs": a.side // 2, "accepted": int(ok and out is not None)}


# (module, attribute path, span name or namer, counter function, is a span)
TARGETS = [
    ("catalog", "load", "catalog.load", None, True),
    ("seifert", "SeifertMatrix.from_json", "seifert.SeifertMatrix.from_json",
     None, True),
    ("diagrams", "LinkDiagram.from_json", "diagrams.LinkDiagram.from_json",
     None, True),
    ("seifert", "validate", "seifert.validate", None, True),
    ("cli", "main", "cli.main", None, True),
    ("intmat", "matmul", "intmat.matmul", None, True),
    ("intmat", "det", "intmat.det", None, True),
    ("intmat", "inverse_unimodular", "intmat.inverse_unimodular", None, True),
    ("smoves", "apply_congruence", "smoves.apply_congruence", None, True),
    ("smoves", "apply_enlargement", "smoves.apply_enlargement", None, True),
    ("smoves", "apply_reduction", "smoves.apply_reduction", None, True),
    ("smoves", "MoveSequence.replay", "smoves.MoveSequence.replay",
     lambda a, k, out, ok: {"matrices": len(out)} if ok else {}, True),
    ("smoves", "normalize_sequence", "smoves.normalize_sequence",
     _normalize_counts, True),
    ("smoves", "replace_min_by_max", "smoves.replace_min_by_max", None, True),
    ("smoves", "find_reductions", "smoves.find_reductions", None, True),
    ("smoves", "reduction_witness", "smoves.reduction_witness",
     lambda a, k, out, ok: {"hits": int(ok)}, True),
    ("smoves", "reduce_to_null", "smoves.reduce_to_null",
     lambda a, k, out, ok: {"nodes": out.nodes} if ok else {}, True),
    ("smoves", "good_basis_form_check", "smoves.good_basis_form_check",
     _good_basis_counts, True),
    ("diagrams", "braid", "diagrams.braid", _crossings_out, True),
    ("diagrams", "cable", "diagrams.cable", _crossings_out, True),
    ("diagrams", "pushoff", "diagrams.pushoff", _crossings_out, True),
    ("diagrams", "closure", "diagrams.closure", _crossings_out, True),
    ("diagrams", "delete_components", "diagrams.delete_components",
     _crossings_out, True),
    ("diagrams", "wirtinger_longitudes", "diagrams.wirtinger_longitudes",
     lambda a, k, out, ok: {"letters_out": sum(map(len, out))} if ok else {},
     True),
    ("magnus", "magnus_expand", _magnus_name, _magnus_counts, True),
    ("milnor", "mu_bar", "milnor.mu_bar", None, True),
    ("milnor", "is_homotopically_trivial", "milnor.is_homotopically_trivial",
     None, True),
    ("milnor", "is_ht_plus_pair", "milnor.is_ht_plus_pair", None, True),
    ("milnor", "certify_theorem_A", "milnor.certify_theorem_A", None, True),
    ("milnor", "build_l_beta_bundle", "milnor.build_l_beta_bundle", None, True),
    # one call per mu-bar index evaluated; counted, not timed
    ("milnor", "_raw_mu", "milnor.indices_evaluated", None, False),
]

_CS = ["calls", "self_ms"]
_CSX = ["calls", "self_ms", "crossings_out"]
_MAGNUS = ["calls", "self_ms", "letters_in", "terms_out"]

# span name -> the statistics reported for it, in BENCHMARK.json order
LAYER_STATS = {
    "catalog.load": _CS,
    "seifert.SeifertMatrix.from_json": _CS,
    "diagrams.LinkDiagram.from_json": _CS,
    "seifert.validate": _CS,
    "cli.main": _CS,
    "intmat.matmul": _CS,
    "intmat.det": _CS,
    "intmat.inverse_unimodular": _CS,
    "smoves.apply_congruence": _CS,
    "smoves.apply_enlargement": _CS,
    "smoves.apply_reduction": _CS,
    "smoves.MoveSequence.replay": ["calls", "matrices"],
    "smoves.normalize_sequence": ["calls", "self_ms", "moves_in", "moves_out"],
    "smoves.replace_min_by_max": _CS,
    "smoves.find_reductions": _CS,
    "smoves.reduction_witness": ["calls", "hit_ratio"],
    "smoves.reduce_to_null": ["calls", "self_ms", "nodes"],
    "smoves.good_basis_form_check": ["calls", "self_ms", "pairs",
                                     "accept_ratio"],
    "diagrams.braid": _CSX,
    "diagrams.cable": _CSX,
    "diagrams.pushoff": _CSX,
    "diagrams.closure": _CSX,
    "diagrams.delete_components": _CSX,
    "diagrams.wirtinger_longitudes": ["calls", "self_ms", "letters_out"],
    "magnus.magnus_expand.reduced": _MAGNUS,
    "magnus.magnus_expand.full": _MAGNUS,
    "milnor.mu_bar": _CS,
    "milnor.is_homotopically_trivial": _CS,
    "milnor.is_ht_plus_pair": _CS,
    "milnor.certify_theorem_A": _CS,
    "milnor.build_l_beta_bundle": _CS,
}
# derived metrics computed once per run rather than per span name
DERIVED = {
    "cli.startup_ms": "ms",
    "milnor.indices_evaluated": "count",
    "milnor.expansions_per_index": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _unit(stat: str) -> str:
    if stat == "self_ms":
        return "ms"
    return "ratio" if stat.endswith("_ratio") else "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{layer}.{stat}": _unit(stat)
             for layer, stats in LAYER_STATS.items() for stat in stats}
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: str | None = None
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, path, name, counter, is_span in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{modname}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{modname}.{path}")
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(
                    self._wrap(raw.__func__, name, counter, is_span)))
                continue
            wrapped = self._wrap(raw, name, counter, is_span)
            if outer:
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, counter, is_span):
        tracer = self

        def count(spname, args, kwargs, out, ok):
            tracer.counts[f"{spname}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, out, ok).items():
                    tracer.counts[f"{spname}.{key}"] += value

        if not is_span:
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            spname = name(args, kwargs) if callable(name) else name
            rec = [spname, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                tracer._stack.pop()
                count(spname, args, kwargs, None, False)
                raise
            rec[2] = perf_counter()
            tracer._stack.pop()
            count(spname, args, kwargs, out, True)
            return out

        return wrapper

    # -- results --------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _p, _j), inner in zip(self.spans, child):
            out[name] += (end - start - inner) * 1000.0
        return out

    def layer_metrics(self, passes: int, startup_ms: list[float],
                      overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics as totals per traced pass; ratios as ratios."""
        selfs = self.self_ms()
        c = self.counts
        per = 1.0 / max(passes, 1)
        out: dict[str, float] = {}
        for layer, stats in LAYER_STATS.items():
            calls = c.get(f"{layer}.calls", 0)
            for stat in stats:
                if stat == "self_ms":
                    value = selfs.get(layer, 0.0) * per
                elif stat == "hit_ratio":
                    value = c.get(f"{layer}.hits", 0) / calls if calls else 0.0
                elif stat == "accept_ratio":
                    value = c.get(f"{layer}.accepted", 0) / calls if calls else 0.0
                else:
                    value = c.get(f"{layer}.{stat}", 0) * per
                out[f"{layer}.{stat}"] = value
        indices = c.get("milnor.indices_evaluated", 0)
        expansions = (c.get("magnus.magnus_expand.reduced.calls", 0)
                      + c.get("magnus.magnus_expand.full.calls", 0))
        out["cli.startup_ms"] = statistics.median(startup_ms) if startup_ms else 0.0
        out["milnor.indices_evaluated"] = indices * per
        out["milnor.expansions_per_index"] = expansions / indices if indices else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out
