"""Per-layer spans recorded from outside the program, by wrapping functions.

``Tracer.install`` replaces every public function of each ``coinrig``
module, wherever a ``coinrig`` module holds it (the defining module and
each module that imported it), and the public work methods of the layer
classes, by a wrapper that records a span; ``uninstall`` puts the
originals back.  A span's self time is its duration minus that of its
child spans.  Counts are taken at the same boundaries from arguments and
return values.  Aggregates are kept for every span; raw spans only for the
first ``SPAN_LOG_CAP`` of a run, to bound memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("graph", "linalg", "sparsity", "matroid", "pebble", "constructions",
           "checks", "cli")
# public methods that do a layer's work; Graph's are all wrapped
METHODS = {"pebble": {"PebbleGame": ("try_insert",)},
           "sparsity": {"StrongSparsityChecker": ("try_add", "accepts_all")},
           "matroid": {"IndependenceOracle": ("test", "incremental")}}
SPAN_LOG_CAP = 20000

# metric -> span names whose outermost occurrences it sums (inclusive time)
INCLUSIVE = {
    "linalg.rank_exact_s": ("linalg.rank_exact",),
    "linalg.rank_modp_s": ("linalg.rank_modp",),
    "linalg.build_s": ("linalg.sample_T_coincident", "linalg.rigidity_matrix"),
    "matroid.rt_oracle_build_s": ("matroid.rt_oracle",),
    "matroid.cover_min_s": ("matroid.mt_rank_cover_min",),
    "sparsity.strong_decision_s": ("sparsity.is_strongly_T_sparse",
                                   "sparsity.is_S_sparse"),
    "sparsity.checker_try_add_s": ("sparsity.StrongSparsityChecker.try_add",),
    "sparsity.min_thin_cover_s": ("sparsity.min_thin_cover",),
    "pebble.rank_s": ("pebble.pebble_rank_23",),
    "graph.contract_s": ("graph.Graph.contract",),
    "graph.parse_s": ("graph.parse_graph_with_T",),
}


class _Frame:
    __slots__ = ("name", "t0", "child", "outer", "log", "trials")

    def __init__(self, name, outer, log):
        self.name = name
        self.child = 0.0
        self.outer = outer      # metrics for which this span is outermost
        self.log = log          # index in the raw span log, or -1
        self.trials = None      # ranks of the trials under a generic_rank span
        self.t0 = perf_counter()


class Tracer:
    """Span recorder over the ``coinrig`` package; one per traced run."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.times: dict[str, float] = {}  # derived time metrics, seconds
        self.counts: dict[str, int] = {}
        self.log: list[list] = []          # [op, name, start, end, parent]
        self.op = -1
        self._active: dict[str, int] = {}
        self._groups: dict[str, tuple[str, ...]] = {}
        for metric, names in INCLUSIVE.items():
            for name in names:
                self._groups[name] = self._groups.get(name, ()) + (metric,)
        self._patches: list[tuple[object, str, object, object]] | None = None
        self._installed = False
        self._hooks = {
            "linalg.rank_exact": self._on_rank, "linalg.rank_modp": self._on_rank,
            "linalg.generic_rank": self._on_generic_rank,
            "matroid.greedy_rank": self._on_greedy,
            "sparsity.subset_edge_counts": self._on_subset_table,
            "sparsity.StrongSparsityChecker.try_add": self._on_try_add,
            "sparsity.min_thin_cover": self._on_min_thin_cover,
            "pebble.PebbleGame.try_insert": self._on_try_insert,
        }

    # -- counting hooks: (args, result, frame, duration) -------------------

    def _count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _on_rank(self, args, result, frame, dur):
        rows, cols = args[0].shape
        self._count("linalg.rank_calls")
        self._count("linalg.matrix_entries", rows * cols)
        for f in reversed(self.stack):
            if f.name == "linalg.generic_rank":
                f.trials.append(result)
                break

    def _on_generic_rank(self, args, result, frame, dur):
        self._count("linalg.trials", len(frame.trials))
        self._count("linalg.trials_useful", sum(r == result.rank for r in frame.trials))

    def _on_greedy(self, args, result, frame, dur):
        key = f"matroid.greedy_{args[0].name}_s"
        self.times[key] = self.times.get(key, 0.0) + dur

    def _on_subset_table(self, args, result, frame, dur):
        self._count("sparsity.subset_tables")
        self._count("sparsity.subset_table_entries", len(result))

    def _on_try_add(self, args, result, frame, dur):
        self._count("sparsity.checker_try_add_calls")
        self._count("sparsity.checker_accepts", bool(result))

    def _on_min_thin_cover(self, args, result, frame, dur):
        self._count("sparsity.min_thin_cover_calls")

    def _on_try_insert(self, args, result, frame, dur):
        self._count("pebble.inserts")
        self._count("pebble.accepts", bool(result))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        groups = self._groups.get(name, ())
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, active, log, times = self.stack, self._active, self.log, self.times
        collects_trials = name == "linalg.generic_rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tuple(m for m in groups if not active.get(m))
            for m in groups:
                active[m] = active.get(m, 0) + 1
            idx = -1
            if len(log) < SPAN_LOG_CAP:
                idx = len(log)
                log.append([self.op, name, 0.0, 0.0, stack[-1].log if stack else -1])
            frame = _Frame(name, outer, idx)
            if collects_trials:
                frame.trials = []
            stack.append(frame)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - frame.t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame.child
                if stack:
                    stack[-1].child += dur
                for m in groups:
                    active[m] -= 1
                for m in outer:
                    times[m] = times.get(m, 0.0) + dur
                if idx >= 0:
                    log[idx][2], log[idx][3] = frame.t0, t1
            if hook is not None:
                hook(args, return_value, frame, dur)
            return return_value

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Count the items of the outermost call; recursive calls pass through.

        A generator's work runs inside its consumer's span, so it gets no
        span of its own.
        """
        depth = [0]
        key = f"{name}.items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            gen = fn(*args, **kwargs)

            def counted():
                while True:
                    depth[0] += 1
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        depth[0] -= 1
                    self._count(key)
                    yield item

            return counted()

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every patch."""
        mods = {m: importlib.import_module(f"coinrig.{m}") for m in MODULES}
        holders = [importlib.import_module("coinrig"), *mods.values()]
        plan = []
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (self._wrap_generator(name, obj)
                                    if inspect.isgeneratorfunction(obj)
                                    else self._wrap(name, obj))
            classes = dict(METHODS.get(short, {}))
            if short == "graph":
                classes["Graph"] = tuple(a for a, o in vars(mod.Graph).items()
                                         if not a.startswith("_") and inspect.isfunction(o))
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = vars(cls)[meth]
                    plan.append((cls, meth, orig,
                                 self._wrap(f"{short}.{cls_name}.{meth}", orig)))
        for holder in holders:
            for attr, obj in vars(holder).items():
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    plan.append((holder, attr, obj, wrapped[id(obj)]))
        return plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches or ():
            setattr(owner, attr, orig)
        self._installed = False

    # -- results --------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics per traced operation (times in seconds)."""
        c = self.counts.get

        def frac(num: str, den: str) -> float:
            return c(num, 0) / c(den) if c(den) else 0.0

        out = {m: self.times.get(m, 0.0) / ops for m in INCLUSIVE}
        for key in ("matroid.greedy_mt_s", "matroid.greedy_rt_s"):
            out[key] = self.times.get(key, 0.0) / ops
        # of the benchmarked verbs, only mt_rank_cover_min enumerates partitions
        out["matroid.cover_min_partitions"] = c("sparsity.partial_partitions.items", 0) / ops
        for key in ("linalg.rank_calls", "linalg.matrix_entries",
                    "sparsity.subset_tables", "sparsity.subset_table_entries",
                    "sparsity.checker_try_add_calls", "sparsity.min_thin_cover_calls",
                    "pebble.inserts"):
            out[key] = c(key, 0) / ops
        out["linalg.trials_useful_frac"] = frac("linalg.trials_useful", "linalg.trials")
        out["sparsity.checker_accept_frac"] = frac("sparsity.checker_accepts",
                                                   "sparsity.checker_try_add_calls")
        out["pebble.accept_frac"] = frac("pebble.accepts", "pebble.inserts")
        out["graph.calls"] = sum(s[0] for n, s in self.spans.items()
                                 if n.startswith("graph.")) / ops
        for short in MODULES:
            out[f"{short}.self_s"] = sum(s[2] for n, s in self.spans.items()
                                         if n.split(".", 1)[0] == short) / ops
        return out

    def span_table(self) -> dict[str, dict]:
        return {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for n, s in sorted(self.spans.items()) if s[0]}
