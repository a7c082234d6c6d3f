"""Spans around the package's public functions, installed from outside it.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper, in
its own module and in every ``gsp`` module that imported it by name (for
example ``solvers`` and ``qsim`` hold their own ``canonicalize``).  While
``on`` is set, each wrapped call records a span: name, start, end and the
span it was called from.  Self time is a span's duration minus the time its
child spans cover, so a layer's self time is the time spent in its own
code.  Spans are kept in memory and written out by ``write``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("algebra", "oracle", "solvers", "qsim", "bounds", "cli")
SPAN_CAP = 100_000  # spans kept for ``write``; later ones only count toward the totals

# (module, class or None, attribute, span name, kind).  Kind ``gen`` times
# each step of a generator; ``query`` also counts cache hits; ``state``
# also tracks the largest simulator state returned.
TARGETS = [
    ("gsp.algebra", "VectorP", "__post_init__", "algebra.vector_new", "call"),
    ("gsp.algebra", "Subgroup", "coset_reduce", "algebra.coset_reduce", "call"),
    ("gsp.algebra", "Subgroup", "elements", "algebra.elements", "gen"),
    ("gsp.algebra", None, "canonicalize", "algebra.canonicalize", "call"),
    ("gsp.algebra", None, "enumerate_subgroups", "algebra.enumerate_subgroups", "gen"),
    ("gsp.oracle", "HiddenInstance", "evaluate", "oracle.evaluate", "call"),
    ("gsp.oracle", "QueryLog", "query", "oracle.query", "query"),
    ("gsp.solvers", None, "find_s", "solvers.find_s", "call"),
    ("gsp.solvers", None, "find_group", "solvers.find_group", "call"),
    ("gsp.solvers", None, "brute_force_solve", "solvers.brute_force_solve", "call"),
    ("gsp.solvers", None, "birthday_solve", "solvers.birthday_solve", "call"),
    ("gsp.qsim", None, "quantum_find_s", "qsim.quantum_find_s", "call"),
    ("gsp.qsim", None, "exact_amplify", "qsim.exact_amplify", "call"),
    ("gsp.qsim", None, "fourier", "qsim.fourier", "state"),
    ("gsp.qsim", None, "apply_oracle", "qsim.apply_oracle", "state"),
    ("gsp.bounds", None, "evading_subgroup", "bounds.evading_subgroup", "call"),
    ("gsp.bounds", None, "bound_report", "bounds.bound_report", "call"),
    ("gsp.cli", None, "main", "cli.main", "call"),
]

# Per-layer metrics: (metric name, span name, statistic, unit).
METRICS = [
    ("algebra.vector_new.count", "algebra.vector_new", "count", "count"),
    ("algebra.vector_new.self_s", "algebra.vector_new", "self", "s"),
    ("algebra.coset_reduce.count", "algebra.coset_reduce", "count", "count"),
    ("algebra.coset_reduce.self_s", "algebra.coset_reduce", "self", "s"),
    ("algebra.canonicalize.count", "algebra.canonicalize", "count", "count"),
    ("algebra.canonicalize.self_s", "algebra.canonicalize", "self", "s"),
    ("algebra.elements.count", "algebra.elements", "count", "count"),
    ("algebra.enumerate_subgroups.yielded", "algebra.enumerate_subgroups", "yielded", "count"),
    ("algebra.enumerate_subgroups.self_s", "algebra.enumerate_subgroups", "self", "s"),
    ("oracle.evaluate.count", "oracle.evaluate", "count", "count"),
    ("oracle.evaluate.self_s", "oracle.evaluate", "self", "s"),
    ("oracle.evaluate.s", "oracle.evaluate", "total", "s"),
    ("oracle.query.count", "oracle.query", "count", "count"),
    ("solvers.find_s.s", "solvers.find_s", "total", "s"),
    ("solvers.find_group.count", "solvers.find_group", "count", "count"),
    ("solvers.find_group.self_s", "solvers.find_group", "self", "s"),
    ("solvers.brute_force_solve.s", "solvers.brute_force_solve", "total", "s"),
    ("solvers.birthday_solve.s", "solvers.birthday_solve", "total", "s"),
    ("qsim.rounds.count", "qsim.exact_amplify", "count", "count"),
    ("qsim.exact_amplify.self_s", "qsim.exact_amplify", "self", "s"),
    ("qsim.fourier.count", "qsim.fourier", "count", "count"),
    ("qsim.fourier.self_s", "qsim.fourier", "self", "s"),
    ("qsim.apply_oracle.count", "qsim.apply_oracle", "count", "count"),
    ("qsim.apply_oracle.self_s", "qsim.apply_oracle", "self", "s"),
    ("bounds.evading_subgroup.count", "bounds.evading_subgroup", "count", "count"),
    ("bounds.evading_subgroup.self_s", "bounds.evading_subgroup", "self", "s"),
    ("bounds.bound_report.self_s", "bounds.bound_report", "self", "s"),
    ("cli.main.count", "cli.main", "count", "count"),
    ("cli.main.self_s", "cli.main", "self", "s"),
]


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.count: Counter[str] = Counter()
        self.yielded: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.query_hits = 0
        self.peak_support = 0
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, start, seconds covered by children]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, children = frame
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped += 1

    def _wrap(self, name: str, kind: str, fn):
        if kind == "gen":
            def traced_gen(*args, **kwargs):
                items = fn(*args, **kwargs)
                if not self.on:
                    return items
                self.count[name] += 1
                return self._steps(name, items)
            return traced_gen

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.count[name] += 1
            if kind == "query" and args[1] in args[0].cache:
                self.query_hits += 1
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if kind == "state":
                self.peak_support = max(self.peak_support, len(result.amps))
            return result
        return traced

    def _steps(self, name: str, items):
        while True:
            frame = self._enter()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._exit(name, frame)
            self.yielded[name] += 1
            yield item

    def install(self) -> None:
        packages = [m for key, m in list(sys.modules.items()) if key == "gsp" or key.startswith("gsp.")]
        for module_name, owner, attr, name, kind in TARGETS:
            module = sys.modules[module_name]
            holder = getattr(module, owner) if owner else module
            original = vars(holder)[attr]
            wrapper = self._wrap(name, kind, original)
            holders = [holder] if owner else [m for m in packages if vars(m).get(attr) is original]
            for target in holders:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean over ``passes`` traced passes."""
        stats = {"count": self.count, "yielded": self.yielded, "self": self.self_s, "total": self.total_s}
        out = {metric: (stats[stat][span] / passes, unit) for metric, span, stat, unit in METRICS}
        calls = self.count["oracle.query"]
        out["oracle.query.hit_frac"] = (self.query_hits / calls if calls else 0.0, "ratio")
        out["qsim.peak_support"] = (float(self.peak_support), "count")
        for layer in LAYERS:
            spent = sum(v for span, v in self.self_s.items() if span.startswith(layer + "."))
            out[f"{layer}.self_s"] = (spent / passes, "s")
        return out

    def write(self, path: Path) -> None:
        """One ``id name start end parent`` line per kept span; times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {len(self.spans)} spans kept, {self.dropped} dropped past the cap\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(f"{span_id}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
