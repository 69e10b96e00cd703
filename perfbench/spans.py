"""Outside-in layer tracing for the benchmark's traced runs.

Public functions of each package module are wrapped from here, so the
program itself is never edited.  A name imported with ``from .x import f``
is a separate binding in every importing module; each binding that refers
to the same function object is replaced, and ``PermGroup`` methods are
replaced on the class.  Everything is restored when the ``installed()``
block ends.

Spans (name, parent, start, end) stay in memory during a pass.  A span's
self time is its duration minus the time covered by its direct child spans.
``perm.compose`` is too hot for a span: it is only counted, so its time is
part of the self time of whichever span called it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, attribute) pairs; "Class.method" attributes are patched on the
# class.  Layers are the package modules.  The comments name the end-to-end
# figure each span should move; compose moves wall_s everywhere.
SPAN_TARGETS = (
    ("perm", "power"),  # survey-bundled wall_s only
    ("group", "PermGroup.order"),  # chain-large chain_build_s
    ("group", "PermGroup.contains"),  # chain-large sift_per_s, analyze_s
    ("group", "PermGroup.elements"),  # analyze_s and peak_rss_mib
    ("structure", "conjugacy_classes"),  # analyze_s and peak_rss_mib
    ("structure", "sylow"),  # analyze_s, survey-bundled wall_s
    ("structure", "p_core"),  # analyze_s, survey-bundled wall_s
    ("structure", "derived_subgroup"),  # analyze_s, survey-bundled wall_s
    ("rationality", "classify_class"),  # survey-bundled wall_s only
    ("rationality", "group_rationality"),  # survey-bundled wall_s
    ("rationality", "conjecture_suite"),  # survey-bundled wall_s
    ("rationality", "sylow3_check"),  # survey-bundled wall_s
    ("rationality", "lemma61_check"),  # survey-bundled wall_s
    ("rationality", "qg_degree_alternating"),  # an_fields_s only
    ("alternating", "alternating_classes"),  # an_fields_s only
    ("alternating", "alternating_power_conjugate"),  # an_fields_s only
    ("alternating", "alternating_exponent"),  # an_fields_s only
    ("corpus", "parse_corpus"),  # the wall_s of the command that calls it
    ("corpus", "run_survey"),
    ("corpus", "render_report"),
    ("constructions", "parse_family_spec"),
    ("cli", "main"),
)
COUNT_TARGETS = (("perm", "compose"),)
PACKAGE = "cutgroups"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced pass yields, with its unit."""
    out = [(span_name(m, a) + ".calls", "count") for m, a in COUNT_TARGETS]
    for m, a in SPAN_TARGETS:
        out.append((span_name(m, a) + ".calls", "count"))
        out.append((span_name(m, a) + ".self_s", "s"))
    out.append(("group.elements.count", "count"))
    return out


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names = [span_name(m, a) for m, a in SPAN_TARGETS]
        self.first_pass: tuple | None = None
        self._reset()

    def _reset(self) -> None:
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {span_name(m, a): 0 for m, a in COUNT_TARGETS}
        self.elements_count = 0

    def _span(self, index: int, fn):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _counting_elements(self, fn):
        """Adds the size of every enumeration that actually ran (not a
        cached list handed out again) to group.elements.count; the group's
        ``_elements`` cache tells the two apart."""

        @functools.wraps(fn)
        def elements(group, *args, **kwargs):
            fresh = getattr(group, "_elements", None) is None
            out = fn(group, *args, **kwargs)
            if fresh:
                self.elements_count += len(out)
            return out

        return elements

    def _wrapper(self, module: str, attr: str, fn):
        name = span_name(module, attr)
        if (module, attr) in COUNT_TARGETS:
            return self._counted(name, fn)
        if name == "group.elements":
            fn = self._counting_elements(fn)
        return self._span(self.names.index(name), fn)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.  The wrappers
        record into the current pass, so call end_pass() after each block."""
        undo = []
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for module, attr in COUNT_TARGETS + SPAN_TARGETS:
                owner = sys.modules.get(f"{PACKAGE}.{module}")
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrapper(module, attr, original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(owner, attr, None)
                if original is None:
                    print(f"perfbench: no {module}.{attr} to trace", file=sys.stderr)
                    continue
                wrapped = self._wrapper(module, attr, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            undo.append((m, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the pass just traced.  The first pass's
        spans are kept for write()."""
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += durations[i] - covered[i]
        metrics: dict[str, float] = {f"{k}.calls": v for k, v in self.counts.items()}
        for k, name in enumerate(self.names):
            metrics[f"{name}.calls"] = calls[k]
            metrics[f"{name}.self_s"] = self_s[k]
        metrics["group.elements.count"] = self.elements_count
        if self.first_pass is None:
            self.first_pass = (self.name_of, self.parent, self.start, self.end)
        self._reset()
        return metrics

    def write(self, path) -> None:
        """The first pass's spans as tab-separated lines: span id, parent id
        (-1 for none), name, and start and duration in seconds from the
        pass's first span."""
        name_of, parent, start, end = self.first_pass
        t0 = start[0] if start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\tname\tstart_s\tdur_s\n")
            for i in range(len(start)):
                out.write(
                    f"{i}\t{parent[i]}\t{self.names[name_of[i]]}"
                    f"\t{start[i] - t0:.6f}\t{end[i] - start[i]:.6f}\n"
                )
