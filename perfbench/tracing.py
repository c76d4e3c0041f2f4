"""Spans around the calls into each sidlab layer, taken from outside sidlab.

The tracer swaps timing wrappers into every place sidlab looks a function up:
the defining module, every other sidlab module that imported it by name, the
class for methods, and the ``verify.SUITES`` table.  Spans live in memory as
``[name, start, end, parent, item]`` lists and are written out after the run.
A span's self time is its duration minus the part of it that its child spans
cover, so the self times of one item's spans add up to the item's wall time.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ITEM = range(5)

GRAPH_BUILDERS = (
    "complete_graph", "complete_multipartite", "path_graph", "cycle_graph",
    "generalized_theta", "flower", "subdivide", "replace_edges",
    "replace_edges_nonuniform", "semidirect_product", "disjoint_union",
)
GRAPHON_GENERATORS = (
    "generate", "constant_graphon", "circulant_graphon",
    "regular_graph_graphon", "mixture_graphon", "pointwise_dense_graphon",
    "graphon_from_graph", "permute_steps",
)
KERNEL_OPS = ("kernel_power", "kernel_compose", "counting_kernel", "hadamard")

# span name -> "module:attribute" targets; "Class.method" names a method.
LAYERS = {
    "contraction.float": ["sidlab.contraction:contract_float"],
    "contraction.exact": ["sidlab.contraction:contract_exact"],
    "contraction.bruteforce": ["sidlab.contraction:bruteforce_exact",
                               "sidlab.contraction:bruteforce_float"],
    "contraction.order": ["sidlab.contraction:elimination_order"],
    "graphs.without_edge": ["sidlab.graphs:Graph.without_edge"],
    "graphs.build": [f"sidlab.graphs:{n}" for n in GRAPH_BUILDERS],
    "homdensity.hom_density": ["sidlab.homdensity:hom_density"],
    "homdensity.gradient": ["sidlab.homdensity:_gradient_float",
                            "sidlab.homdensity:_gradient_exact"],
    "homdensity.deficit": ["sidlab.homdensity:deficit"],
    "homdensity.holder": ["sidlab.homdensity:holder_lower_bound"],
    "stepgraphon.graphon_init": ["sidlab.stepgraphon:StepGraphon.__init__"],
    "stepgraphon.generate": [f"sidlab.stepgraphon:{n}"
                             for n in GRAPHON_GENERATORS],
    "stepgraphon.kernel": [f"sidlab.stepgraphon:{n}" for n in KERNEL_OPS],
    "stepgraphon.local_density": ["sidlab.stepgraphon:local_density_deficit"],
    "search.project": ["sidlab.search:_project_regular_array"],
    "search.descent": ["sidlab.search:search_counterexample"],
    "search.certify": ["sidlab.search:certify_violation"],
    "verify.suite": ["sidlab.verify:SUITES[]"],
    "cli.main": ["sidlab.cli:main"],
}


class Tracer:
    """In-memory span recorder plus the counters taken at layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(int)
        self.item = -1
        self.last_order = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.item])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][END] = self.clock()

    @contextmanager
    def span(self, name, item=None):
        if item is not None:
            self.item = item
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` timed as a span; ``after(args, kwargs, result)``
        runs inside the span once ``fn`` has returned."""
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close()
        return timed


# ---------------------------------------------------------------------------
# Installing and removing the wrappers.
# ---------------------------------------------------------------------------

def _resolve(target):
    """(owner, key, original) for one "module:attr" target, or None when the
    program no longer has it.  ``key`` is None for a table of functions."""
    modname, _, attr = target.partition(":")
    module = sys.modules.get(modname)
    if module is None:
        return None
    if attr.endswith("[]"):
        table = getattr(module, attr[:-2], None)
        return None if table is None else (table, None, None)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = vars(owner).get(name) if owner is not None else None
    return None if original is None else (owner, name, original)


def _sidlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sidlab" or n.startswith("sidlab."))]


def _bindings(target):
    """Every (namespace, key, original) pair through which sidlab reaches the
    target: a module attribute and all by-name imports of it, a class
    attribute, or each entry of a table of functions."""
    found = _resolve(target)
    if found is None:
        return []
    owner, name, original = found
    if name is None:
        return [(owner, k, v) for k, v in owner.items()]
    if isinstance(owner, type):
        return [(owner, name, original)]
    out = []
    for module in _sidlab_modules():
        for key, value in vars(module).items():
            if value is original:
                out.append((module, key, original))
    return out


def _assign(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


@contextmanager
def installed(tracer, layers=LAYERS, after=None):
    """Swap span wrappers into sidlab for the duration of the block.

    ``after`` maps a span name to a post-call hook for its wrapper.  The
    originals come back on the way out, also when the block raises.
    """
    after = after or {}
    saved = []
    try:
        for name, targets in layers.items():
            for target in targets:
                for namespace, key, original in _bindings(target):
                    saved.append((namespace, key, original))
                    _assign(namespace, key,
                            tracer.wrap(name, original, after.get(name)))
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            _assign(namespace, key, original)


# ---------------------------------------------------------------------------
# Span arithmetic.
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans, selfs):
    """Per span name: call count and summed self time."""
    calls, self_s = defaultdict(int), defaultdict(float)
    for s, own in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += own
    return calls, self_s


def item_balance(spans, selfs, root="item"):
    """Largest gap, over items, between an item span's wall time and the sum
    of the self times of all spans recorded in that item."""
    wall, summed = {}, defaultdict(float)
    for s, own in zip(spans, selfs):
        summed[s[ITEM]] += own
        if s[NAME] == root:
            wall[s[ITEM]] = s[END] - s[START]
    return max((abs(summed[i] - w) for i, w in wall.items()), default=0.0)


def write_spans(spans, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["name", "start", "end", "parent", "item"])
        out.writerows(spans)


# ---------------------------------------------------------------------------
# Counters taken at the layer boundaries, and the per-layer metrics.
# ---------------------------------------------------------------------------

def sidlab_hooks(tracer):
    """Post-call hooks that count the work behind each contraction and each
    suite report: Σ n^arity over the elimination order used, its largest
    width, and the checks and failures a suite reports."""
    counters = tracer.counters

    def note_order(args, kwargs, order):
        tracer.last_order = order

    def count_ops(args, kwargs, result):
        n = args[3] if len(args) > 3 else kwargs["n_steps"]
        order = tracer.last_order
        counters["contraction.ops_computed"] += sum(
            n ** a for a in order.arities)
        counters["contraction.max_width"] = max(
            counters["contraction.max_width"], order.width)

    def count_checks(args, kwargs, report):
        counters["verify.checks"] += report.trials
        counters["verify.failures"] += len(report.failures)

    return {
        "contraction.order": note_order,
        "contraction.float": count_ops,
        "contraction.exact": count_ops,
        "verify.suite": count_checks,
    }


# (metric, unit, better); a trace run reports every one of them.
PER_LAYER = [
    ("contraction.float.calls", "count", "lower"),
    ("contraction.float.self_s", "s", "lower"),
    ("contraction.float.us_per_call", "us", "lower"),
    ("contraction.exact.calls", "count", "lower"),
    ("contraction.exact.self_s", "s", "lower"),
    ("contraction.exact.us_per_call", "us", "lower"),
    ("contraction.bruteforce.calls", "count", "lower"),
    ("contraction.bruteforce.self_s", "s", "lower"),
    ("contraction.order.calls", "count", "lower"),
    ("contraction.order.cache_hit_ratio", "ratio", "higher"),
    ("contraction.ops_computed", "count", "lower"),
    ("contraction.max_width", "count", "lower"),
    ("graphs.without_edge.calls", "count", "lower"),
    ("graphs.without_edge.self_s", "s", "lower"),
    ("graphs.build.calls", "count", "lower"),
    ("graphs.build.self_s", "s", "lower"),
    ("homdensity.hom_density.calls", "count", "lower"),
    ("homdensity.hom_density.self_s", "s", "lower"),
    ("homdensity.gradient.calls", "count", "lower"),
    ("homdensity.gradient.self_s", "s", "lower"),
    ("homdensity.deficit.self_s", "s", "lower"),
    ("homdensity.holder.self_s", "s", "lower"),
    ("search.project.calls", "count", "lower"),
    ("search.project.self_s", "s", "lower"),
    ("search.descent.self_s", "s", "lower"),
    ("search.slack.calls", "count", "lower"),
    ("search.certify.calls", "count", "lower"),
    ("search.certify.self_s", "s", "lower"),
    ("stepgraphon.local_density.calls", "count", "lower"),
    ("stepgraphon.local_density.self_s", "s", "lower"),
    ("stepgraphon.local_density.ms_per_call", "ms", "lower"),
    ("stepgraphon.generate.self_s", "s", "lower"),
    ("stepgraphon.graphon_init.calls", "count", "lower"),
    ("stepgraphon.graphon_init.self_s", "s", "lower"),
    ("stepgraphon.kernel.self_s", "s", "lower"),
    ("verify.suite.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.failures", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.item.self_s", "s", "lower"),
    ("trace.items", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.item_s", "s", "lower"),
    ("trace.untraced_item_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_gap_s", "s", "lower"),
]


def layer_metrics(tracer, cache_info, untraced_item_s):
    """Every PER_LAYER metric from one traced pass.

    ``cache_info`` is the elimination-order cache's (hits, misses) over the
    pass, or None when the program has no such cache; ``untraced_item_s`` is
    the summed item time of the same items run without wrappers.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s = layer_totals(spans, selfs)
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[layer]
        elif stat == "self_s":
            out[name] = self_s[layer]
        elif stat in ("us_per_call", "ms_per_call"):
            scale = 1e6 if stat == "us_per_call" else 1e3
            out[name] = (scale * self_s[layer] / calls[layer]
                         if calls[layer] else 0.0)
    hits, misses = cache_info or (0, 0)
    out["contraction.order.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    for name in ("contraction.ops_computed", "contraction.max_width",
                 "verify.checks", "verify.failures"):
        out[name] = tracer.counters[name]
    out["search.slack.calls"] = sum(
        1 for s in spans
        if s[NAME] == "contraction.float" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "search.descent")
    out["bench.item.self_s"] = self_s["item"]
    item_s = sum(s[END] - s[START] for s in spans if s[NAME] == "item")
    out["trace.items"] = calls["item"]
    out["trace.spans"] = len(spans)
    out["trace.item_s"] = item_s
    out["trace.untraced_item_s"] = untraced_item_s
    out["trace.overhead_s"] = item_s - untraced_item_s
    out["trace.overhead_frac"] = ((item_s - untraced_item_s) / untraced_item_s
                                  if untraced_item_s else 0.0)
    out["trace.self_sum_gap_s"] = item_balance(spans, selfs)
    return out
