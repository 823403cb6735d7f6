"""Span tracer that times rigidkit layers from outside the package.

`Tracer.install` wraps every public function defined in the layer modules
and puts the wrapper in place of the original under every name that any
loaded `rigidkit` module imported it as, so calls between modules are seen
whichever way they were imported.  Each call records a span with its parent
span; a layer's self time is its span time minus the time of its direct
child spans.  Modules that are not layers (graphs, errors, svg) are not
wrapped, so their time counts toward the calling layer.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("frameworks", "sparsity", "moves", "towers", "bodybar", "catalog", "jsonio", "cli")

# Public sparsity functions that build a pebble game of their own.
PEBBLE_BUILDERS = frozenset(
    "sparsity." + n
    for n in (
        "is_sparse",
        "sparsity_rank",
        "tight_spanning_subgraph",
        "independent_edge_indices",
        "extend_to_tight_spanning",
        "blocking_tight_subgraph",
    )
)


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.function"
        self.layer_of = []  # function id -> layer
        self.patches = []  # (module, attribute, original, wrapper)
        self.spans = []  # [function id, parent span index, start, end]
        self.stack = []
        self.sizes = {}  # span index -> size the result reports

    def install(self):
        if not self.patches:
            self._prepare()
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)

    def _prepare(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("rigidkit." + layer)
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrapped[id(fn)] = self._wrap(layer, name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "rigidkit" and not modname.startswith("rigidkit."):
                continue
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    self.patches.append((mod, attr, value, w))

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        size_of = _SIZE_OF.get(f"{layer}.{name}")
        spans, stack, sizes = self.spans, self.stack, self.sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [fid, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(result)
            return result

        return wrapper

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        out, sizes = list(self.spans), dict(self.sizes)
        self.spans.clear()
        self.sizes.clear()
        return Spans(self, out, sizes)


_SIZE_OF = {
    "moves.find_chain": lambda chain: len(chain.moves),
    "bodybar.special_placement": lambda res: res.model.underlying.n_vertices,
}


class Spans:
    """Aggregates over one batch of spans."""

    def __init__(self, tracer, spans, sizes):
        self.names = tracer.names
        self.layer_of = tracer.layer_of
        self.spans = spans
        self.sizes = sizes
        n = len(spans)
        child = [0.0] * n
        for fid, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.total_s = {}  # outermost spans of each function only
        self.calls = {}
        for i, (fid, parent, t0, t1) in enumerate(spans):
            name = self.names[fid]
            self.self_s[self.layer_of[fid]] += (t1 - t0) - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if not self._within(parent, name):
                self.total_s[name] = self.total_s.get(name, 0.0) + (t1 - t0)

    def _within(self, idx, name):
        """Whether span idx or one of its ancestors is a call of `name`."""
        while idx >= 0:
            if self.names[self.spans[idx][0]] == name:
                return True
            idx = self.spans[idx][1]
        return False

    def count_inside(self, names, ancestor):
        """Calls of any of `names` made (at any depth) inside `ancestor`."""
        return sum(
            1
            for span in self.spans
            if self.names[span[0]] in names and self._within(span[1], ancestor)
        )

    def total_size(self, name):
        return sum(
            size for i, size in self.sizes.items() if self.names[self.spans[i][0]] == name
        )

    def time(self, name):
        return self.total_s.get(name, 0.0)

    def n(self, name):
        return self.calls.get(name, 0)
