"""Layer spans for the traced benchmark run, recorded from outside ntdice.

``Tracer.install`` replaces each traced public function with a wrapper in
every loaded ``ntdice`` module that holds it, because callers import by
name (``ntdice.cli`` and ``ntdice.search`` do ``from .core import verify``)
and would otherwise keep calling the original. A generator result is
wrapped too, so its span covers consumption and not just creation.

Self time is kept on the fly with a stack of open frames: a frame's
duration minus the time of frames opened inside it. A generator span gets
one frame per resumption, so time the consumer spends between items is not
charged to it. Spans stay in memory until the caller writes them out.
"""

import functools
import time
import types

# Traced public functions per layer; ``errors`` does no work.
LAYERS = {
    "core": (
        "validate_dice",
        "verify",
        "word_of_dice",
        "dice_of_word",
        "cycle_odds",
        "face_sums",
    ),
    "construct": ("construct_balanced_nontransitive", "fibonacci_balanced"),
    "search": (
        "enumerate_words",
        "iter_words",
        "balanced_nontransitive_words",
        "is_irreducible",
        "search_realization",
        "majority_digraph",
        "realize_k3",
    ),
    "cli": ("main", "parse_dice_input"),
}


def _census_counts(census):
    return {"words": census.total_words, "bnt_words": census.balanced_nontransitive}


# Counters read off return values, beside the call count every span keeps.
RESULT_COUNTERS = {
    "search.enumerate_words": _census_counts,
    "search.is_irreducible": lambda irreducible: {"useful": int(irreducible)},
    "search.search_realization": lambda found: {"found": int(found is not None)},
}


class Span:
    __slots__ = ("parent", "name", "start", "end", "busy", "self_s")

    def __init__(self, parent, name, start):
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.busy = 0.0
        self.self_s = 0.0

    def as_row(self, index_of):
        parent = index_of[id(self.parent)] if self.parent else None
        return [parent, self.name, self.start, self.end, self.busy, self.self_s]


class Tracer:
    """Collects spans and per-function counters for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._children = []  # span rows recorded by traced child processes
        self._stack = []  # open frames: [span, start, time of child frames]
        self._restore = []

    def count(self, name, key, amount=1):
        per_name = self.counters.setdefault(name, {})
        per_name[key] = per_name.get(key, 0) + amount

    def _open(self, name):
        now = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else None
        span = Span(parent, name, now)
        self.spans.append(span)
        self.count(name, "calls")
        return span

    def _enter(self, span):
        self._stack.append([span, time.perf_counter(), 0.0])

    def _leave(self):
        span, start, children = self._stack.pop()
        now = time.perf_counter()
        elapsed = now - start
        span.end = now
        span.busy += elapsed
        span.self_s += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def _consume(self, span, items):
        try:
            while True:
                self._enter(span)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._leave()
                self.count(span.name, "yielded")
                yield item
        finally:
            items.close()

    def wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if isinstance(result, types.GeneratorType):
                return self._consume(span, result)
            if counter is not None:
                for key, amount in counter(result).items():
                    self.count(name, key, amount)
            return result

        return traced

    def install(self, modules):
        """Wrap every traced function wherever a module in ``modules`` binds it.

        ``modules`` maps module names to loaded modules (``sys.modules``);
        the layers are looked up as ``ntdice.<layer>``.
        """
        package = [
            mod for key, mod in list(modules.items())
            if key == "ntdice" or key.startswith("ntdice.")
        ]
        for layer, names in LAYERS.items():
            home = modules["ntdice." + layer]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    def absorb(self, rows, counters):
        """Add the span rows and counters a traced child process wrote."""
        self._children.append(rows)
        for name, per_name in counters.items():
            for key, amount in per_name.items():
                self.count(name, key, amount)

    def take(self):
        """Span rows and counters gathered since the last call; clears both."""
        rows = span_rows(self.spans)
        for child in self._children:
            offset = len(rows)
            for parent, *rest in child:
                rows.append([None if parent is None else parent + offset, *rest])
        counters = self.counters
        self.spans, self.counters, self._children = [], {}, []
        return rows, counters


def span_rows(spans):
    """Spans as JSON-ready rows: parent row index, name, start, end, busy
    seconds, self seconds. Times are ``time.perf_counter`` readings."""
    index_of = {id(span): i for i, span in enumerate(spans)}
    return [span.as_row(index_of) for span in spans]
