"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install()`` wraps every public function of the eight ``ncrewrite``
modules, plus the methods in ``METHODS``, in a span.  A function is replaced
in every namespace that holds it: its defining module, the package, and each
module that imported it by name (``harness`` calls ``normalize`` through its
own global, for instance), so no call escapes.  Methods are patched on their
class.  ``uninstall()`` puts every original back.

A span records calls, inclusive time and self time (its duration minus the
part covered by child spans).  Hooks read arguments and results at a few
boundaries to count work where it happens: rewrite steps, letters the
matcher scanned, matches it materialized, order-audit checks, ambiguities
and rule counts.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("words", "orders", "rewrite", "groebner", "turing", "encodings", "harness", "cli")
METHODS = (
    ("rewrite", "Matcher", "redexes"),
    ("rewrite", "Polynomial", "__add__"),
    ("rewrite", "Polynomial", "from_word"),
    ("orders", "ReductionOrder", "sort_key"),
)
# per-letter constructors that encode_config calls once per tape cell; a span
# on each would multiply encode_config's traced time and tell nothing
UNTRACED = {"words.cell", "words.state_mark", "words.color_mark"}
# input word length buckets for the per-step normalize cost
BUCKETS = ((128, "len_lt128"), (512, "len_128_511"), (None, "len_ge512"))


def _bucket(length: int) -> str:
    for limit, name in BUCKETS:
        if limit is None or length < limit:
            return name
    raise AssertionError("unreachable")


def _on_normalize(tr, args, kwargs, result, dt):
    x = args[0]
    steps = result[1]
    bucket = _bucket(max(map(len, x.terms), default=0))
    tr.counters["normalize.steps"] += steps
    tr.counters[f"normalize.steps.{bucket}"] += steps
    tr.counters[f"normalize.s.{bucket}"] += dt


def _on_redexes(tr, args, kwargs, result, dt):
    word = args[1]
    start = args[2] if len(args) > 2 else kwargs.get("start", 0)
    tr.counters["matcher.letters_scanned"] += len(word) - start
    tr.counters["matcher.matches"] += len(result)


def _on_audit_order(tr, args, kwargs, result, dt):
    tr.counters["audit_order.checks"] += result.checks


def _on_find_ambiguities(tr, args, kwargs, result, dt):
    tr.counters["ambiguities"] += len(result)


def _on_presentation(tr, args, kwargs, result, dt):
    tr.gauges[f"rules.{result.construction}"] = len(result.rules)


HOOKS = {
    "rewrite.normalize": _on_normalize,
    "rewrite.Matcher.redexes": _on_redexes,
    "groebner.audit_order": _on_audit_order,
    "groebner.find_ambiguities": _on_find_ambiguities,
    "encodings.nilpotency_presentation": _on_presentation,
    "encodings.zerodivisor_presentation": _on_presentation,
}


class Tracer:
    """Spans in memory; ``take()`` hands them over and starts afresh."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []  # child time of each open span
        self.reset()

    def reset(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}

    def take(self) -> "Snapshot":
        snap = Snapshot({k: list(v) for k, v in self.spans.items()}, dict(self.counters), dict(self.gauges))
        self.reset()
        return snap

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = tracer.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(tracer, args, kwargs, result, dt)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("ncrewrite")
        modules = [importlib.import_module(f"ncrewrite.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__
                        and f"{short}.{name}" not in UNTRACED):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for ns in [package, *modules]:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, name, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"ncrewrite.{short}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class Snapshot:
    """Spans, counters and gauges of one traced stretch of work."""

    def __init__(self, spans, counters, gauges):
        self.spans = spans
        self.counters = counters
        self.gauges = gauges

    @classmethod
    def fastest(cls, snaps: list["Snapshot"]) -> "Snapshot":
        """Each span's and counter's smallest value over repetitions of the same work.

        Timings become their fastest repetition, the statistic of the
        end-to-end timings; counts are the same in every repetition.
        """
        zero = (0, 0.0, 0.0)
        spans = {k: [min(s.spans.get(k, zero)[i] for s in snaps) for i in range(3)]
                 for k in set().union(*(s.spans for s in snaps))}
        counters = {k: min(s.counters.get(k, 0) for s in snaps) for k in set().union(*(s.counters for s in snaps))}
        return cls(spans, counters, snaps[-1].gauges)

    def plus(self, other: "Snapshot") -> "Snapshot":
        """Spans and counters summed (gauges: other's value wins)."""
        spans = {k: list(v) for k, v in self.spans.items()}
        for k, v in other.spans.items():
            rec = spans.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                rec[i] += v[i]
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0) + v
        return Snapshot(spans, counters, {**self.gauges, **other.gauges})

    def call_counts(self) -> tuple:
        return tuple(sorted((k, v[0]) for k, v in self.spans.items()))

    def calls(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: Snapshot) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit); 0 where a layer did no work."""
    c = snap.counters
    steps = c.get("normalize.steps", 0)
    sort_key = "orders.ReductionOrder.sort_key"
    m = {
        "rewrite.normalize.calls": (snap.calls("rewrite.normalize"), "count"),
        "rewrite.normalize.steps": (steps, "count"),
        "rewrite.normalize.self_s": (snap.self_s("rewrite.normalize"), "s"),
    }
    for _, bucket in BUCKETS:
        m[f"rewrite.us_per_step.{bucket}"] = (
            1e6 * _ratio(c.get(f"normalize.s.{bucket}", 0), c.get(f"normalize.steps.{bucket}", 0)), "us")
    m.update({
        "rewrite.matcher.redexes.calls": (snap.calls("rewrite.Matcher.redexes"), "count"),
        "rewrite.matcher.redexes.self_s": (snap.self_s("rewrite.Matcher.redexes"), "s"),
        "rewrite.matcher.letters_scanned": (c.get("matcher.letters_scanned", 0), "count"),
        "rewrite.letters_scanned_per_step": (_ratio(c.get("matcher.letters_scanned", 0), steps), "ratio"),
        "rewrite.matches_per_step": (_ratio(c.get("matcher.matches", 0), steps), "ratio"),
        "rewrite.polynomial.s": (snap.total_s(
            "rewrite.concat", "rewrite.Polynomial.__add__", "rewrite.Polynomial.from_word"), "s"),
        "words.check_alphabet.calls": (snap.calls("words.check_alphabet"), "count"),
        "words.check_alphabet.self_s": (snap.self_s("words.check_alphabet"), "s"),
        "words.letter_kind.calls": (snap.calls("words.letter_kind"), "count"),
        "orders.sort_key.calls": (snap.calls(sort_key), "count"),
        "orders.sort_key.self_s": (snap.self_s(sort_key), "s"),
        "orders.sort_key.us_per_call": (1e6 * _ratio(snap.total_s(sort_key), snap.calls(sort_key)), "us"),
        "groebner.audit_order.s": (snap.total_s("groebner.audit_order"), "s"),
        "groebner.audit_order.checks": (c.get("audit_order.checks", 0), "count"),
        "groebner.find_ambiguities.s": (snap.total_s("groebner.find_ambiguities"), "s"),
        "groebner.audit_orientation.s": (snap.total_s("groebner.audit_orientation"), "s"),
        "groebner.ambiguities": (c.get("ambiguities", 0), "count"),
        "turing.tm_step.calls": (snap.calls("turing.tm_step"), "count"),
        "turing.tm_run.s": (snap.total_s("turing.tm_run"), "s"),
        # make_presentation only dispatches to these two
        "encodings.make_presentation.s": (snap.total_s(
            "encodings.nilpotency_presentation", "encodings.zerodivisor_presentation"), "s"),
        "encodings.parse_presentation.s": (snap.total_s("encodings.parse_presentation"), "s"),
        "encodings.rules.nilpotency": (snap.gauges.get("rules.nilpotency", 0), "count"),
        "encodings.rules.zerodivisor": (snap.gauges.get("rules.zerodivisor", 0), "count"),
        "encodings.encode_config.calls": (snap.calls("encodings.encode_config"), "count"),
        "encodings.encode_config.s": (snap.total_s("encodings.encode_config"), "s"),
    })
    for fn in ("lockstep", "annihilate_bounded", "nilpotent_bounded",
               "zerodivisor_witness_bounded", "cancellation_probe"):
        m[f"harness.{fn}.self_s"] = (snap.self_s(f"harness.{fn}"), "s")
    # argument parsing, file I/O and printing: every cli span's own time
    m["cli.main.self_s"] = (snap.self_s(*(k for k in snap.spans if k.startswith("cli."))), "s")
    return m
