"""Span tracing around the public functions of each orbitposet module.

``Tracer.install`` rebinds every traced name in every ``orbitposet`` module
that holds it (plus ``Involution.__init__`` and ``Involution.parse`` on the
class), and ``uninstall`` puts the original objects back, so an untraced run
executes exactly the library's own code.

Each wrapped call is a span: name, start, end, parent span and op id.  Self
time is the span's duration minus the time covered by its wrapped children.
Calls to the hot leaf functions (``HOT``) are too frequent to keep one span
each; their calls and self time are added to the nearest recorded ancestor
span instead, so every recorded span still says where its time went.  The
run is single-threaded with no queue, so no layer ever waits and no waiting
time is recorded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (layer, function) pairs; the layer is the orbitposet module name.
TARGETS = (
    ("involutions", "Involution"),
    ("involutions", "Involution.parse"),
    ("involutions", "dimension"),
    ("involutions", "all_involutions"),
    ("rank_matrices", "rank_matrix"),
    ("rank_matrices", "leq"),
    ("rank_matrices", "meet"),
    ("rank_matrices", "is_valid"),
    ("moves", "descendant_moves"),
    ("moves", "ancestor_moves"),
    ("moves", "cover_moves"),
    ("poset", "intersect"),
    ("poset", "closure"),
    ("tableaux", "sigma_T"),
    ("tableaux", "tableau_of"),
    ("tableaux", "codim1_partners"),
    ("tableaux", "change_rule_partners"),
    ("rs", "find_rs_witness"),
    ("rs", "rs_word"),
    ("oracle", "verify_suite"),
    ("cli", "main"),
)

# Called up to millions of times per run: aggregated into the parent span.
HOT = frozenset(
    {
        "involutions.Involution",
        "involutions.Involution.parse",
        "involutions.dimension",
        "rank_matrices.rank_matrix",
        "rank_matrices.leq",
        "rank_matrices.meet",
        "rank_matrices.is_valid",
        "moves.descendant_moves",
        "moves.ancestor_moves",
        "tableaux.sigma_T",
        "tableaux.tableau_of",
        "rs.rs_word",
    }
)

CACHED = ("involutions.dimension", "involutions.all_involutions", "rank_matrices.rank_matrix")

MAX_SPANS = 200_000
SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "op", "self_s", "hot")

# span record slots
_ID, _NAME, _START, _END, _PARENT, _OP, _SELF, _HOT = range(8)


def _library_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "orbitposet" or name.startswith("orbitposet."))
    ]


class Tracer:
    """Collects spans and per-function totals while installed on a library."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {f"{layer}.{fn}": [0, 0.0] for layer, fn in TARGETS}
        self.counters: Counter = Counter()
        self.cache: dict[str, list[int]] = {name: [0, 0] for name in CACHED}
        self.spans: list[list] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._active: Counter = Counter()
        self._stack: list[list] = []  # frames: [name, child_seconds, record or None]
        self._records: list[list] = []  # open span records, innermost last
        self._bindings: list[tuple] = []
        self._cache_start: dict[str, tuple] = {}
        self._next_id = 0
        self._op_id: int | None = None
        self._cost = {True: 0.0, False: 0.0}
        self._calibrate()

    def _calibrate(self, calls: int = 2000, rounds: int = 5) -> None:
        """Measure what a wrapped call costs its caller beyond the callee's span.

        Without this the wrapper's own work would land in the caller's self
        time (several seconds for ``intersect``, which makes millions of
        ``leq`` calls); the wrappers credit it to the children instead.
        """
        clock = time.perf_counter

        def noop():
            return None

        stat = self.stats["calibration"] = [0, 0.0]
        for hot in (True, False):
            wrapped = self._wrap("calibration", noop, hot)
            best = float("inf")
            for _ in range(rounds):
                stat[1] = 0.0
                with self.op(0, "calibration"):
                    t0 = clock()
                    for _ in range(calls):
                        wrapped()
                    t1 = clock()
                    for _ in range(calls):
                        noop()
                    t2 = clock()
                best = min(best, ((t1 - t0) - (t2 - t1) - stat[1]) / calls)
            self._cost[hot] = max(best, 0.0)
        del self.stats["calibration"]
        self.spans.clear()
        self._active.clear()
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        """Rebind every traced name of the freshly loaded package ``lib``."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = _library_modules()
        for layer, fn in TARGETS:
            name = f"{layer}.{fn}"
            module = getattr(lib, layer)
            if fn == "Involution":
                cls = module.Involution
                original = cls.__dict__["__init__"]
                self._bind(cls, "__init__", original, self._wrap(name, original))
                continue
            if fn == "Involution.parse":
                cls = module.Involution
                original = cls.__dict__["parse"]
                wrapped = classmethod(self._wrap(name, original.__func__))
                self._bind(cls, "parse", original, wrapped)
                continue
            original = getattr(module, fn)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped)
            if name in self.cache:
                self._cache_start[name] = (original, original.cache_info())

    def uninstall(self) -> None:
        """Restore every original binding and fold in the cache deltas."""
        for owner, key, original in reversed(self._bindings):
            setattr(owner, key, original)
        self._bindings.clear()
        for name, (original, start) in self._cache_start.items():
            end = original.cache_info()
            self.cache[name][0] += end.hits - start.hits
            self.cache[name][1] += end.misses - start.misses
        self._cache_start.clear()

    def _bind(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._bindings.append((owner, key, original))

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, frame: list) -> None:
        parent = self._records[-1][_ID] if self._records else None
        record = [self._next_id, name, 0.0, 0.0, parent, self._op_id, 0.0, {}]
        self._next_id += 1
        frame[2] = record
        self._records.append(record)
        self._active[name] += 1

    def _close(self, frame: list, start: float, end: float, own: float) -> None:
        record = frame[2]
        record[_START] = start - self.origin
        record[_END] = end - self.origin
        record[_SELF] = own
        self._records.pop()
        self._active[record[_NAME]] -= 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append(record)
        else:
            self.dropped += 1

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one benchmark operation; wrapped calls outside it are not traced."""
        self._op_id = op_id
        frame = [f"op.{kind}", 0.0, None]
        self._open(frame[0], frame)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(frame, start, end, end - start - frame[1])

    def _wrap(self, name: str, fn, hot: bool | None = None):
        stack, records, clock = self._stack, self._records, time.perf_counter
        stat = self.stats[name]
        post = _POST.get(name)
        hot = name in HOT if hot is None else hot
        cost = self._cost[hot]
        tracer = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [name, 0.0, None]
            if not hot:
                tracer._open(name, frame)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                stat[0] += 1
                stat[1] += own
                stack[-1][1] += dur + cost
                if hot:
                    entry = records[-1][_HOT].get(name)
                    if entry is None:
                        records[-1][_HOT][name] = [1, own]
                    else:
                        entry[0] += 1
                        entry[1] += own
                else:
                    tracer._close(frame, start, end, own)
            if post is not None:
                post(tracer, stack[-1], args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as ``name -> (value, unit)``, but the suite times.

        ``oracle.<suite>.s`` comes from the untraced passes (see ``run.py``):
        the wrappers slow the oracle down by about 1.8x.
        """
        out: dict[str, tuple[float, str]] = {}
        for layer, fn in TARGETS:
            name = f"{layer}.{fn}"
            if name == "oracle.verify_suite":
                continue
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, (hits, misses) in self.cache.items():
            out[f"{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
        c = self.counters
        out["moves.cover_moves.kept_ratio"] = (_ratio(c["cover_kept"], c["cover_candidates"]), "ratio")
        out["poset.intersect.leq_per_call"] = (
            _ratio(c["leq_in_intersect"], self.stats["poset.intersect"][0]),
            "count",
        )
        witness_calls = self.stats["rs.find_rs_witness"][0]
        out["rs.find_rs_witness.hit_ratio"] = (_ratio(c["witness_hits"], witness_calls), "ratio")
        out["rs.find_rs_witness.rs_word_per_call"] = (
            _ratio(c["rs_word_in_witness"], witness_calls),
            "count",
        )
        out["oracle.checks_run"] = (c["checks_run"], "count")
        return out

    def span_table(self) -> dict:
        rows = sorted(self.spans, key=lambda r: r[_ID])
        return {
            "fields": list(SPAN_FIELDS),
            "dropped": self.dropped,
            "spans": [
                [r[_ID], r[_NAME], round(r[_START], 7), round(r[_END], 7), r[_PARENT], r[_OP],
                 round(r[_SELF], 7), {k: [v[0], round(v[1], 7)] for k, v in r[_HOT].items()}]
                for r in rows
            ],
        }


def _ratio(num: float, den: float) -> float:
    """A ratio with an empty base reads 0; the matching ``.calls`` shows the base."""
    return num / den if den else 0.0


def _leq_post(t: Tracer, parent, args, result, dur) -> None:
    if t._active["poset.intersect"]:
        t.counters["leq_in_intersect"] += 1


def _rs_word_post(t: Tracer, parent, args, result, dur) -> None:
    if t._active["rs.find_rs_witness"]:
        t.counters["rs_word_in_witness"] += 1


def _descendant_moves_post(t: Tracer, parent, args, result, dur) -> None:
    if parent[0] == "moves.cover_moves":
        t.counters["cover_candidates"] += len(result)


def _cover_moves_post(t: Tracer, parent, args, result, dur) -> None:
    t.counters["cover_candidates"] += args[0].length  # the single-pair deletions
    t.counters["cover_kept"] += len(result)


def _witness_post(t: Tracer, parent, args, result, dur) -> None:
    t.counters["witness_hits"] += result is not None


def _verify_suite_post(t: Tracer, parent, args, result, dur) -> None:
    t.counters["checks_run"] += result.checks_run


_POST = {
    "rank_matrices.leq": _leq_post,
    "rs.rs_word": _rs_word_post,
    "moves.descendant_moves": _descendant_moves_post,
    "moves.cover_moves": _cover_moves_post,
    "rs.find_rs_witness": _witness_post,
    "oracle.verify_suite": _verify_suite_post,
}
