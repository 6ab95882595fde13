"""Span tracer that wraps the public functions of each hypersums module.

The program itself carries no instrumentation, so the tracer lives here.
``Tracer.install`` replaces every traced function with a wrapper in every
module namespace that holds it (a name imported with ``from .x import y``
is a second reference to the same object) and in module-level dicts such
as ``hypersum.ROUTES``; ``RatPoly`` operators are replaced on the class.
``uninstall`` puts the originals back.

A span is ``(span_id, name, start_ns, end_ns, parent_id, op_id)``.  Self
time, a span's duration minus the durations of its direct children, is
accumulated per layer name as spans close.  Full spans are kept in memory
only while ``record`` is set, and are written out by the caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array

MODULES = ("exactnum", "polyring", "hessenberg", "hypersum", "verify", "cli")

# layer name -> (module, attribute) pairs traced under that name
FUNCTION_LAYERS = {
    "exactnum.bernoulli": [("exactnum", "bernoulli")],
    "exactnum.stirling": [
        ("exactnum", "stirling1_unsigned"),
        ("exactnum", "stirling1_row"),
        ("exactnum", "r_stirling1"),
    ],
    "polyring.shift": [("polyring", "to_n_frame"), ("polyring", "to_N_frame")],
    "polyring.render": [
        ("polyring", "to_text"),
        ("polyring", "to_latex"),
        ("polyring", "poly_to_json"),
    ],
    "hessenberg.build_matrix": [("hessenberg", "build_matrix")],
    "hessenberg.det": [("hessenberg", "det")],
    "hypersum.route.q": [("hypersum", "hyper_sum_poly_q")],
    "hypersum.route.c": [("hypersum", "hyper_sum_poly_c")],
    "hypersum.route.chain": [("hypersum", "hyper_sum_poly_chain")],
    "hypersum.route.lemma": [("hypersum", "lemma_recurrence_family")],
    "hypersum.route.det": [("hypersum", "hyper_sum_det")],
    "hypersum.bruteforce": [("hypersum", "hyper_sum_bruteforce")],
    "verify.run_grid": [("verify", "run_grid")],
    "verify.golden_fixtures": [("verify", "golden_fixtures")],
    "cli.main": [("cli", "main")],
}

# layer name -> RatPoly methods traced under that name
METHOD_LAYERS = {
    "polyring.mul": ["__mul__"],
    "polyring.add": ["__add__", "__sub__", "__neg__"],
    "polyring.scale": ["scale"],
    "polyring.shift": ["shift"],
    "polyring.eval": ["eval"],
}

ROOT = "op"
LAYERS = sorted(set(FUNCTION_LAYERS) | set(METHOD_LAYERS))
SPAN_FIELDS = ("span_id", "name", "start_ns", "end_ns", "parent_id", "op_id")


def hypersums_modules() -> dict:
    return {name: importlib.import_module(f"hypersums.{name}") for name in MODULES}


def lru_functions() -> dict:
    """The public lru-cached functions of ``hypersums.hypersum`` by name."""
    mod = importlib.import_module("hypersums.hypersum")
    return {
        name: fn
        for name, fn in vars(mod).items()
        if not name.startswith("_") and callable(getattr(fn, "cache_info", None))
    }


def cache_totals() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over :func:`lru_functions`."""
    hits = misses = entries = 0
    for fn in lru_functions().values():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return hits, misses, entries


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT] + LAYERS
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.keep_spans = False  # set by the caller for the pass whose spans it writes out
        self.record = False
        self.spans = array("q")
        self.op_id = -1
        self.bernoulli_max = -1
        self._next_id = 0
        # the bottom frame absorbs calls made between operations
        self._stack: list[list[int]] = [[-1, 0]]
        self._agg = [[0, 0] for _ in self.names]
        self._restore: list = []
        self._root_start = 0

    # -- installation -----------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self._ids[name]
        stack, agg, clock = self._stack, self._agg, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                cell = agg[nid]
                cell[0] += 1
                cell[1] += dur - frame[1]
                if tracer.record:
                    tracer.spans.extend((span_id, nid, start, end, parent[0], tracer.op_id))

        return traced

    def install(self) -> "Tracer":
        mods = hypersums_modules()
        namespaces = [importlib.import_module("hypersums")] + list(mods.values())
        for name, targets in FUNCTION_LAYERS.items():
            for mod_name, attr in targets:
                orig = getattr(mods[mod_name], attr)
                wrapped = self._wrapper(name, orig)
                if attr == "bernoulli":
                    wrapped = self._track_index(wrapped)
                self._replace_everywhere(namespaces, orig, wrapped)
        rat_poly = mods["polyring"].RatPoly
        for name, methods in METHOD_LAYERS.items():
            for meth in methods:
                orig = rat_poly.__dict__[meth]
                setattr(rat_poly, meth, self._wrapper(name, orig))
                self._restore.append((rat_poly, meth, orig))
        return self

    def _track_index(self, fn):
        tracer = self

        @functools.wraps(fn)
        def indexed(j, *args, **kwargs):
            if j > tracer.bernoulli_max:
                tracer.bernoulli_max = j
            return fn(j, *args, **kwargs)

        return indexed

    def _replace_everywhere(self, namespaces, orig, wrapped) -> None:
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, orig))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapped
                            self._restore.append((value, dkey, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = orig
            else:
                setattr(holder, key, orig)
        self._restore.clear()

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation; resets the per-op aggregates."""
        self.op_id = op_id
        self.record = self.keep_spans
        self.bernoulli_max = -1
        for cell in self._agg:
            cell[0] = cell[1] = 0
        self._stack.append([self._next_id, 0])
        self._next_id += 1
        self._root_start = time.perf_counter_ns()

    def end_op(self) -> dict:
        """Close the root span; return ``{layer: [calls, self_ns]}`` plus extras."""
        end = time.perf_counter_ns()
        root_id, child_ns = self._stack.pop()
        dur = end - self._root_start
        self._agg[0][0] += 1
        self._agg[0][1] += dur - child_ns
        if self.record:
            self.spans.extend((root_id, 0, self._root_start, end, -1, self.op_id))
        self.record = False
        layers = {name: list(cell) for name, cell in zip(self.names, self._agg) if cell[0]}
        return {"layers": layers, "bernoulli_max": self.bernoulli_max}

    def spans_as_rows(self) -> list[list]:
        flat = self.spans
        return [
            [flat[i], self.names[flat[i + 1]], flat[i + 2], flat[i + 3], flat[i + 4], flat[i + 5]]
            for i in range(0, len(flat), 6)
        ]


def write_spans(path: str, rows: list[list]) -> None:
    """Write span rows as gzip-compressed JSON: one object, one row per line."""
    with gzip.open(path, "wt") as fh:
        fh.write('{"fields": %s, "spans": [\n' % json.dumps(SPAN_FIELDS))
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")
