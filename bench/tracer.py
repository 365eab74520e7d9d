"""Spans around the library's public functions, recorded from outside.

:func:`install` replaces each traced function with a wrapper everywhere the
package binds it: in its defining module, in every ``grouporders`` module
that did ``from .x import y``, and in the package namespace.  Methods are
patched on their class.  Each call records a span (name, start, end,
parent span, query id) in memory; self time is the span's duration minus
the time covered by its direct children.  While ``Tracer.enabled`` is
false the wrappers only forward the call, so checks run between queries
are not traced.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (span name, module, attribute path) for every traced function
TRACED = (
    ("exactlin.rref", "exactlin", "rref"),
    ("exactlin.classify_cone", "exactlin", "classify_cone"),
    ("exactlin.strict_separator", "exactlin", "strict_separator"),
    ("exactlin.solve_linear", "exactlin", "solve_linear"),
    ("exactlin.kernel_basis", "exactlin", "kernel_basis"),
    ("znord.FlagOrdering", "znord", "FlagOrdering.__post_init__"),
    ("znord.flag_sign", "znord", "flag_sign"),
    ("znord.realize_flag", "znord", "realize_flag"),
    ("znord.gl_witness", "znord", "gl_witness"),
    ("words.parse", "words", "parse_word"),
    ("words.parse", "words", "parse_endomorphism"),
    ("words.Endomorphism.apply", "words", "Endomorphism.apply"),
    ("series.magnus", "series", "magnus"),
    ("series.lcs_depth", "series", "lcs_depth"),
    ("hall.decompose_lie", "hall", "decompose_lie"),
    ("hall.coords_at_level", "hall", "coords_at_level"),
    ("hall.induced_matrix", "hall", "induced_matrix"),
    ("stdord.sign", "stdord", "StandardOrdering.sign"),
    ("stdord.sign", "stdord", "TwistedOrdering.sign"),
    ("stdord.separate", "stdord", "separate"),
    ("stdord.build_twisted", "stdord", "build_twisted"),
    ("stdord.identity_levels", "stdord", "identity_levels"),
    ("stdord.verify_cone_axioms", "stdord", "verify_cone_axioms"),
    ("autact.ordering_witness", "autact", "ordering_witness"),
    ("autact.primitive_root", "autact", "primitive_root"),
    ("klein", "klein", "k_enumerate_orderings"),
    ("klein", "klein", "k_out_table"),
    ("klein", "klein", "k_pull"),
    ("cli.main", "cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))
ROUTES = ("standard", "strict", "twisted", "common_root")


class Tracer:
    """Span store and the counters read at the same boundaries."""

    def __init__(self):
        self.enabled = False
        self.query_id = -1
        self.names = ["bench.query"] + list(SPAN_NAMES)
        self.ids = {name: i for i, name in enumerate(self.names)}
        # span table, one entry per finished span
        self.span_col = array("l")
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.query_col = array("l")
        # open spans: [name id, start, child time, span number]
        self.stack: list[list] = []
        self.next_span = 0
        self.calls = [0] * len(self.names)
        self.self_time = [0.0] * len(self.names)
        self.rref_cells = 0
        self.magnus_terms = 0
        self.magnus_in_sign = 0
        self.routes = dict.fromkeys(ROUTES, 0)
        self.witness_attempts = 0
        self.cap_failures = 0
        self._strict_seen: list[bool] = []  # one flag per open separate span

    def _active(self, name: str) -> bool:
        target = self.ids[name]
        return any(frame[0] == target for frame in self.stack)

    def enter(self, name_id: int) -> list:
        frame = [name_id, 0.0, 0.0, self.next_span]
        self.next_span += 1
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name_id, start, child, span = frame
        duration = end - start
        self.calls[name_id] += 1
        self.self_time[name_id] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        self.span_col.append(span)
        self.name_col.append(name_id)
        self.start_col.append(start)
        self.end_col.append(end)
        self.parent_col.append(parent)
        self.query_col.append(self.query_id)

    def unwind(self, depth: int) -> None:
        """Drop the frames above ``depth`` that a query timeout cut short."""
        del self.stack[depth:]
        self._strict_seen.clear()

    def _observe(self, name: str, result, exc) -> None:
        """Counters read at a span boundary, after the call returned."""
        if name == "exactlin.rref" and exc is None and result[0]:
            self.rref_cells += len(result[0]) * len(result[0][0])
        elif name == "series.magnus" and exc is None:
            self.magnus_terms += len(result.coeffs)
            if self._active("stdord.sign"):
                self.magnus_in_sign += 1
        elif name == "exactlin.strict_separator" and self._strict_seen:
            self._strict_seen[-1] = True
        elif name == "stdord.separate":
            strict = self._strict_seen.pop()
            if self._active("autact.ordering_witness"):
                self.witness_attempts += 1
                if type(exc).__name__ == "DepthCapExceeded":
                    self.cap_failures += 1
            if type(exc).__name__ == "CommonRoot":
                self.routes["common_root"] += 1
            elif exc is None:
                route = ("twisted" if type(result).__name__ == "TwistedOrdering"
                         else "strict" if strict else "standard")
                self.routes[route] += 1

    def wrap(self, name: str, fn):
        name_id = self.ids[name]
        observed = name in ("exactlin.rref", "series.magnus",
                            "exactlin.strict_separator", "stdord.separate")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name == "stdord.separate":
                self._strict_seen.append(False)
            frame = self.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.leave(frame)
                if observed:
                    self._observe(name, None, exc)
                raise
            self.leave(frame)
            if observed:
                self._observe(name, result, None)
            return result

        return wrapper

    def write(self, path) -> int:
        """Write the span table as gzip'd TSV; returns the number of spans."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            t0 = self.start_col[0] if self.start_col else 0.0
            names = self.names
            for i in range(len(self.name_col)):
                out.write(f"{self.span_col[i]}\t{names[self.name_col[i]]}\t"
                          f"{self.start_col[i] - t0:.9f}\t{self.end_col[i] - t0:.9f}\t"
                          f"{self.parent_col[i]}\t{self.query_col[i]}\n")
        return len(self.name_col)


def _resolve(owner, path: str):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> list:
    """Wrap every traced function at every binding; returns an undo list."""
    for _, module_name, _ in TRACED:
        importlib.import_module("grouporders." + module_name)
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "grouporders" or name.startswith("grouporders."))]
    undo = []
    for span, module_name, path in TRACED:
        owner, attr = _resolve(sys.modules["grouporders." + module_name], path)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(span, original)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
        if "." in path:
            continue  # methods are looked up on the class at call time
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
