"""Spans and counters around exthh's public functions, for the traced run.

The tracer wraps module-level functions from outside the package.  Every
attribute of a loaded ``exthh`` module that is bound to a wrapped function
is rebound to the wrapper, so calls made through another module's import
(``cli`` calling ``hochschild.build_reduced_chain``, say) are seen too.
Nothing inside the package is edited.

A span records name, start, end, parent span and pass id.  Spans stay in
memory and are written when the pass ends.  Functions called once per
cell get a counter and no span.  Work the tracer itself does on a call's
arguments or result runs inside a ``bench.hook`` span, which is taken
out of every self time and time-in figure.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

BUILDERS = (
    "hochschild.build_bar_resolution",
    "hochschild.build_reduced_resolution",
    "hochschild.build_bar_hochschild_chain",
    "hochschild.build_bar_hochschild_cochain",
    "hochschild.build_reduced_chain",
    "hochschild.build_reduced_cochain",
)
ELIMINATIONS = ("linalg.smith_normal_form", "linalg.field_rank")
CHECKS = ("morse.check_matching", "morse.check_matching_streaming")

SPANNED = BUILDERS + ELIMINATIONS + CHECKS + (
    "hochschild.pushforward_cochain",
    "complexes.homology",
    "linalg.homology_pair",
    "linalg.homology_pair_field",
    "linalg.compose",
    "linalg.field_kernel_basis",
    "linalg.integer_kernel_basis",
    "linalg.solve_in_image",
    "products.ring_structure_constants",
    "products.generator_span_check",
    "products.cup_bar",
    "verify.bar_matching_check",
    "verify.koszul_matching_checks",
    "cli.run",
)
COUNTED = ("hochschild.bar_classify", "hochschild.bar_down_terms", "products.cup_reduced")
HOOK = "bench.hook"

# Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "hochschild.build_s": "s",
    "hochschild.cells": "count",
    "hochschild.nnz": "count",
    "hochschild.classify_calls": "count",
    "hochschild.down_terms_calls": "count",
    "hochschild.pushforward_s": "s",
    "complexes.homology_s": "s",
    "complexes.homology_calls": "count",
    "linalg.split_s": "s",
    "linalg.snf_s": "s",
    "linalg.field_rank_s": "s",
    "linalg.compose_s": "s",
    "linalg.largest_block": "count",
    "linalg.elim_calls": "count",
    "linalg.elim_nnz": "count",
    "linalg.elim_repeat_frac": "ratio",
    "linalg.kernel_s": "s",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "morse.stream_check_s": "s",
    "morse.check_s": "s",
    "morse.critical_cells": "count",
    "products.ring_constants_s": "s",
    "products.span_check_s": "s",
    "products.cup_bar_s": "s",
    "products.cup_reduced_calls": "count",
    "verify.bar_matching_s": "s",
    "verify.koszul_s": "s",
    "cli.format_s": "s",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit != "s")


class Tracer:
    """Spans and counters of one pass.  ``install`` rebinds the exthh
    functions to recording wrappers; it is meant for a process that runs a
    single pass and exits."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.largest_block = 0
        self.eliminated: set[int] = set()
        self.builder_depth = 0

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None])
        self.stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def _hook(self, fn, *args) -> None:
        sid = self._open(HOOK)
        try:
            fn(*args)
        finally:
            self._close(sid)

    def _before(self, name: str, args: tuple) -> None:
        if name in ELIMINATIONS:
            self._hook(self._note_elimination, args[0])
        elif name in BUILDERS:
            self.builder_depth += 1

    def _after(self, name: str, result) -> None:
        if name in BUILDERS and self.builder_depth == 0:
            self._hook(self._note_complex, result)
        elif name in CHECKS:
            self._hook(self._note_report, result)

    def _note_elimination(self, m) -> None:
        self.counts["linalg.elim_calls"] += 1
        self.counts["linalg.elim_nnz"] += m.nnz()
        self.largest_block = max(self.largest_block, m.rows, m.cols)
        key = hash((m.rows, m.cols, m.domain.name, frozenset(m.entries.items())))
        if key in self.eliminated:
            self.counts["linalg.elim_repeats"] += 1
        self.eliminated.add(key)

    def _note_complex(self, c) -> None:
        self.counts["hochschild.cells"] += sum(c.dim(k) for k in c.degrees)
        self.counts["hochschild.nnz"] += sum(d.nnz() for d in c.diffs.values())

    def _note_report(self, report) -> None:
        self.counts["morse.critical_cells"] += sum(len(v) for v in report.critical.values())

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
                if name in BUILDERS:
                    self.builder_depth -= 1
            self._after(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every traced exthh function, in every exthh module that
        holds it, to its wrapper.  Call after the package is imported."""
        modules = [m for key, m in sys.modules.items() if key == "exthh" or key.startswith("exthh.")]
        for names, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                module, attr = name.split(".")
                original = getattr(sys.modules[f"exthh.{module}"], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- reporting -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass, keyed as in ``LAYER_UNITS``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        hook_time = [0.0] * len(spans)  # tracer work anywhere inside a span
        for sid in range(len(spans) - 1, -1, -1):  # children before parents
            name, start, end, parent = spans[sid]
            if name == HOOK:
                hook_time[sid] = end - start
            if parent is not None:
                child_time[parent] += end - start
                hook_time[parent] += hook_time[sid]
        time_in: Counter = Counter()  # outermost spans of each name only
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for sid, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[sid]
            group = BUILDERS if name in BUILDERS else (name,)
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] not in group:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                time_in[name] += end - start - hook_time[sid]
        counts = self.counts
        elim_calls = counts["linalg.elim_calls"]
        return {
            "hochschild.build_s": sum(time_in[b] for b in BUILDERS),
            "hochschild.cells": counts["hochschild.cells"],
            "hochschild.nnz": counts["hochschild.nnz"],
            "hochschild.classify_calls": counts["hochschild.bar_classify"],
            "hochschild.down_terms_calls": counts["hochschild.bar_down_terms"],
            "hochschild.pushforward_s": time_in["hochschild.pushforward_cochain"],
            "complexes.homology_s": time_in["complexes.homology"],
            "complexes.homology_calls": calls["complexes.homology"],
            "linalg.split_s": self_time["linalg.homology_pair"]
            + self_time["linalg.homology_pair_field"],
            "linalg.snf_s": time_in["linalg.smith_normal_form"],
            "linalg.field_rank_s": time_in["linalg.field_rank"],
            "linalg.compose_s": time_in["linalg.compose"],
            "linalg.largest_block": self.largest_block,
            "linalg.elim_calls": elim_calls,
            "linalg.elim_nnz": counts["linalg.elim_nnz"],
            "linalg.elim_repeat_frac": counts["linalg.elim_repeats"] / elim_calls
            if elim_calls
            else 0.0,
            "linalg.kernel_s": time_in["linalg.field_kernel_basis"]
            + time_in["linalg.integer_kernel_basis"],
            "linalg.solve_s": time_in["linalg.solve_in_image"],
            "linalg.solve_calls": calls["linalg.solve_in_image"],
            "morse.stream_check_s": time_in["morse.check_matching_streaming"],
            "morse.check_s": time_in["morse.check_matching"],
            "morse.critical_cells": counts["morse.critical_cells"],
            "products.ring_constants_s": time_in["products.ring_structure_constants"],
            "products.span_check_s": time_in["products.generator_span_check"],
            "products.cup_bar_s": time_in["products.cup_bar"],
            "products.cup_reduced_calls": counts["products.cup_reduced"],
            "verify.bar_matching_s": self_time["verify.bar_matching_check"],
            "verify.koszul_s": self_time["verify.koszul_matching_checks"],
            "cli.format_s": self_time["cli.run"],
        }

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent, "pass": self.pass_id}
                f.write(json.dumps(record, separators=(",", ":")) + "\n")
