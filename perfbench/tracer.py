"""In-memory span tracer that wraps canonctrl's layer entry points from outside.

`Tracer.installed()` replaces each entry point listed in `LAYER_ENTRY_POINTS`
by a timing wrapper, in every canonctrl module that has bound the function by
name (``from .signal import hankel`` makes a separate binding), and restores
the originals on exit.  Nothing in the library is edited.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory until `write` dumps them.  A span's self time is its
duration minus the time its direct child spans cover; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = (
    "canonctrl",
    "canonctrl.signal",
    "canonctrl.subspace",
    "canonctrl.lti_core",
    "canonctrl.implementability",
    "canonctrl.canonical",
    "canonctrl.harness",
    "canonctrl.cli",
)

#: span name -> (defining module, attribute path)
LAYER_ENTRY_POINTS = {
    "signal.hankel": ("canonctrl.signal", "hankel"),
    "signal.is_gpe": ("canonctrl.signal", "is_gpe"),
    "signal.read_csv": ("canonctrl.signal", "read_csv"),
    "subspace.orthonormal_basis": ("canonctrl.subspace", "orthonormal_basis"),
    "subspace.pinv": ("canonctrl.subspace", "pinv"),
    "subspace.rank": ("canonctrl.subspace", "RankTolerance.rank"),
    "subspace.projector_onto": ("canonctrl.subspace", "projector_onto"),
    "subspace.pinv_symmetric": ("canonctrl.subspace", "pinv_symmetric"),
    "subspace.intersect": ("canonctrl.subspace", "intersect"),
    "subspace.is_subspace_of": ("canonctrl.subspace", "is_subspace_of"),
    "subspace.principal_angles": ("canonctrl.subspace", "principal_angles"),
    "implementability.hidden_basis": ("canonctrl.implementability", "hidden_basis"),
    "implementability.reference_basis": ("canonctrl.implementability", "reference_basis"),
    "implementability.uncontrolled_basis": ("canonctrl.implementability", "uncontrolled_basis"),
    "canonical.plant_projector": ("canonctrl.canonical", "plant_projector"),
    "canonical.reference_lift_projector": ("canonctrl.canonical", "reference_lift_projector"),
    "canonical.controller_basis": ("canonctrl.canonical", "controller_basis"),
    "canonical.controller_basis_intersection_route": (
        "canonctrl.canonical",
        "controller_basis_intersection_route",
    ),
    "canonical.verify_closed_loop": ("canonctrl.canonical", "verify_closed_loop"),
    "canonical.write_controller_csv": ("canonctrl.canonical", "write_controller_csv"),
    "lti_core.simulate": ("canonctrl.lti_core", "simulate"),
    "lti_core.behavior_window_map": ("canonctrl.lti_core", "behavior_window_map"),
    "lti_core.projected_invariants": ("canonctrl.lti_core", "projected_invariants"),
    "lti_core.invariants_of": ("canonctrl.lti_core", "invariants_of"),
    "lti_core.hidden_restricted_basis": ("canonctrl.lti_core", "hidden_restricted_basis"),
    "harness.build_case": ("canonctrl.harness", "build_case"),
    "harness.evaluate_case": ("canonctrl.harness", "evaluate_case"),
    "harness.gpe_trajectory": ("canonctrl.harness", "gpe_trajectory"),
    "cli": ("canonctrl.cli", "main"),
}

#: spans whose call count is reported as `<name>_calls`
COUNTED = (
    "signal.hankel",
    "subspace.orthonormal_basis",
    "subspace.intersect",
    "lti_core.simulate",
    "lti_core.behavior_window_map",
)

#: spans whose input size feeds subspace.max_input_cells
MATRIX_INPUT = {
    "subspace.orthonormal_basis": 0,
    "subspace.pinv": 0,
    "subspace.rank": 1,  # unbound method: args[0] is the RankTolerance
}

# span record fields
NAME, START, END, PARENT, OP, VALUE = range(6)


def _cells(M) -> int:
    shape = getattr(M, "shape", ())
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


class Tracer:
    """Collects spans for a sequence of operations; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; inner spans share its id."""
        self._op += 1
        idx = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        arg_pos = MATRIX_INPUT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            if name == "signal.hankel":
                span[VALUE] = _cells(result) * 8 / 1e6
            elif arg_pos is not None:
                span[VALUE] = _cells(args[arg_pos] if len(args) > arg_pos else kwargs.get("M"))
            elif name == "harness.gpe_trajectory":
                span[VALUE] = 1  # returned, so the trajectory was accepted
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every entry point for its traced wrapper; restore on exit."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo: list[tuple[object, str, object]] = []
        try:
            for name, (mod_name, attr) in LAYER_ENTRY_POINTS.items():
                owner = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [s[END] - s[START] for s in self.spans]
        own = list(durations)
        for s, dur in zip(self.spans, durations):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= dur
        return own

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """op id -> span name -> [self seconds, calls, summed value]."""
        own = self.self_times()
        table: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0, 0.0])
        )
        for s, t in zip(self.spans, own):
            row = table[s[OP]][s[NAME]]
            row[0] += t
            row[1] += 1
            if s[VALUE] is not None:
                row[2] += s[VALUE]
        return table

    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer metrics: median over the operations that entered each layer.

        `samples` is the number of those operations (spans, for the two
        whole-run figures).
        """
        table = self.per_op()
        out: dict[str, dict] = {}

        def put(name, values):
            out[name] = {"value": statistics.median(values), "samples": len(values)}

        for name in LAYER_ENTRY_POINTS:
            rows = [ops[name] for ops in table.values() if name in ops]
            if not rows:
                continue
            put("cli.self_s" if name == "cli" else f"{name}_s", [r[0] for r in rows])
            if name in COUNTED:
                put(f"{name}_calls", [r[1] for r in rows])
            if name == "signal.hankel":
                put("signal.hankel_mb", [r[2] for r in rows])
        cells = [s[VALUE] for s in self.spans if s[NAME] in MATRIX_INPUT]
        if cells:
            out["subspace.max_input_cells"] = {"value": max(cells), "samples": len(cells)}
        tried = [
            s
            for s in self.spans
            if s[NAME] == "signal.is_gpe"
            and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == "harness.gpe_trajectory"
        ]
        if tried:
            accepted = sum(1 for s in self.spans if s[NAME] == "harness.gpe_trajectory" and s[VALUE])
            out["harness.gpe_accept_ratio"] = {
                "value": accepted / len(tried), "samples": len(tried)
            }
        return out

    def breakdown(self) -> dict[str, dict[str, dict[str, float]]]:
        """Share of each operation kind's total time, by span name and by module.

        Self time of the root `op.*` span (the benchmark's own glue) is
        listed as `op`.
        """
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        by_name: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        roots = {}
        for s in self.spans:
            if s[PARENT] < 0:
                roots[s[OP]] = s[NAME][3:]
                totals[roots[s[OP]]] += s[END] - s[START]
        for s, t in zip(self.spans, own):
            kind = roots[s[OP]]
            name = "op" if s[NAME].startswith("op.") else s[NAME]
            by_name[kind][name] += t
        result = {}
        for kind, names in by_name.items():
            modules: dict[str, float] = defaultdict(float)
            for name, t in names.items():
                modules[name.split(".")[0]] += t
            result[kind] = {
                "by_span": {
                    n: round(t / totals[kind], 4)
                    for n, t in sorted(names.items(), key=lambda kv: -kv[1])
                },
                "by_module": {
                    m: round(t / totals[kind], 4)
                    for m, t in sorted(modules.items(), key=lambda kv: -kv[1])
                },
            }
        return result

    def write(self, path) -> None:
        """Dump all spans as gzipped JSON records (seconds, relative to the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        records = [
            {
                "name": s[NAME],
                "start": s[START] - t0,
                "end": s[END] - t0,
                "parent": s[PARENT],
                "op": s[OP],
            }
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(records, f)
