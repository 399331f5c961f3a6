"""In-memory span tracer for the altwalk layers.

``install`` wraps every public function (and every public method of a public
class) defined in ``altwalk.model``, ``lattice``, ``spectral``, ``limit``,
``verify`` and ``cli``, and rebinds the wrapper in every one of those module
namespaces (and the package's) that binds the original.  ``limit`` calls
``band_weights`` through its own globals, for example, so wrapping only
``spectral.band_weights`` would miss those calls.

Each call records one span ``(id, parent_id, name, start, end)``; spans stay in
memory and are appended when the call returns, so a child span always precedes
its parent.  A few wrappers also read counts off their arguments and results
(steps evolved, amplitudes stored, points evaluated, preimages found); that
work is itself recorded as a ``trace.hook`` span so it is not charged to the
caller.

Self time of a span is its duration minus the time of its boundary children:
children in another module, or children whose name is in ``SELF_TIMED``.
Calls into the same module are part of the caller's self time, so
``lattice.evolve`` keeps the stepping it does through ``lattice.step``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("model", "lattice", "spectral", "limit", "verify", "cli")

# functions whose self time is reported; they also bound their callers' self time
SELF_TIMED = (
    "lattice.evolve",
    "lattice.position_distribution",
    "lattice.write_distribution_csv",
    "limit.density_grid",
    "limit.integrate_density",
    "spectral.band_weights",
    "spectral.spectral_reconstruct",
    "spectral.numeric_char_function",
)

# verify checks reported by name, 0 when a workload does not run them
CHECKS = (
    "check_unitarity",
    "check_lattice_vs_spectral",
    "check_roundtrip",
    "check_jacobian",
    "check_support",
    "check_char_function",
    "check_weak_limit",
    "check_weight_table",
)

HOOK_SPAN = "trace.hook"


def _evolve_hook(counts, args, kwargs, result):
    state = args[1] if len(args) > 1 else kwargs["state"]
    counts["evolve_steps"] += result.time - state.time
    counts["stored_amps"] += result.amps.size
    counts["nonzero_amps"] += int(np.count_nonzero(result.amps))


def _alloc_hook(counts, args, kwargs, result):
    counts["alloc_bytes"] += result.amps.nbytes


def _density_grid_hook(counts, args, kwargs, result):
    counts["grid_points"] += result.f.size
    counts["grid_inside"] += int(np.count_nonzero(result.inside))
    counts["grid_evaluable"] += int(np.count_nonzero(result.evaluable))


def _preimage_hook(counts, args, kwargs, result):
    ok = result[2]
    counts["preimage_points"] += ok.size
    counts["preimage_found"] += int(np.count_nonzero(ok))


def _band_weights_hook(counts, args, kwargs, result):
    counts["band_weight_points"] += np.size(result[0])


HOOKS = {
    "lattice.evolve": _evolve_hook,
    "lattice.apply_coin": _alloc_hook,
    "lattice.apply_shift": _alloc_hook,
    "limit.density_grid": _density_grid_hook,
    "limit.branch_preimages": _preimage_hook,
    "spectral.band_weights": _band_weights_hook,
}


class Tracer:
    """Collects spans and counts; one per traced process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [0]  # id 0 is the root: no parent span
        self._next_id = 1

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, self._stack[-1], name, start, end))

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if hook is not None:
                hid = self._open()
                hstart = clock()
                try:
                    hook(self.counts, args, kwargs, result)
                finally:
                    self._close(hid, HOOK_SPAN, hstart)
            return result

        return traced


def _public_callables(module):
    """(qualified span name, owner, attribute, function) defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for meth_name, meth in vars(obj).items():
                if not meth_name.startswith("_") and inspect.isfunction(meth):
                    yield f"{short}.{obj.__name__}.{meth_name}", obj, meth_name, meth


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every altwalk module in every namespace binding them."""
    package = importlib.import_module("altwalk")
    modules = [importlib.import_module(f"altwalk.{m}") for m in MODULES]
    wrapped = {}  # id(original) -> (original, wrapper)
    for module in modules:
        for span_name, owner, attr, fn in list(_public_callables(module)):
            wrapper = tracer.wrap(span_name, fn)
            wrapped[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
    for namespace in [package, *modules]:
        for attr, obj in list(vars(namespace).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(namespace, attr, entry[1])


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> tuple[dict, dict, dict, float]:
    """Per-name self time, total time and call count, plus the cli layer's self time."""
    name_of = {sid: name for sid, _, name, _, _ in spans}
    boundary_set = set(SELF_TIMED)
    cut: dict[int, float] = defaultdict(float)  # span id -> time of its boundary children
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    cli_self = 0.0
    for sid, parent, name, start, end in spans:  # children precede parents
        dur = end - start
        own = dur - cut.pop(sid, 0.0)
        self_s[name] += own
        total_s[name] += dur
        calls[name] += 1
        parent_name = name_of.get(parent)
        if parent_name is None:
            if _module_of(name) == "cli":
                cli_self += own
            continue
        boundary = _module_of(name) != _module_of(parent_name) or name in boundary_set
        # a boundary child is cut whole; any other child passes on its own cut
        cut[parent] += dur if boundary else dur - own
        if _module_of(name) == "cli" and _module_of(parent_name) != "cli":
            cli_self += own
    return self_s, total_s, calls, cli_self


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process, every name always present."""
    self_s, total_s, calls, cli_self = self_times(tracer.spans)
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    metrics.update({
        "lattice.evolve.steps": c["evolve_steps"],
        "lattice.stored_amps": c["stored_amps"],
        "lattice.useful_ratio": ratio(c["nonzero_amps"], c["stored_amps"]),
        "lattice.alloc_bytes_computed": c["alloc_bytes"],
        "limit.density_grid.points": c["grid_points"],
        "limit.density_grid.inside_ratio": ratio(c["grid_inside"], c["grid_points"]),
        "limit.density_grid.evaluable_ratio": ratio(c["grid_evaluable"], c["grid_points"]),
        "limit.branch_preimages.calls": calls["limit.branch_preimages"],
        "limit.branch_preimages.points": c["preimage_points"],
        "limit.branch_preimages.yield": ratio(c["preimage_found"], c["preimage_points"]),
        "limit.inverse_map.calls": calls["limit.inverse_map"],
        "limit.inverse_map.mean_us": 1e6 * ratio(total_s.get("limit.inverse_map", 0.0),
                                                  calls["limit.inverse_map"]),
        "limit.classify_branch.calls": calls["limit.classify_branch"],
        "limit.support_contains.calls": calls["limit.support_contains"],
        "spectral.band_weights.points": c["band_weight_points"],
        "model.coin_matrix.calls": calls["model.Model.coin_matrix"],
        "cli.self_s": cli_self,
    })
    for check in CHECKS:
        metrics[f"verify.{check}.s"] = total_s.get(f"verify.{check}", 0.0)
    return metrics


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: id, parent id, name, start, end (seconds)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id\tparent\tname\tstart\tend\n")
        for sid, parent, name, start, end in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
