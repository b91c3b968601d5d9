"""Tracing of klausim's public functions from outside the package.

The tracer times klausim from the outside: it rebinds each wrapped public
function in every ``klausim.*`` module namespace that holds it (``analyze``
is bound in ``basis``, ``fields``, ``noise`` and ``dynamics``), wraps the
methods ``NoisePath.field_increment`` and ``FrozenPair.h_values``, and the
``gmres`` binding in ``klausim.dynamics``.  Nothing under ``src/`` changes.

Spans (name, start, end, parent span, call id) are kept in flat arrays while
the entry call runs and written out once the run ends; self time and the
nested counters (power_gamma calls inside a Newton solve, apply_laplacian
calls inside GMRES) are derived from the parent links afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> public names wrapped in that module
WRAPPED = {
    "basis": ("build_basis", "analyze", "synthesize", "apply_laplacian"),
    "fields": ("lp_norm", "sobolev_norm", "power_gamma"),
    "noise": ("sample_increments", "mode_normals", "generate_path"),
    "dynamics": (
        "pm_implicit_step", "heat_step", "step_coupled", "step_frozen",
        "step_decoupled", "simulate_path",
    ),
    "fixedpoint": (
        "apply_V", "pair_distance", "picard_solve", "glue_simulate",
        "exit_prob_estimate",
    ),
    "diagnostics": ("energy_monitor", "ensemble_moments"),
    "cli": ("build_scenario", "write_norm_series", "write_snapshots"),
}
# (module, class, method) wrapped in place on the class
WRAPPED_METHODS = (
    ("noise", "NoisePath", "field_increment"),
    ("fixedpoint", "FrozenPair", "h_values"),
)
STEP_NAMES = (
    "dynamics.step_coupled", "dynamics.step_frozen", "dynamics.step_decoupled",
)


class Tracer:
    """Span recorder; ``active`` is on only while an entry call runs."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call_id = array("i")
        self._stack: list[int] = []
        self.current_call = -1
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.call_id.append(self.current_call)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict) -> None:
        """Rebind every wrapped function in each klausim module holding it."""
        originals = {}
        for layer, names in WRAPPED.items():
            for name in names:
                originals[id(getattr(modules[layer], name))] = f"{layer}.{name}"
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if not (modname == "klausim" or modname.startswith("klausim.")):
                continue
            for attr, value in list(vars(mod).items()):
                label = originals.get(id(value))
                if label is None:
                    continue
                if label not in wrappers:
                    wrappers[label] = self.wrap(label, value)
                setattr(mod, attr, wrappers[label])
        missing = set(originals.values()) - set(wrappers)
        if missing:
            raise RuntimeError(f"could not rebind {sorted(missing)}")
        dyn = modules["dynamics"]
        dyn.gmres = self.wrap("dynamics.gmres", dyn.gmres)
        for layer, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            call_id=np.frombuffer(self.call_id, dtype=np.int32),
        )

    # ------------------------------------------------------------ analysis

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds, self seconds and nested counts.

        Returns {name: {"calls", "s", "self_s"}} plus the derived entries
        ``_nested`` (counts of one name under an ancestor of another) and
        ``_step_ms`` (durations of every step span, in ms).
        """
        n = self.n_spans
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        end = np.frombuffer(self.end, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = end - start
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        ids = {name: i for i, name in enumerate(self.names)}
        out["_nested"] = {
            "power_gamma_in_pm": self._count_under(
                name_id, parent, ids["fields.power_gamma"],
                ids["dynamics.pm_implicit_step"]),
            "apply_laplacian_in_gmres": self._count_under(
                name_id, parent, ids["basis.apply_laplacian"],
                ids["dynamics.gmres"]),
        }
        step_mask = np.isin(name_id, [ids[s] for s in STEP_NAMES])
        out["_step_ms"] = dur[step_mask] * 1e3
        return out

    @staticmethod
    def _count_under(name_id, parent, target: int, ancestor: int) -> int:
        """Spans named `target` with a span named `ancestor` above them."""
        count = 0
        for idx in np.nonzero(name_id == target)[0]:
            p = parent[idx]
            while p >= 0:
                if name_id[p] == ancestor:
                    count += 1
                    break
                p = parent[p]
        return count

