"""Layer tracing from outside the program: wrap public functions, record spans.

Each wrapped function gets a span per call (name, start, end, parent index)
kept in flat in-memory arrays; ``write`` saves them when the run ends and
``layer_metrics`` turns them into per-function calls and self-time share and
per-layer inclusive share.  Self time is a span's duration minus the time of its direct child
spans.  A few wrappers also count the inputs that decide whether a later
memo, interning or vectorisation can help (the ``*_ratio`` metrics).
"""

from __future__ import annotations

import array
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

# layer (= module) -> traced public functions; "Class.method" patches the class
LAYERS = {
    "core": ["compose", "segment", "paths_of_degree", "KGraph.normalize",
             "validate_presentation"],
    "alignment": ["mce", "mce_set", "vee", "is_exhaustive", "enumerate_fe"],
    "aperiodicity": ["aperiodicity_report", "find_separating_extension", "separate_family"],
    "boundary": ["shift", "extend", "BoundaryPathHandle.window",
                 "BoundaryPathHandle.fingerprint", "check_boundary_condition",
                 "aperiodicity_window_check"],
    "repalg": ["OperatorMatrix.__matmul__", "OperatorMatrix.adjoint", "operator_norm",
               "IsometryFamily.generator", "IsometryFamily.safe_columns",
               "IsometryFamily.evaluate", "build_fock_family", "build_boundary_family",
               "build_separating_system", "verify_tck", "verify_ck", "verify_phi2",
               "verify_claim1", "verify_exp_square", "verify_diagonal_formula",
               "lem3_check", "couniversal_norm_check"],
    "cli": ["load_graph", "load_seed_handles", "emit"],
}

# extra per-function figures: suffix -> (numerator, denominator, better).  A
# ratio is numerator over denominator; with no denominator it is a plain count.
RATIOS = {
    "core.paths_of_degree": {"paths": ("paths", None, "lower")},
    "alignment.mce_set": {"nonempty_ratio": ("nonempty", "calls", "higher")},
    "alignment.enumerate_fe": {"yield_ratio": ("sets", "exhaustive_calls", "higher"),
                               "repeat_ratio": ("repeats", "calls", "higher")},
    "boundary.BoundaryPathHandle.fingerprint": {
        "repeat_ratio": ("repeats", "calls", "higher")},
    "repalg.OperatorMatrix.__matmul__": {"nnz": ("nnz", None, "lower")},
    "repalg.operator_norm": {"large_ratio": ("large", "calls", "lower")},
    "repalg.IsometryFamily.generator": {"miss_ratio": ("misses", "calls", "lower")},
}

DENSE_THRESHOLD = 600  # operator_norm's default switch to power iteration


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric this module reports: (name, unit, better)."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            out += [(f"{key}.calls", "count", "lower"), (f"{key}.self_share", "ratio", "lower")]
            for suffix, (_, den, better) in RATIOS.get(key, {}).items():
                out.append((f"{key}.{suffix}", "ratio" if den else "count", better))
    for layer in LAYERS:
        out += [(f"{layer}.incl_share", "ratio", "lower"),
                (f"{layer}.src_lines", "lines", "lower")]
    out += [("trace.wall_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = [-1]
        self.counters: dict[str, dict[str, int]] = {}
        self.seen: dict[str, set] = {}
        self.keep: list = []  # holds keyed objects alive so their ids stay unique

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key: str, field: str, n: int = 1) -> None:
        c = self.counters.setdefault(key, {})
        c[field] = c.get(field, 0) + n

    def first_time(self, key: str, item, owner=None) -> bool:
        seen = self.seen.setdefault(key, set())
        if item in seen:
            return False
        seen.add(item)
        if owner is not None:
            self.keep.append(owner)
        return True

    @contextlib.contextmanager
    def span(self, name: str):
        """A span with no wrapped function around it (one CLI run)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, key: str, fn, extra=None):
        nid = self._name_id(key)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every traced function; return the keys that were not found."""
        missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kgraphkit" or n.startswith("kgraphkit.")]
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"kgraphkit.{layer}")
            for fn in fns:
                key = f"{layer}.{fn}"
                extra = self._extra(key)
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(mod, cls_name, None)
                    original = cls.__dict__.get(attr) if cls is not None else None
                    if original is None:
                        missing.append(key)
                        continue
                    setattr(cls, attr, self.wrap(key, original, extra))
                    continue
                original = getattr(mod, fn, None)
                if original is None:
                    missing.append(key)
                    continue
                wrapped = self.wrap(key, original, extra)
                # the defining module and every module that did `from .x import fn`
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        return missing

    def _extra(self, key: str):
        t = self
        if key == "core.paths_of_degree":
            return lambda a, kw, r: t.count(key, "paths", len(r))
        if key == "alignment.mce_set":
            return lambda a, kw, r: t.count(key, "nonempty", bool(r))
        if key == "alignment.enumerate_fe":
            def fe(a, kw, r):
                g, v, cap = a[0], a[1], a[2] if len(a) > 2 else kw["cap"]
                cap = tuple(cap) if hasattr(cap, "__iter__") else (cap,)
                t.count(key, "repeats", not t.first_time(key, (id(g), v, cap), g))
                t.count(key, "sets", len(r))
            return fe
        if key == "boundary.BoundaryPathHandle.fingerprint":
            def fp(a, kw, r):
                width = a[1] if len(a) > 1 else kw["width"]
                width = tuple(width) if hasattr(width, "__iter__") else (width,)
                t.count(key, "repeats", not t.first_time(key, (a[0].describe(), width)))
            return fp
        if key == "repalg.OperatorMatrix.__matmul__":
            return lambda a, kw, r: t.count(key, "nnz", len(getattr(r, "entries", ())))
        if key == "repalg.operator_norm":
            return lambda a, kw, r: t.count(key, "large", len(a[0].basis) > DENSE_THRESHOLD)
        if key == "repalg.IsometryFamily.generator":
            def gen(a, kw, r):
                fam, lam = a[0], a[1] if len(a) > 1 else kw["lam"]
                t.count(key, "misses", t.first_time(key, (id(fam), lam), fam))
            return gen
        return None

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save the spans: a JSON header line, then the four raw arrays."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls and self-time share, ratios, and each layer's share.

        Times are reported as shares of the traced ``wall_s``: a function that
        is never called then reads 0 as a ratio, not as a time, and shares
        compare across runs on a host whose speed drifts.
        """
        n = len(self.span_name)
        names, parent = self.names, self.span_parent
        start, end = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        incl: dict[str, float] = {}
        is_exhaustive, fe = (names.index(k) if k in names else -2
                             for k in ("alignment.is_exhaustive", "alignment.enumerate_fe"))
        layer_of = [nm.split(".")[0] for nm in names]
        for i in range(n):
            nm = names[self.span_name[i]]
            dur = end[i] - start[i]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + dur - child[i]
            layer = layer_of[self.span_name[i]]
            p = parent[i]
            if self.span_name[i] == is_exhaustive and p >= 0 and self.span_name[p] == fe:
                self.count("alignment.enumerate_fe", "exhaustive_calls")
            # inclusive time: only the outermost span of each layer counts
            while p >= 0 and layer_of[self.span_name[p]] != layer:
                p = parent[p]
            if p < 0:
                incl[layer] = incl.get(layer, 0.0) + dur
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_share"] = self_s.get(key, 0.0) / wall_s if wall_s else 0.0
                c = dict(self.counters.get(key, {}), calls=calls.get(key, 0))
                for suffix, (num, den, _) in RATIOS.get(key, {}).items():
                    if den is None:
                        out[f"{key}.{suffix}"] = c.get(num, 0)
                    else:
                        out[f"{key}.{suffix}"] = c.get(num, 0) / c[den] if c.get(den) else 0.0
            out[f"{layer}.incl_share"] = incl.get(layer, 0.0) / wall_s if wall_s else 0.0
        return out


def src_lines(src: Path) -> dict[str, int]:
    """Line count of each layer's module; src/ size is tracked next to runtime."""
    out = {}
    for layer in LAYERS:
        f = src / "kgraphkit" / f"{layer}.py"
        out[f"{layer}.src_lines"] = len(f.read_text(encoding="utf-8").splitlines()) \
            if f.exists() else 0
    return out
