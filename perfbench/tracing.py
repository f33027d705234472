"""In-memory span tracing of the package's public functions.

The benchmark never edits the package.  Instead, ``instrument`` replaces each
traced function with a wrapper in every place a caller looks it up: every
``permrank`` module attribute bound to the function (so ``characters.rim_hooks``,
imported by name, is patched as well as ``young.rim_hooks``), or the class
attribute for a method.  Recursive calls go through the module global, so
the ``characters.character`` recursion is traced call by call.

A span is (name, start, end, parent, pass id, work, raised).  Spans live in flat
arrays while the run lasts and are written out once, at the end.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

from permrank import bounds, characters, group_algebra, permmatrix, perms, twoway, verify, young
from permrank.group_algebra import GroupAlgebraElement
from permrank.permmatrix import BinaryMatrix
from permrank.twoway import DFA

PASS_SPAN = "pass"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.pass_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.raised = array("b")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._depth: list[int] = []
        self._stack = [-1]
        self.pass_no = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.pass_no)
        self.work.append(0.0)
        self.raised.append(0)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def wrap(self, name, fn, work=None):
        """Wrap ``fn`` in a span.  ``name`` may be a callable of the call's
        positional arguments; ``work(args, result)`` gives the span's work
        count (cells, bytes, states)."""
        fixed = None if callable(name) else self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(self._stack) == 1:  # outside a pass: input making and checks
                return fn(*args, **kwargs)
            i = self.open(fixed if fixed is not None else self.intern(name(args)))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
            if work is not None:
                self.work[i] = work(args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.float64),
            "outer": np.frombuffer(self.outer, dtype=np.int8),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _cells(args, _result) -> float:
    m = args[0]
    if isinstance(m, BinaryMatrix):
        return float(m.order) ** 2
    return float(np.prod(np.shape(m)))


def _suite_name(args) -> str:
    return f"verify.{args[0]}"


#: (span name, owner, attribute, work function).  Module functions are
#: patched wherever a permrank module binds them; methods on their class.
TRACED = [
    ("permmatrix.certified_rank", permmatrix, "certified_rank", None),
    ("permmatrix.cycle_product_matrix", permmatrix, "cycle_product_matrix",
     lambda a, r: float(r.packed.nbytes)),
    ("permmatrix.rank_mod_prime", permmatrix, "rank_mod_prime", _cells),
    ("permmatrix.rank_exact", permmatrix, "rank_exact", _cells),
    ("permmatrix.random_prime", permmatrix, "random_prime", None),
    ("permmatrix.write_pbm", permmatrix, "write_pbm", None),
    ("permmatrix.BinaryMatrix.to_dense", BinaryMatrix, "to_dense", lambda a, r: float(r.nbytes)),
    ("perms.all_perms", perms, "all_perms", None),
    ("perms.cyclic_perms", perms, "cyclic_perms", None),
    ("group_algebra.is_central", group_algebra, "is_central", None),
    ("group_algebra.mul", GroupAlgebraElement, "__mul__", None),
    ("characters.character", characters, "character", None),
    ("young.rim_hooks", young, "rim_hooks", None),
    ("bounds.asymptotic_ratio", bounds, "asymptotic_ratio", None),
    ("twoway.accepts", twoway, "accepts", None),
    ("twoway.comm_matrix", twoway, "comm_matrix", None),
    ("twoway.to_dfa", twoway, "to_dfa", lambda a, r: float(r.n_states)),
    ("twoway.DFA.minimize", DFA, "minimize", None),
    ("twoway.schmidt_lower_bound", twoway, "schmidt_lower_bound", None),
    (_suite_name, verify, "run_suite", None),
]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "permrank" or name.startswith("permrank."))]


def instrument(tracer: Tracer) -> None:
    """Patch every entry of TRACED; the package source is left untouched."""
    modules = package_modules()
    for name, owner, attr, work in TRACED:
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, work)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def package_caches():
    """Every functools cache in the package, found before any patching."""
    found = []
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", "").startswith("permrank") and value not in found:
                found.append(value)
    return found


# --- per-layer metrics from the spans --------------------------------------

#: metric name -> (unit, span name, aggregate).  "incl" sums the durations
#: of outermost spans of that name, "self" sums self times, "calls" counts
#: spans, "raised" counts those that raised, "work" sums their work counts
#: (computed from shapes and sizes, not measured by hardware).
LAYER_METRICS = {
    "permmatrix.modp_s": ("s", "permmatrix.rank_mod_prime", "incl"),
    "permmatrix.modp_calls": ("count", "permmatrix.rank_mod_prime", "calls"),
    "permmatrix.modp_cells": ("count", "permmatrix.rank_mod_prime", "work"),
    "permmatrix.unpack_s": ("s", "permmatrix.BinaryMatrix.to_dense", "incl"),
    "permmatrix.build_s": ("s", "permmatrix.cycle_product_matrix", "incl"),
    "permmatrix.build_bytes": ("B", "permmatrix.cycle_product_matrix", "work"),
    "permmatrix.pbm_write_s": ("s", "permmatrix.write_pbm", "incl"),
    "permmatrix.exact_s": ("s", "permmatrix.rank_exact", "incl"),
    "permmatrix.exact_calls": ("count", "permmatrix.rank_exact", "calls"),
    "permmatrix.exact_cells": ("count", "permmatrix.rank_exact", "work"),
    "permmatrix.exact_raised_calls": ("count", "permmatrix.rank_exact", "raised"),
    "permmatrix.prime_sample_s": ("s", "permmatrix.random_prime", "incl"),
    "permmatrix.certify_self_s": ("s", "permmatrix.certified_rank", "self"),
    "perms.all_perms_s": ("s", "perms.all_perms", "incl"),
    "perms.cyclic_perms_s": ("s", "perms.cyclic_perms", "incl"),
    "group_algebra.is_central_s": ("s", "group_algebra.is_central", "incl"),
    "group_algebra.mul_calls": ("count", "group_algebra.mul", "calls"),
    "characters.character_calls": ("count", "characters.character", "calls"),
    "characters.character_s": ("s", "characters.character", "incl"),
    "young.rim_hooks_calls": ("count", "young.rim_hooks", "calls"),
    "young.rim_hooks_s": ("s", "young.rim_hooks", "incl"),
    "bounds.asymptotic_ratio_s": ("s", "bounds.asymptotic_ratio", "incl"),
    "twoway.accepts_calls": ("count", "twoway.accepts", "calls"),
    "twoway.accepts_s": ("s", "twoway.accepts", "incl"),
    "twoway.comm_matrix_self_s": ("s", "twoway.comm_matrix", "self"),
    "twoway.to_dfa_s": ("s", "twoway.to_dfa", "incl"),
    "twoway.to_dfa_states": ("count", "twoway.to_dfa", "work"),
    "twoway.minimize_s": ("s", "twoway.DFA.minimize", "incl"),
    "twoway.schmidt_s": ("s", "twoway.schmidt_lower_bound", "incl"),
    **{f"verify.{suite}_s": ("s", f"verify.{suite}", "incl") for suite in verify.SUITES},
}

#: Bytes per int64 residue; residues are what elimination mod p works on.
RESIDUE_BYTES = 8


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass medians of every LAYER_METRICS entry plus derived ratios."""
    t = tracer.arrays()
    n = t["name"].size
    dur = t["end"] - t["start"]
    child = np.zeros(n)
    has_parent = t["parent"] >= 0
    np.add.at(child, t["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    ids = {name: i for i, name in enumerate(t["names"].tolist())}
    passes = sorted(set(t["pass_id"][t["name"] == ids[PASS_SPAN]].tolist()))

    def per_pass(span, kind):
        nid = ids.get(span)
        out = []
        for p in passes:
            sel = (t["pass_id"] == p) & (t["name"] == nid) if nid is not None else np.zeros(n, bool)
            if kind == "incl":
                out.append(float(dur[sel & (t["outer"] == 1)].sum()))
            elif kind == "self":
                out.append(float(self_time[sel].sum()))
            elif kind == "calls":
                out.append(float(sel.sum()))
            elif kind == "raised":
                out.append(float(t["raised"][sel].sum()))
            else:
                out.append(float(t["work"][sel].sum()))
        return out

    rows = {name: per_pass(span, kind) for name, (_, span, kind) in LAYER_METRICS.items()}
    modp_s, cells = rows["permmatrix.modp_s"], rows["permmatrix.modp_cells"]
    rows["permmatrix.modp_cells_per_s"] = [c / s if s else 0.0 for c, s in zip(cells, modp_s)]
    rows["permmatrix.residue_bytes"] = [c * RESIDUE_BYTES for c in cells]
    dense = per_pass("permmatrix.BinaryMatrix.to_dense", "work")
    rows["permmatrix.unpack_bytes"] = [d + c * RESIDUE_BYTES for d, c in zip(dense, cells)]
    rows["trace.pass_s"] = per_pass(PASS_SPAN, "incl")
    rows["trace.unattributed_s"] = per_pass(PASS_SPAN, "self")
    return {name: statistics.median(values) for name, values in rows.items()}


LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()} | {
    "permmatrix.modp_cells_per_s": "1/s",
    "permmatrix.residue_bytes": "B",
    "permmatrix.unpack_bytes": "B",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
}
