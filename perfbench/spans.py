"""In-memory span tracing around the public entry points of each layer.

Tracing is installed only around the traced operations of the traced
run: :meth:`Tracer.install` swaps each listed function or method for a
wrapper that records a span (name, start, end, parent, request id), and
:meth:`Tracer.uninstall` puts the originals back.  Nothing inside
``src/`` is modified.  A function imported by name into other modules
(``relocate_binary``, ``rewire_binary``, ``check_abi_compatibility``)
is swapped in every loaded ``repro`` module that holds it.

A layer's self time is the span's duration minus the time its child
spans cover; summed over all spans of a request it equals the request's
wall time, because every span nests inside the benchmark's own
``request`` span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "REQUEST_SPAN"]

#: root span the benchmark opens around each timed operation
REQUEST_SPAN = "request"


def _counts_from_ground(result, args, before) -> Dict[str, int]:
    return {"asp.ground_rules": result.stats()["rules"]}


def _counts_from_translate(result, args, before) -> Dict[str, int]:
    translator = args[0]
    stats = translator.solver.stats()
    return {
        "asp.ground_atoms": len(translator.atom_var),
        "asp.sat_vars": stats["vars"],
        "asp.sat_clauses": stats["clauses"],
    }


def _solver_before(args) -> Tuple[int, int]:
    solver = args[0]
    return solver.decisions, solver.conflicts


def _counts_from_sat(result, args, before) -> Dict[str, int]:
    solver = args[0]
    decisions, conflicts = before
    return {
        "asp.sat_calls": 1,
        "asp.sat_decisions": solver.decisions - decisions,
        "asp.sat_conflicts": solver.conflicts - conflicts,
    }


def _finder_before(args) -> int:
    return args[0].loop_formulas_added


def _counts_from_stable(result, args, before) -> Dict[str, int]:
    return {
        "asp.stable_calls": 1,
        "asp.loop_formulas": args[0].loop_formulas_added - before,
    }


def _counts_from_optimize(result, args, before) -> Dict[str, int]:
    return {"asp.models_seen": result.models_seen}


def _counts_from_reuse(result, args, before) -> Dict[str, int]:
    return {"concretize.reuse_facts": len(result)}


def _counts_from_cansplice(result, args, before) -> Dict[str, int]:
    return {"concretize.splice_rules": len(result)}


def _counts_from_relocate(result, args, before) -> Dict[str, int]:
    return {"binary.relocations": result.replacements}


def _counts_from_install(result, args, before) -> Dict[str, int]:
    return {
        "installer.built": len(result.built),
        "installer.rewired": len(result.rewired),
        "installer.extracted": len(result.extracted),
    }


#: (module, attribute path, span name, count-before hook, count-after hook)
#: for every public entry point the traced run wraps, grouped by layer
INSTRUMENTS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    # concretize
    ("repro.concretize.concretizer", "Concretizer.__init__", "concretize.init", None, None),
    ("repro.concretize.concretizer", "Concretizer.solve", "concretize.solve", None, None),
    ("repro.concretize.encode", "Encoder.encode_repository", "concretize.encode_repo", None, None),
    ("repro.concretize.encode", "Encoder.encode_request", "concretize.encode_request", None, None),
    ("repro.concretize.reuse", "ReuseEncoder.encode_specs", "concretize.encode_reuse", None, _counts_from_reuse),
    ("repro.concretize.cansplice", "CanSpliceCompiler.compile_all", "concretize.cansplice", None, _counts_from_cansplice),
    ("repro.concretize.extract", "ModelExtractor.extract", "concretize.extract", None, None),
    # asp
    ("repro.asp.api", "Control.solve", "asp.control", None, None),
    ("repro.asp.grounder", "Grounder.ground", "asp.ground", None, _counts_from_ground),
    ("repro.asp.translate", "Translator.__init__", "asp.translate", None, _counts_from_translate),
    ("repro.asp.optimize", "Optimizer.optimize", "asp.optimize", None, _counts_from_optimize),
    ("repro.asp.stable", "StableModelFinder.solve", "asp.stable", _finder_before, _counts_from_stable),
    ("repro.asp.sat", "Solver.solve", "asp.sat", _solver_before, _counts_from_sat),
    # buildcache
    ("repro.buildcache.cache", "BuildCache.__init__", "buildcache.index_load", None, None),
    ("repro.buildcache.cache", "BuildCache.__contains__", "buildcache.index_load", None, None),
    ("repro.buildcache.cache", "BuildCache.meta", "buildcache.lookup", None, None),
    ("repro.buildcache.cache", "BuildCache.has_payload", "buildcache.lookup", None, None),
    ("repro.buildcache.cache", "BuildCache.push", "buildcache.push", None, None),
    ("repro.buildcache.cache", "BuildCache.save_index", "buildcache.index_save", None, None),
    ("repro.buildcache.cache", "BuildCache.fetch", "buildcache.fetch", None, None),
    ("repro.buildcache.cache", "BuildCache.verify_payload", "buildcache.verify", None, None),
    ("repro.buildcache.cache", "BuildCache.extract_payload", "buildcache.extract", None, None),
    # binary
    ("repro.binary.relocate", "relocate_binary", "binary.relocate", None, _counts_from_relocate),
    ("repro.binary.rewire", "plan_rewire", "binary.rewire", None, None),
    ("repro.binary.rewire", "rewire_binary", "binary.rewire", None, None),
    ("repro.binary.abi", "check_abi_compatibility", "binary.abi_check", None, None),
    # installer
    ("repro.installer.installer", "Installer.install_all", "installer.install", None, _counts_from_install),
    ("repro.installer.installer", "Installer.push_to_cache", "installer.push", None, None),
    ("repro.installer.installer", "Installer.verify", "installer.verify", None, None),
    ("repro.installer.database", "Database.save", "installer.db_save", None, None),
]


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self):
        #: [name, start, end, parent index or None, request id]
        self.spans: List[list] = []
        #: request id -> {count name: total}
        self.counts: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._request: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def request(self, request_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` inside a root span tagged ``request_id``."""
        self._request = request_id
        index = self._open(REQUEST_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._request = None

    def _wrap(self, original: Callable, name: str, before, after) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None and self._request is not None:
                counts = self.counts[self._request]
                for key, value in after(result, args, state).items():
                    counts[key] += value
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap every instrumented entry point for its tracing wrapper."""
        for module_name, path, name, before, after in INSTRUMENTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, name, before, after))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, before, after)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Total self time per span name over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def total_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for counts in self.counts.values():
            for key, value in counts.items():
                totals[key] += value
        return dict(totals)

    def to_records(self) -> List[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
            }
            for name, start, end, parent, request in self.spans
        ]
