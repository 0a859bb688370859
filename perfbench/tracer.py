"""Span tracing from outside the program.

The tracer wraps public functions of lendmech's modules by replacing the
name where its caller looks it up (a module attribute, or a method on its
class), so the program itself is unchanged. Spans are kept in memory as
(name, start, end, parent, invocation) and written out by the caller at
exit. A span's self time is its duration minus that of its direct child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

from lendmech import aggregation, audit, cli, priors, rounds, scenario, vcg, winkler


def _cells(args, kwargs, result):
    return {"priors.sample_others.cells": result.size}


def _candidates(args, kwargs, result):
    return {"audit.candidates": len(result)}


def _rows(args, kwargs, result):
    return {"vcg.select_batch.rows": args[0].shape[0]}


def _loans(args, kwargs, result):
    return {"aggregation.loans_scanned": len(args[0].loans)}


def _ledger_bytes(args, kwargs, result):
    return {"rounds.ledger_bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, counter). The owner is where the caller
# looks the name up: audit imported sample_others by name, rounds imported
# budescu_weights by name, and engines are patched on their classes so the
# audit's isinstance checks still hold.
TARGETS = (
    (cli, "main", "cli.main", None),
    (scenario, "load", "scenario.load", None),
    (audit, "sample_others", "priors.sample_others", _cells),
    (audit, "generate_misreports", "audit.generate_misreports", _candidates),
    (audit, "best_response_search", "audit.best_response_search", None),
    (winkler.ColumnEngine, "__init__", "winkler.ColumnEngine.build", None),
    (winkler.ColumnEngine, "column_contribution", "winkler.ColumnEngine.column_contribution", None),
    (winkler, "allocate", "winkler.allocate", None),
    (winkler, "settle", "winkler.settle", None),
    (vcg.InterimEngine, "__init__", "vcg.InterimEngine.build", None),
    (vcg.InterimEngine, "utilities", "vcg.InterimEngine.utilities", None),
    (vcg, "select_batch", "vcg.select_batch", _rows),
    (vcg, "allocate", "vcg.allocate", None),
    (vcg, "settle", "vcg.settle", None),
    (vcg, "tcomp", "vcg.tcomp", None),
    (rounds, "budescu_weights", "aggregation.budescu_weights", _loans),
    (rounds, "run_round", "rounds.run_round", None),
    (rounds, "evolve_weights", "rounds.evolve_weights", None),
    (rounds.RoundLedger, "write_jsonl", "rounds.RoundLedger.write_jsonl", _ledger_bytes),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.invocation = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.invocation]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                tracer.counts[tracer.invocation].update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        # Spans are named after the module that defines the function, not
        # the one whose lookup is patched; check the two still agree.
        if audit.sample_others is not priors.sample_others or (
            rounds.budescu_weights is not aggregation.budescu_weights
        ):
            raise RuntimeError("a traced name no longer refers to the function its span names")
        self._originals = []
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped name is bound to its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._originals)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like `spans`."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def to_json(self) -> list[dict]:
        own = self.self_times()
        return [
            {
                "name": name, "start": start, "end": end, "parent": parent,
                "invocation": invocation, "self_s": own[k],
            }
            for k, (name, start, end, parent, invocation) in enumerate(self.spans)
        ]
