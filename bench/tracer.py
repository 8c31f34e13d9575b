"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public functions of the ``moddemix`` layers by rebinding
their names in the module namespace where the caller looks them up (for
example ``moddemix.solver.grad_total``, which is what ``solve`` calls), and
restores the originals afterwards.  Nothing in the package is edited.

Each wrapped call records one span: ``[name, start, end, parent, trial,
fft_calls, fft_points]``, where ``parent`` is the index of the enclosing
span (-1 at top level), ``trial`` the per-trial id, and the two FFT fields
the ``numpy.fft.fft``/``ifft`` calls made while the span was open.  A name
that no longer exists is reported as absent instead of raising, so a
refactor only has to update `BINDINGS`.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name).  A span name can be bound in several
# modules: each binding is the name a different caller resolves at call time.
BINDINGS = [
    ("moddemix.harness", "run_phase_transition", "harness.run_phase_transition"),
    ("moddemix.harness", "run_trial", "harness.run_trial"),
    ("moddemix.instances", "synthesize", "instances.synthesize"),
    ("moddemix.harness", "synthesize", "instances.synthesize"),
    ("moddemix.instances", "make_coding_matrix", "instances.make_coding_matrix"),
    ("moddemix.instances", "relative_error", "instances.relative_error"),
    ("moddemix.harness", "relative_error", "instances.relative_error"),
    ("moddemix.solver", "solve", "solver.solve"),
    ("moddemix.harness", "solve", "solver.solve"),
    ("moddemix.solver", "initialize", "solver.initialize"),
    ("moddemix.solver", "leading_singular_triple", "solver.leading_singular_triple"),
    ("moddemix.solver", "project_incoherent", "solver.project_incoherent"),
    ("moddemix.solver", "operator_norm", "operators.operator_norm"),
    ("moddemix.objective", "forward_map", "operators.forward_map"),
    ("moddemix.instances", "forward_map", "operators.forward_map"),
    ("moddemix.solver", "coherences", "objective.coherences"),
    ("moddemix.solver", "grad_total", "objective.grad_total"),
    ("moddemix.solver", "loss_total", "objective.loss_total"),
    ("moddemix.solver", "loss_measurement", "objective.loss_measurement"),
    ("moddemix.objective", "loss_measurement", "objective.loss_measurement"),
]

# spans whose entry starts a new trial id (trials the harness runs itself)
TRIAL_SPANS = {"harness.run_trial"}

FFT_FUNCTIONS = ("fft", "ifft")

NAME, START, END, PARENT, TRIAL, FFT_CALLS, FFT_POINTS = range(7)


class Tracer:
    """Records spans and FFT counts while installed."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = list(bindings)
        self.spans: list[list] = []
        self.trial = -1
        self.fft_calls = 0
        self.fft_points = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.absent = sorted(self._absent_names())

    def _absent_names(self) -> set[str]:
        present, named = set(), set()
        for mod_name, attr, name in self.bindings:
            named.add(name)
            if _lookup(mod_name, attr) is not None:
                present.add(name)
        return named - present

    def begin_trial(self, trial_id: int | None = None) -> None:
        self.trial = self.trial + 1 if trial_id is None else trial_id

    def install(self) -> None:
        import numpy.fft

        for mod_name, attr, name in self.bindings:
            fn = _lookup(mod_name, attr)
            if fn is None:
                continue
            module = importlib.import_module(mod_name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._span(name, fn))
        for attr in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, attr)
            self._saved.append((numpy.fft, attr, fn))
            setattr(numpy.fft, attr, self._count_fft(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self._stack.clear()

    def take_spans(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def _span(self, name, fn):
        stack = self._stack
        starts_trial = name in TRIAL_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_trial:
                self.begin_trial()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial,
                   self.fft_calls, self.fft_points]
            # take_spans swaps the list, so append to the current one
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                rec[FFT_CALLS] = self.fft_calls - rec[FFT_CALLS]
                rec[FFT_POINTS] = self.fft_points - rec[FFT_POINTS]

        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.fft_calls += 1
            self.fft_points += out.size
            return out

        return wrapper


def _lookup(mod_name: str, attr: str):
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds (duration minus
    direct children), and FFT calls inside."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        s = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "fft_calls": 0})
        dur = rec[END] - rec[START]
        s["calls"] += 1
        s["s"] += dur
        s["self_s"] += dur - child_time[i]
        s["fft_calls"] += rec[FFT_CALLS]
    return out


def count_children(spans: list[list], parent_name: str, child_name: str) -> int:
    """Number of `child_name` spans whose direct parent is a `parent_name` span."""
    return sum(1 for rec in spans
               if rec[NAME] == child_name and rec[PARENT] >= 0
               and spans[rec[PARENT]][NAME] == parent_name)


def count_within(spans: list[list], ancestor_name: str, name: str) -> int:
    """Number of `name` spans nested (at any depth) inside an `ancestor_name` span."""
    inside = [False] * len(spans)
    total = 0
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        inside[i] = parent >= 0 and (inside[parent] or spans[parent][NAME] == ancestor_name)
        if inside[i] and rec[NAME] == name:
            total += 1
    return total
