"""Layer tracing for the lgm benchmark, installed from outside the library.

Each wrapper replaces a name where its caller looks it up, so the library
runs unchanged and no wrapper is left behind once the ``with`` block ends:

    samplers.to_spectral, samplers.from_spectral   basis transforms of a step
    samplers._STEP_FUNCS[kind], samplers.step_ellipt  one kernel transition
    <likelihood class>.evaluate / .log_likelihood  likelihood evaluations
    harness.simulate_dataset, eigendecompose_covariance, benchmark_single,
    run_hyper_chain, tune_and_freeze, summarize_run
    hyper.eigendecompose_covariance, hyper.to_spectral,
    hyper.step_agrad_z (latent steps), hyper.step_joint_x_theta (theta moves)

Calls made once per job or less (setup, jobs, burn-in, summaries,
factorizations) are kept as spans in memory and written out at the end.
Calls made once per step or more are folded, as they happen, into counts
and seconds keyed by (layer, kernel, phase, parent layer), so memory stays
bounded however long the run.  A layer's self time is its duration minus
the time spent in the wrapped calls it made.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from lgm import harness, hyper, samplers
from lgm.samplers import SamplerKind
from lgm.targets import GaussianRegression, PoissonCounts

# Likelihoods the workloads use.  Their evaluate does not call
# log_likelihood, so no evaluation is counted twice.
TRACED_TARGETS = (GaussianRegression, PoissonCounts)


class SetupDone(BaseException):
    """Raised at the first job to end a set-up-only run_benchmark call.

    A BaseException, so the harness's per-job ``except Exception`` lets it
    through and run_benchmark stops right after its set-up.
    """


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextmanager
def patched(replacements):
    """Install (owner, key, make_wrapper) replacements; restore them on exit.

    ``owner`` is a module, a class or a dict; ``make_wrapper`` receives the
    current value and returns its replacement.
    """
    saved = []
    try:
        for owner, key, make_wrapper in replacements:
            original = _get(owner, key)
            saved.append((owner, key, original))
            _set(owner, key, make_wrapper(original))
        yield
    finally:
        for owner, key, original in reversed(saved):
            _set(owner, key, original)


class JobClock:
    """Time of the first job a run_benchmark call starts.

    This is the only instrument of an untraced round: one timestamp per
    job.  With ``stop_at_first_job`` the first job raises SetupDone instead
    of running, which times a set-up on its own.
    """

    def __init__(self):
        self.first_job: float | None = None
        self.stop_at_first_job = False

    def reset(self, stop_at_first_job: bool = False) -> None:
        self.first_job = None
        self.stop_at_first_job = stop_at_first_job

    def _wrap(self, fn):
        def job(*args, **kwargs):
            if self.first_job is None:
                self.first_job = time.perf_counter()
            if self.stop_at_first_job:
                raise SetupDone
            return fn(*args, **kwargs)

        return job

    def replacements(self):
        return [(harness, "benchmark_single", self._wrap), (harness, "run_hyper_chain", self._wrap)]


class Tracer:
    """Spans and per-layer counts of one traced round."""

    def __init__(self, trace_id: int, origin: float):
        self.trace_id = trace_id
        self.origin = origin
        self.spans: list[dict] = []
        # (layer, kernel, phase, parent layer) -> [calls, seconds, self seconds]
        self.calls: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.kind: str | None = None
        self.phase = "harness"
        self._stack: list[list] = []  # open calls: [layer, child seconds, span id]

    def _wrap(self, layer: str, fn, span: bool = False, enter=None, leave=None):
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            saved = (self.kind, self.phase)
            if enter is not None:
                enter(args)
            parent = stack[-1] if stack else None
            key = (layer, self.kind, self.phase, parent[0] if parent else None)
            span_id = None
            if span:
                span_id = len(self.spans)
                parent_span = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                self.spans.append({"trace": self.trace_id, "id": span_id, "parent": parent_span,
                                   "name": layer, "kind": self.kind, "phase": self.phase})
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][1] += seconds
                record = calls[key]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[1]
                if span:
                    self.spans[span_id].update(start=start - self.origin, end=end - self.origin)
                if leave is not None:
                    leave(saved)

        return wrapper

    # Phase bookkeeping: which kernel runs, and whether it is set up,
    # burning in, collecting or being summarised.
    def _job_enter(self, args):
        self.kind = SamplerKind(args[0]).value
        self.phase = "init"

    def _hyper_enter(self, args):
        self.kind = "hyper"
        self.phase = "hyper"

    def _job_leave(self, saved):
        self.kind, self.phase = None, "harness"

    def _set_phase(self, phase):
        def enter(args):
            self.phase = phase

        return enter

    def _restore_phase(self, saved):
        self.phase = saved[1]

    def _after_burn_in(self, saved):
        self.phase = "collect"

    def replacements(self):
        def fine(layer):
            return lambda fn: self._wrap(layer, fn)

        def spans(layer, enter=None, leave=None):
            return lambda fn: self._wrap(layer, fn, span=True, enter=enter, leave=leave)

        out = [
            (samplers, "to_spectral", fine("spectral.transform")),
            (samplers, "from_spectral", fine("spectral.transform")),
            (samplers, "step_ellipt", fine("samplers.step")),
            (hyper, "to_spectral", fine("spectral.transform")),
            (hyper, "step_agrad_z", fine("hyper.latent_step")),
            (hyper, "step_joint_x_theta", fine("hyper.theta_move")),
            (hyper, "eigendecompose_covariance", spans("spectral.eigendecompose")),
            (harness, "eigendecompose_covariance", spans("spectral.eigendecompose")),
            (harness, "run_benchmark", spans("harness.run_benchmark", enter=self._set_phase("setup"))),
            (harness, "simulate_dataset", spans("harness.simulate_dataset")),
            (harness, "benchmark_single", spans("harness.job", enter=self._job_enter, leave=self._job_leave)),
            (harness, "run_hyper_chain", spans("harness.job", enter=self._hyper_enter, leave=self._job_leave)),
            (harness, "tune_and_freeze",
             spans("adaptation.tune_and_freeze", enter=self._set_phase("burn"), leave=self._after_burn_in)),
            (harness, "summarize_run",
             spans("diagnostics.summarize_run", enter=self._set_phase("summarize"), leave=self._restore_phase)),
        ]
        out += [(samplers._STEP_FUNCS, kind, fine("samplers.step")) for kind in list(samplers._STEP_FUNCS)]
        for cls in TRACED_TARGETS:
            out += [(cls, "evaluate", fine("targets.evaluate")), (cls, "log_likelihood", fine("targets.log_likelihood"))]
        return out

    def total(self, layer: str, kind=None, phase=None, parent=None) -> tuple[int, float, float]:
        """Summed (calls, seconds, self seconds) of a layer; None matches anything."""
        calls = seconds = self_seconds = 0
        for (name, k, p, par), (n, s, own) in self.calls.items():
            if name == layer and kind in (None, k) and phase in (None, p) and parent in (None, par):
                calls += n
                seconds += s
                self_seconds += own
        return calls, seconds, self_seconds

    def job_concurrency(self) -> float:
        """Summed job seconds over the summed wall seconds of the job phases.

        A run_benchmark call's job phase runs from its first job start to
        its last job end.
        """
        busy = wall = 0.0
        for call in (s for s in self.spans if s["name"] == "harness.run_benchmark"):
            jobs = [s for s in self.spans if s["name"] == "harness.job" and s["parent"] == call["id"]]
            if jobs:
                busy += sum(s["end"] - s["start"] for s in jobs)
                wall += max(s["end"] for s in jobs) - min(s["start"] for s in jobs)
        return busy / wall if wall > 0 else float("nan")
