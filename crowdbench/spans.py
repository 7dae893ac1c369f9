"""Spans around calls into crowdselect, recorded from the benchmark's side.

Tracer.install swaps each public function below for a wrapper that records a
span (name, parent span, start, end, work count) in memory; uninstall puts the
originals back. Calls the package makes between its own modules go through
module attributes, so they are caught too. Untraced runs never create a
Tracer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path


def sa_levels(params) -> int:
    """Temperature levels of an annealing schedule, counted as sa_select loops them."""
    temp, levels = params.t_ini, 0
    while temp > params.t_end:
        levels += 1
        temp *= params.c
    return levels


def _sa_args(args, kwargs, tmodel):
    objective = args[2] if len(args) > 2 else kwargs.get("objective", "dftcf")
    params = args[3] if len(args) > 3 else kwargs.get("params")
    return objective, params if params is not None else tmodel.SaParams()


class Tracer:
    def __init__(self):
        # one list per span: [name, parent index or -1, start, end, work]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, work=None) -> None:
        """Trace owner.attr; `name` is a string or a function of (args, kwargs)."""
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs),
                    stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self, pbd, tmodel, smodel, profiles) -> None:
        def sa_name(args, kwargs):
            return f"tmodel.sa_select.{_sa_args(args, kwargs, tmodel)[0]}"

        def sa_steps(args, kwargs, result):
            params = _sa_args(args, kwargs, tmodel)[1]
            return sa_levels(params) * params.r

        self.wrap(pbd.WindowKernel, "tau_many", "pbd.tau_many", work=lambda a, kw, r: len(r))
        self.wrap(pbd, "window_prob", "pbd.window_prob")
        self.wrap(tmodel, "exact_select", "tmodel.exact_select")
        self.wrap(tmodel, "exact_knapsack", "tmodel.exact_knapsack")
        self.wrap(tmodel, "select_poisson", "tmodel.select_poisson")
        self.wrap(tmodel, "select_binomial", "tmodel.select_binomial")
        self.wrap(tmodel, "sa_select", sa_name, work=sa_steps)
        self.wrap(smodel, "exact_select", "smodel.exact_select")
        self.wrap(smodel, "greedy_select", "smodel.greedy_select")
        self.wrap(profiles, "build_experiences", "profiles.build_experiences")
        self.wrap(profiles, "em_fit", "profiles.em_fit",
                  work=lambda a, kw, model: len(model.log_likelihood_trace) - 1)
        self.wrap(profiles, "topic_posterior", "profiles.topic_posterior")
        self.wrap(profiles, "kl_divergence", "profiles.kl_divergence")
        self.wrap(profiles, "experience_similarity_matrix", "profiles.experience_similarity_matrix")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\twork\n")
            for i, (name, parent, start, end, work) in enumerate(self.spans):
                handle.write(f"{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{work}\n")


# Every per-layer metric, as (name, unit, better). A traced run reports all of
# them; a layer its workload never calls reads 0.
PER_LAYER = (
    ("pbd.tau_many.s", "s", "lower"),
    ("pbd.tau_many.rows_per_s", "1/s", "higher"),
    ("pbd.window_prob.s", "s", "lower"),
    ("pbd.window_prob.calls", "count", "lower"),
    ("tmodel.exact_select.s", "s", "lower"),
    ("tmodel.exact_select.self_s", "s", "lower"),
    ("tmodel.select_poisson.s", "s", "lower"),
    ("tmodel.select_binomial.s", "s", "lower"),
    ("tmodel.exact_knapsack.s", "s", "lower"),
    ("tmodel.exact_knapsack.calls", "count", "lower"),
    ("tmodel.sa_select.normal.s", "s", "lower"),
    ("tmodel.sa_select.normal.us_per_step", "us", "lower"),
    ("tmodel.sa_select.dftcf.s", "s", "lower"),
    ("tmodel.sa_select.dftcf.us_per_step", "us", "lower"),
    ("smodel.exact_select.s", "s", "lower"),
    ("smodel.greedy_select.s", "s", "lower"),
    ("profiles.build_experiences.s", "s", "lower"),
    ("profiles.em_fit.s", "s", "lower"),
    ("profiles.em_fit.iterations", "count", "lower"),
    ("profiles.topic_posterior.s", "s", "lower"),
    ("profiles.kl_divergence.s", "s", "lower"),
    ("profiles.kl_divergence.calls", "count", "lower"),
    ("profiles.experience_similarity_matrix.s", "s", "lower"),
    ("profiles.experience_similarity_matrix.self_s", "s", "lower"),
)


def layer_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Every PER_LAYER metric of spans[first:], the spans of one traced pass."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    child_time = defaultdict(float)
    for name, parent, start, end, _ in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    for i in range(first, len(spans)):
        name, _, start, end, count = spans[i]
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        work[name] += count

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for metric, _, _ in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "s":
            metrics[metric] = total[name]
        elif kind == "self_s":
            metrics[metric] = self_time[name]
        elif kind == "calls":
            metrics[metric] = calls[name]
        elif kind == "iterations":
            metrics[metric] = work[name]
        elif kind == "rows_per_s":
            metrics[metric] = per(work[name], total[name])
        elif kind == "us_per_step":
            metrics[metric] = per(1e6 * total[name], work[name])
    return metrics
