"""Synthetic benchmark harness.

Generates seeded worker pools and similarity matrices under uniform or normal
distributions, runs the configured solvers over a (trial, k, demand) grid, and
writes machine-readable reports: a row-per-run CSV plus a JSON summary of
per-method means. Everything except measured wall time is reproducible
bit-for-bit from (config, seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pbd, solvers, tmodel
from .errors import EnumerationLimitError, TimeBudgetError, is_int
from .pbd import DemandWindow

# Wall-clock cap per exact cell; cells beyond it are reported as timed out.
DEFAULT_EXACT_BUDGET_S = 500.0

_FRACTION_RE = re.compile(r"^(\d*)k/(\d+)$")

# Largest pool an experiment may ask for: the most workers pmf_dftcf takes,
# which scores every T-model crowd, and an S-model matrix of this size holds
# 128 MB of float64.
MAX_N = pbd.DFTCF_LIMIT
MAX_TRIALS = 10_000


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from a base seed and any labels."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class DistSpec:
    """Sampling distribution: uniform over the target range, or clamped normal."""

    kind: str
    mean: float | None = None
    stddev: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for name in ("mean", "stddev"):
            value = getattr(self, name)
            if value is not None and not _is_finite_number(value):
                raise ValueError(f"distribution {name} must be a finite number, got {value!r}")
        if self.kind == "normal" and (self.stddev is not None and self.stddev <= 0):
            raise ValueError("normal stddev must be positive")

    @classmethod
    def parse(cls, text) -> "DistSpec":
        """Accept 'uniform', 'normal', 'normal(mean,stddev)', or a mapping."""
        if isinstance(text, dict):
            if "kind" not in text:
                raise ValueError("distribution mapping needs a 'kind'")
            return cls(
                kind=text["kind"],
                mean=text.get("mean"),
                stddev=text.get("stddev"),
            )
        if not isinstance(text, str):
            raise ValueError(f"cannot parse distribution spec {text!r}")
        text = text.strip()
        if text in ("uniform", "normal"):
            return cls(kind=text)
        match = re.match(r"^normal\(([^,]+),([^)]+)\)$", text)
        if match:
            return cls(
                kind="normal",
                mean=float(match.group(1)),
                stddev=float(match.group(2)),
            )
        raise ValueError(f"cannot parse distribution spec {text!r}")

    def sample(
        self,
        rng: np.random.Generator,
        size,
        low: float,
        high: float,
        default_mean: float,
        default_stddev: float,
    ) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(low, high, size=size)
        mean = default_mean if self.mean is None else self.mean
        stddev = default_stddev if self.stddev is None else self.stddev
        return np.clip(rng.normal(mean, stddev, size=size), low, high)


def gen_similarity_matrix(n: int, dist: DistSpec, seed: int) -> np.ndarray:
    """Seeded symmetric similarity matrix with entries in [-1, 0] and zero diagonal."""
    if n < 1:
        raise ValueError("need at least one worker")
    rng = np.random.default_rng(seed)
    draws = dist.sample(
        rng, size=(n, n), low=-1.0, high=0.0, default_mean=-0.5, default_stddev=0.15
    )
    sim = np.triu(draws, 1)
    sim = sim + sim.T
    return sim


def gen_opinions(n: int, dist: DistSpec, seed: int) -> tmodel.CandidatePool:
    """Seeded candidate pool with opinion probabilities in [0, 1]."""
    if n < 1:
        raise ValueError("need at least one worker")
    rng = np.random.default_rng(seed)
    probs = dist.sample(
        rng, size=n, low=0.0, high=1.0, default_mean=0.5, default_stddev=0.1
    )
    return tmodel.CandidatePool(ids=tuple(range(n)), probs=probs)


def resolve_demand(spec, k: int) -> int:
    """Resolve a demand threshold: an integral number, or a string such as '2' or '2k/5' (floored).

    A negative threshold resolves to 0.
    """
    if not isinstance(spec, str):
        return max(0, _json_int(spec))
    match = _FRACTION_RE.match(spec.strip())
    if not match:
        return max(0, int(spec))
    denominator = int(match.group(2))
    if denominator == 0:
        raise ValueError(f"demand {spec!r} divides by zero")
    return int(match.group(1) or 1) * k // denominator


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, inside the float range, which NaN is not."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_number and abs(value) <= sys.float_info.max


def _json_int(value) -> int:
    """An integral JSON number; a bool, a fraction or a non-number is an error."""
    if not (is_int(value) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: model, pool size, trials, distribution, ks, demands, methods."""

    model: str
    n: int
    trials: int
    distribution: DistSpec
    ks: tuple[int, ...]
    demands: tuple[tuple[object, object], ...] = ()
    methods: tuple[str, ...] = ()
    seed: int = 0
    exact_budget_s: float = DEFAULT_EXACT_BUDGET_S
    sa_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in solvers.SOLVERS:
            raise ValueError("model must be 'smodel' or 'tmodel'")
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"config field 'n' must lie in [1, {MAX_N}], got {self.n}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(
                f"config field 'trials' must lie in [1, {MAX_TRIALS}], got {self.trials}"
            )
        if any(k < 1 for k in self.ks):
            raise ValueError(f"every k must be at least 1, got {list(self.ks)}")
        unknown = [m for m in self.methods if m not in solvers.SOLVERS[self.model]]
        if unknown:
            raise ValueError(f"unknown methods for {self.model}: {unknown}")
        if self.model == "tmodel" and self.methods and not self.demands:
            raise ValueError("tmodel experiments need a demand grid")
        try:
            for pair in self.demands:
                for spec in pair:
                    resolve_demand(spec, 1)
        except ValueError as err:
            raise ValueError(f"config field 'demands': {err}") from None
        budget = self.exact_budget_s
        if not (_is_finite_number(budget) and budget >= 0):
            raise ValueError(f"config field 'exact_budget_s' must be finite and >= 0, got {budget!r}")
        # rejects a bad value, an unknown field, a seed, or an integer past the float range
        try:
            tmodel.SaParams(seed=0, **self.sa_params)
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"sa: {err}") from None

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Build from parsed JSON; a missing or malformed field is a ValueError naming it."""
        if not isinstance(raw, dict):
            raise ValueError("experiment config must be a JSON object")

        def get(key, parse, *default):
            if key not in raw and not default:
                raise ValueError(f"config field {key!r} is required")
            try:
                return parse(raw.get(key, *default))
            except (TypeError, ValueError, OverflowError) as err:  # int(inf) overflows
                raise ValueError(f"config field {key!r}: {err}") from None

        return cls(
            model=get("model", str),
            n=get("n", _json_int),
            trials=get("trials", _json_int),
            distribution=get("distribution", DistSpec.parse, "uniform"),
            ks=get("k", lambda v: tuple(_json_int(k) for k in _json_list(v))),
            demands=get("demands", lambda v: tuple((t1, t0) for t1, t0 in _json_list(v)), []),
            methods=get("methods", lambda v: tuple(str(m) for m in _json_list(v)), []),
            seed=get("seed", _json_int, 0),
            exact_budget_s=raw.get("exact_budget_s", DEFAULT_EXACT_BUDGET_S),
            sa_params=get("sa", dict, {}),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class TrialRow:
    trial: int
    method: str
    k: int
    theta1: int | None
    theta0: int | None
    objective: float | None
    tau_or_div: float | None
    wall_time_s: float | None
    status: str

    def as_csv(self) -> list[str]:
        # str of a float is its shortest round-tripping repr
        values = (getattr(self, name) for name in CSV_HEADER)
        return ["" if v is None else str(v) for v in values]


# the report columns are the row fields, in order
CSV_HEADER = [f.name for f in fields(TrialRow)]


@dataclass
class TrialReport:
    """All rows of one experiment plus per-method aggregates."""

    config: ExperimentConfig
    rows: list[TrialRow]

    def summary(self) -> dict:
        per_method: dict[str, dict] = {}
        for method in sorted({r.method for r in self.rows}):
            ok = [r for r in self.rows if r.method == method and r.status == "ok"]
            scores = [r.tau_or_div for r in ok]
            times = [r.wall_time_s for r in ok]
            per_method[method] = {
                "runs": len(scores),
                "mean_score": float(np.mean(scores)) if scores else None,
                "std_score": float(np.std(scores)) if scores else None,
                "mean_wall_time_s": float(np.mean(times)) if times else None,
            }
        statuses = sorted({r.status for r in self.rows})
        return {
            "model": self.config.model,
            "n": self.config.n,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "rows": len(self.rows),
            "statuses": {
                s: sum(1 for r in self.rows if r.status == s) for s in statuses
            },
            "methods": per_method,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for row in self.rows:
                writer.writerow(row.as_csv())

    def write_summary_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2, sort_keys=True) + "\n")


def run_experiment(cfg: ExperimentConfig) -> TrialReport:
    """Run every configured method over the full (trial, k, demand) grid.

    Infeasible cells and guard/timeout hits become status rows instead of
    aborting the run. Each trial draws its data from a seed derived from the
    base seed, and each stochastic method run gets its own derived stream.
    """
    generate = gen_similarity_matrix if cfg.model == "smodel" else gen_opinions
    rows: list[TrialRow] = []
    for trial in range(cfg.trials):
        data = generate(cfg.n, cfg.distribution, derive_seed(cfg.seed, "data", trial))
        for k in cfg.ks:
            if cfg.model == "smodel":
                cells = [(None, None)]
            else:
                cells = [(resolve_demand(d1, k), resolve_demand(d0, k)) for d1, d0 in cfg.demands]
            for theta1, theta0 in cells:
                if k > cfg.n or (theta1 is not None and theta1 + theta0 > k):
                    rows.append(TrialRow(trial, "-", k, theta1, theta0, None, None, None,
                                         "skipped-infeasible"))
                    continue
                target = k if theta1 is None else DemandWindow(theta1=theta1, theta0=theta0, k=k)
                for method in cfg.methods:
                    method_seed = derive_seed(cfg.seed, trial, k, theta1, theta0, method)
                    try:
                        result = solvers.solve(
                            cfg.model, method, data, target, method_seed,
                            cfg.sa_params, cfg.exact_budget_s,
                        )
                        outcome = (result.objective, result.score, result.wall_time, "ok")
                    except EnumerationLimitError:
                        outcome = (None, None, None, "skipped-guard")
                    except TimeBudgetError as err:
                        outcome = (None, None, err.elapsed_s, "timeout")
                    rows.append(TrialRow(trial, method, k, theta1, theta0, *outcome))
    return TrialReport(config=cfg, rows=rows)
