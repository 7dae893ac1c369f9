"""Command-line front end.

Subcommands: pbd pmf|tau (distribution queries), select s|t (single selection
runs), bench run (experiment grids from a JSON config), profile fit|similarity
(topic models over worker histories). All randomness flows from --seed, so any
command repeated with identical inputs produces byte-identical output.
Exit codes: 0 success, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import bench, pbd, profiles, smodel, solvers, tmodel

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _parse_probs(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ValueError(f"cannot parse probability list {text!r}: {err}") from None
    return pbd.as_prob_array(values)


def _read_csv(path) -> list[list[str]]:
    """Every row of a CSV file; a file the csv module cannot parse is a ValueError."""
    with open(path, newline="") as handle:
        try:
            return list(csv.reader(handle))
        except csv.Error as err:  # e.g. a field over the module's size limit
            raise ValueError(f"{path}: malformed CSV: {err}") from None


def load_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Similarity matrix file: a header row of worker ids, then an n x n block."""
    reader = _read_csv(path)
    if not reader:
        raise ValueError(f"{path}: empty matrix file")
    ids = [c.strip() for c in reader[0]]
    seen: set[str] = set()
    for worker_id in ids:
        if worker_id in seen:
            raise ValueError(f"{path}: header: duplicate worker id {worker_id!r}")
        seen.add(worker_id)
    n = len(ids)
    if len(reader) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows after the header, got {len(reader) - 1}")
    matrix = np.zeros((n, n))
    for i, row in enumerate(reader[1:], start=2):
        if len(row) != n:
            raise ValueError(f"{path}: row {i}: expected {n} values, got {len(row)}")
        try:
            matrix[i - 2] = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"{path}: row {i}: non-numeric entry") from None
    try:
        smodel.check_similarity_matrix(matrix)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return ids, matrix


def load_pool_csv(path) -> tmodel.CandidatePool:
    """Worker pool file: header worker_id,p then one worker per row."""
    reader = _read_csv(path)
    if not reader or [c.strip() for c in reader[0]] != ["worker_id", "p"]:
        raise ValueError(f"{path}: expected header 'worker_id,p'")
    ids: list[str] = []
    seen: set[str] = set()
    probs: list[float] = []
    for i, row in enumerate(reader[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i}: expected two columns")
        worker_id, text = row[0].strip(), row[1].strip()
        try:
            p = float(text)
        except ValueError:
            raise ValueError(f"{path}: row {i}: non-numeric probability {text!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{path}: row {i}: probability {p} outside [0, 1]")
        if worker_id in seen:
            raise ValueError(f"{path}: row {i}: duplicate worker id {worker_id!r}")
        seen.add(worker_id)
        ids.append(worker_id)
        probs.append(p)
    if not ids:
        raise ValueError(f"{path}: pool file has no workers")
    return tmodel.CandidatePool(ids=tuple(ids), probs=np.asarray(probs))


def load_corpus_jsonl(path) -> list[tuple[str, str, str]]:
    """Task-history corpus: one JSON object per line with worker_id, task_id, text.

    A worker has at most one record per task, so duplicate (task_id,
    worker_id) pairs are rejected.
    """
    records: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({err})") from None
            try:
                worker_id = str(obj["worker_id"])
                task_id = str(obj["task_id"])
                text = str(obj["text"])
            except (KeyError, TypeError):
                raise ValueError(
                    f"{path}: line {lineno}: need worker_id, task_id and text fields"
                ) from None
            key = (task_id, worker_id)
            if key in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate record for task {task_id!r} "
                    f"and worker {worker_id!r}; a worker has at most one record per task"
                )
            seen.add(key)
            records.append((worker_id, task_id, text))
    if not records:
        raise ValueError(f"{path}: corpus file has no records")
    return records


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True) + "\n", out)


@click.group()
def cli():
    """Diversity-aware crowd selection toolkit."""


@cli.group("pbd")
def pbd_group():
    """Opinion-count distribution queries."""


@pbd_group.command("pmf")
@click.option("--probs", required=True, help="Comma-separated opinion probabilities.")
@click.option("--method", type=click.Choice(["dftcf", "bruteforce"]), default="dftcf")
@click.option("--out", default=None, help="Write JSON here instead of stdout.")
def pbd_pmf(probs, method, out):
    """Print the PMF of the positive-opinion count."""
    p = _parse_probs(probs)
    fn = pbd.pmf_dftcf if method == "dftcf" else pbd.pmf_bruteforce
    mass = fn(p)
    _emit({"method": method, "pmf": [float(v) for v in mass]}, out)


@pbd_group.command("tau")
@click.option("--probs", required=True, help="Comma-separated opinion probabilities.")
@click.option("--theta1", required=True, type=int, help="Minimum positive opinions.")
@click.option("--theta0", required=True, type=int, help="Minimum negative opinions.")
@click.option("--out", default=None)
def pbd_tau(probs, theta1, theta0, out):
    """Print the probability that the demand window is satisfied."""
    p = _parse_probs(probs)
    window = pbd.DemandWindow(theta1=theta1, theta0=theta0, k=int(p.size))
    _emit({"tau": pbd.window_prob(p, window)}, out)


@cli.group("select")
def select_group():
    """Single selection runs."""


@select_group.command("s")
@click.option("--matrix", "matrix_path", required=True, type=click.Path())
@click.option("-k", "k", required=True, type=int, help="Crowd size.")
@click.option("--method", type=click.Choice(list(solvers.SOLVERS["smodel"])), default="greedy")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None)
def select_s(matrix_path, k, method, seed, out):
    """Similarity-driven selection from a matrix file."""
    ids, matrix = load_matrix_csv(matrix_path)
    result = solvers.solve("smodel", method, matrix, k, seed)
    _emit(
        {
            "method": result.method,
            "subset": [ids[i] for i in result.subset],
            "indices": list(result.subset),
            "div": result.score,
        },
        out,
    )


@select_group.command("t")
@click.option("--pool", "pool_path", default=None, type=click.Path(),
              help="Pool CSV with header worker_id,p.")
@click.option("--probs", default=None, help="Inline comma-separated probabilities.")
@click.option("-k", "k", required=True, type=int, help="Crowd size.")
@click.option("--theta1", required=True, type=int)
@click.option("--theta0", required=True, type=int)
@click.option("--method", type=click.Choice(list(solvers.SOLVERS["tmodel"])), default="dftcf-sa")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--t-ini", type=float, default=tmodel.SA_T_INI, show_default=True)
@click.option("--t-end", type=float, default=tmodel.SA_T_END, show_default=True)
@click.option("--sa-r", type=int, default=tmodel.SA_REPEATS, show_default=True)
@click.option("--sa-c", type=float, default=tmodel.SA_COOLING, show_default=True)
@click.option("--out", default=None)
def select_t(pool_path, probs, k, theta1, theta0, method, seed, t_ini, t_end, sa_r, sa_c, out):
    """Task-driven selection from a pool file or inline probabilities."""
    if (pool_path is None) == (probs is None):
        raise ValueError("provide exactly one of --pool or --probs")
    pool = load_pool_csv(pool_path) if pool_path else tmodel.CandidatePool.from_probs(_parse_probs(probs))
    window = pbd.DemandWindow(theta1=theta1, theta0=theta0, k=k)
    sa = {"t_ini": t_ini, "t_end": t_end, "r": sa_r, "c": sa_c}
    result = solvers.solve("tmodel", method, pool, window, seed, sa)
    _emit(
        {
            "method": result.method,
            "subset": list(result.subset),
            "indices": list(result.indices),
            "tau": result.tau,
            "objective": result.objective,
        },
        out,
    )


@cli.group("bench")
def bench_group():
    """Benchmark experiment grids."""


@bench_group.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", required=True, type=click.Path())
def bench_run(config_path, out_dir):
    """Run the experiment grid in a JSON config; write report CSV and summary JSON."""
    cfg = bench.ExperimentConfig.from_json(config_path)
    report = bench.run_experiment(cfg)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    report.write_csv(directory / "report.csv")
    report.write_summary_json(directory / "summary.json")
    click.echo(f"wrote {len(report.rows)} rows to {directory / 'report.csv'}")


@cli.group("profile")
def profile_group():
    """Topic models over worker task histories."""


@profile_group.command("fit")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("-K", "--topics", "n_topics", required=True, type=int)
@click.option("--tol", type=float, default=profiles.EM_TOL, show_default=True)
@click.option("--max-iter", type=int, default=profiles.EM_ITER, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, help="Write the fitted model JSON here.")
def profile_fit(corpus_path, n_topics, tol, max_iter, seed, out):
    """Fit the worker-experience topic model from a JSONL corpus."""
    records = load_corpus_jsonl(corpus_path)
    _, experiences = profiles.build_experiences(records)
    model = profiles.em_fit(experiences, n_topics, tol=tol, max_iter=max_iter, seed=seed)
    payload = {
        "pi": [float(v) for v in model.pi],
        "mu": [[float(v) for v in row] for row in model.mu],
        "vocab": list(model.vocab),
    }
    _emit(payload, out)


@profile_group.command("similarity")
@click.option("--corpus", "corpus_path", required=True, type=click.Path())
@click.option("--model", "model_path", required=True, type=click.Path(),
              help="Fitted model JSON from 'profile fit'.")
@click.option("--out", default=None, help="Write the matrix CSV here instead of stdout.")
def profile_similarity(corpus_path, model_path, out):
    """Build the KL-based worker similarity matrix in the matrix CSV format."""
    records = load_corpus_jsonl(corpus_path)
    worker_ids, experiences = profiles.build_experiences(records)
    try:
        raw = json.loads(Path(model_path).read_text())
        model = profiles.TopicModel(
            pi=np.asarray(raw["pi"]),
            mu=np.asarray(raw["mu"]),
            vocab=tuple(raw["vocab"]),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as err:
        raise ValueError(f"{model_path}: not a fitted model file ({err})") from None
    sim = profiles.experience_similarity_matrix(experiences, model)
    lines = [",".join(worker_ids)]
    for row in sim:
        lines.append(",".join(repr(float(v)) for v in row))
    _write("\n".join(lines) + "\n", out)


def main(argv=None) -> int:
    """Entry point with the exit-code contract; diagnostics go to stderr."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as err:  # e.g. --help
        return err.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_RUNTIME
    except click.ClickException as err:  # usage errors included
        err.show()
        return EXIT_VALIDATION
    except (ValueError, OSError) as err:  # JSON decode errors included
        click.echo(f"error: {err}", err=True)
        return EXIT_VALIDATION
    except Exception as err:  # anything else is a runtime failure
        click.echo(f"runtime error: {err}", err=True)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
