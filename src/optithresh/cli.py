"""Command-line interface: optimize, simulate, evaluate.

Runs are configured by a JSON document; command-line flags override file
values, which override defaults.  Every artifact embeds the resolved
configuration and seed so a run can be reproduced byte-for-byte.  Exit codes
are stable: 0 success, 2 configuration error, 3 data error, 4 optimizer
infeasibility.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from pathlib import Path

import click

from .evaluation import compare_thresholds, tir_summary
from .histograms import Domain, ThresholdSet, probability_grid
from .ingestion import CsvSchema, InclusionPolicy, _reprs, _write_float_rows, empirical_histogram, read_cgm_csv
from .losses import DEFAULT_GRID_SIZE, Cohort, LossKind, LossSpec, _member_grids
from .optimizers import (
    DEConfig,
    Method,
    SearchBudgetExceeded,
    optimize,
    round_up_thresholds,
)
from .simulation import MixtureSpec, generate_cohort, run_benchmark

log = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _check_keys(obj: dict, allowed: set, context: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _mixture_spec(section: dict, context: str = "input.mixture") -> MixtureSpec:
    _check_keys(section, set(MixtureSpec.__dataclass_fields__), context)
    kwargs = dict(section)
    try:
        if "domain" in kwargs:
            lower, upper = (float(v) for v in kwargs["domain"])
            kwargs["domain"] = Domain(lower, upper)
        for key in ("base_thresholds", "histogram_cutoffs"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return MixtureSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}")


def _de_config(section: dict, seed) -> DEConfig:
    _check_keys(section, set(DEConfig.__dataclass_fields__), "de")
    kwargs = dict(section)
    if seed is not None:
        kwargs["seed"] = seed
    for key, minimum in (("population_size_per_dim", 4), ("max_generations", 1), ("seed", 0)):
        if key in kwargs:
            kwargs[key] = _integer(kwargs[key], f"de.{key}", minimum)
    try:
        if "mutation_range" in kwargs:
            kwargs["mutation_range"] = tuple(kwargs["mutation_range"])
        return DEConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid de section: {exc}")


def _load_input(section, method: Method, out_dir: Path):
    """The cohort of ``optimize``'s input section; a csv input writes its sidecar."""
    return _load_inputs({"input": section}, method, out_dir)["input"][0]


def _input_loader(section, method: Method, context: str, labelled: bool):
    """Check the input section ``context``; returns load() -> (cohort, IngestResult, sidecar).

    Simulation inputs expose the empirical cohort to continuous solvers and the
    binned cohort to discrete ones (overridable with "use"), with no result or
    sidecar.  CSV inputs yield integer histograms of the kept subjects (None if
    none is kept); ``labelled`` ones also read their label column.
    """
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError(f'{context} must be an object with a "kind" of "simulation" or "csv"')
    kind = section["kind"]
    if kind == "simulation":
        _check_keys(section, {"kind", "mixture", "seed", "use"}, context)
        spec = _mixture_spec(section.get("mixture", {}), f"{context}.mixture")
        seed = _integer(section.get("seed", 0), f"{context}.seed", 0)
        use = section.get("use", "auto")
        if use not in ("auto", "empirical", "binned"):
            raise ConfigError(f'{context}.use must be "auto", "empirical" or "binned"')
        if use == "auto":
            use = "empirical" if method is Method.DIFFERENTIAL_EVOLUTION else "binned"
        return lambda: (generate_cohort(spec, seed)[use == "binned"], None, None)
    if kind != "csv":
        raise ConfigError(f"unknown {context} kind {kind!r}")
    keys = {"kind", "path", "columns", "on_bad_row", "inclusion"} | ({"label_column"} if labelled else set())
    _check_keys(section, keys, context)
    path = section.get("path")
    if not isinstance(path, str):
        raise ConfigError(f"{context}.path must be the path of a csv file, got {path!r}")
    columns = section.get("columns", {})
    _check_keys(columns, {"id", "time", "value"}, f"{context}.columns")
    schema = CsvSchema(columns.get("id", "id"), columns.get("time", "time"), columns.get("value", "gl"))
    policy_section = section.get("inclusion", {})
    _check_keys(policy_section, set(InclusionPolicy.__dataclass_fields__), f"{context}.inclusion")
    try:
        policy = InclusionPolicy(**policy_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}.inclusion: {exc}")
    on_bad_row = section.get("on_bad_row", "error")
    if on_bad_row not in ("error", "skip"):
        raise ConfigError(f"{context}.on_bad_row must be 'error' or 'skip', got {on_bad_row!r}")

    def load():
        try:
            result = read_cgm_csv(path, schema, on_bad_row, section["label_column"] if labelled else None)
        except OSError as exc:  # missing or a directory
            raise DataError(f"cannot read input file {path}: {exc.strerror}")
        except ValueError as exc:
            raise DataError(str(exc))
        decisions = result.decisions(policy)
        kept = [s for s in result.series if decisions[s.subject_id].keep]
        skipped = result.skipped_rows
        log.info(
            "ingested %s: %d rows read, %d skipped (first lines %s), %d readings clamped, "
            "%d subjects kept, %d dropped", path, sum(s.n for s in result.series) + len(skipped),
            len(skipped), sorted(line for line, _ in skipped)[:5], sum(result.clamp_counts.values()),
            len(kept), len(result.series) - len(kept))
        sidecar = {
            "clamp_counts": result.clamp_counts,
            "skipped_rows": [{"line": line, "reason": reason} for line, reason in skipped],
            "decisions": {sid: {"keep": d.keep, "reason": d.reason, "wear_days": d.wear_days}
                          for sid, d in sorted(decisions.items())},
        }
        return (Cohort([empirical_histogram(s) for s in kept]) if kept else None), result, sidecar
    return load


def _load_inputs(sections: dict, method: Method, out_dir: Path, labelled: bool = False) -> dict:
    """(cohort, IngestResult) of each input section, by name, all checked before any is read.

    Then ``ingest_report.json`` gets the sidecar of a csv ``input``, or one
    section per csv group; an input that keeps no subject is a data error after.
    """
    loaders = [(name, _input_loader(section, method, name, labelled)) for name, section in sections.items()]
    loaded = {name: load() for name, load in loaders}
    sidecars = {name: sidecar for name, (_, _, sidecar) in loaded.items() if sidecar is not None}
    if sidecars:
        _write_json(out_dir / "ingest_report.json", sidecars.get("input", sidecars))
    for name, (cohort, _, _) in loaded.items():
        if cohort is None:
            raise DataError(f"no subjects{'' if name == 'input' else ' in ' + name} pass the inclusion criteria")
    return {name: (cohort, result) for name, (cohort, result, _) in loaded.items()}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_table(path: Path, header: list, records) -> None:
    """One CSV line per JSON record, with the columns ``header``.

    A sequence is written as its values' reprs joined by spaces, None as an empty cell.
    """
    def cell(value) -> str:
        if isinstance(value, (list, tuple)):
            return " ".join(_reprs(value))
        return "" if value is None else str(value)

    lines = ((cell(r[header[0]]), [[cell(r[key]) for key in header[1:]]]) for r in records)
    _write_float_rows(path, header, lines)


def _integer(value, name: str, minimum: int) -> int:
    """An integer setting from a flag or the config, at least ``minimum``.

    Booleans, fractions and unparseable values are config errors.
    """
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if number < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {number}")
    return number


def _grid_size(flag, config: dict) -> int:
    """Quantile grid size from the flag, else the config, else the default."""
    value = flag if flag is not None else config.get("grid_size", DEFAULT_GRID_SIZE)
    return _integer(value, "grid_size", 1)


def _thresholds(raw, name: str) -> tuple:
    """Sorted thresholds from a config list of numbers, which must be finite and distinct."""
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list of numbers, got {raw!r}")
    try:
        values = tuple(sorted(float(p) for p in raw))
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {name} thresholds from {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} thresholds must be finite, got {raw!r}")
    if any(a == b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} thresholds must be distinct, got {raw!r}")
    return values


def _parse_fixed(raw) -> tuple:
    """Sorted fixed thresholds from a comma-separated flag or a config list of numbers."""
    if raw is None:
        return ()
    if isinstance(raw, str):
        raw = [p for p in raw.split(",") if p.strip()]
    return _thresholds(raw, "fixed")


def _list(value, name: str, numbers: bool = False) -> list:
    """A config setting that must be a JSON list, of numbers if ``numbers``."""
    if not isinstance(value, list) or numbers and not all(type(v) in (int, float) for v in value):
        raise ConfigError(f"{name} must be a list{' of numbers' if numbers else ''}, got {value!r}")
    return value


@click.group()
@click.option("--threads", type=int, default=None, help="Reserved: accepted for compatibility and has no effect.")
def main(threads):
    """Data-driven thresholds for cohorts of bounded distributions."""
    level = os.environ.get("OPTITHRESH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    if threads is not None and threads < 1:
        _fail(EXIT_CONFIG, "--threads must be positive")
    if threads:
        log.info("--threads has no effect; OpenBLAS may still start threads unless OPENBLAS_NUM_THREADS=1")


@main.command("optimize")
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON run configuration.")
@click.option("--loss", type=click.Choice(["l1", "l2"]), default=None)
@click.option("--method", type=click.Choice([m.value for m in Method]), default=None)
@click.option("--k", type=int, default=None)
@click.option("--fixed", type=str, default=None, help="Comma-separated fixed thresholds.")
@click.option("--grid-size", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def cmd_optimize(config_path, loss, method, k, fixed, grid_size, seed, out_dir):
    """Find optimal thresholds for one cohort and write result artifacts."""
    try:
        config = _load_config(config_path)
        _check_keys(
            config,
            {"input", "loss", "method", "k", "fixed", "grid_size", "seed", "de", "out"},
            "config",
        )
        method_token = method or config.get("method", "de")
        try:
            method_enum = Method(method_token)
        except ValueError:
            raise ConfigError(f"unknown method {method_token!r}")
        loss_token = loss if loss is not None else config.get("loss")
        if method_enum is Method.PAA:
            if loss_token is not None:
                raise ConfigError(
                    "the PAA baseline optimizes its own compositional objective and "
                    "accepts no quantile-grid loss"
                )
            spec = None
        else:
            loss_token = loss_token or "l1"
            if loss_token not in ("l1", "l2"):
                raise ConfigError(f"loss must be 'l1' or 'l2', got {loss_token!r}")
            spec = LossSpec(LossKind(loss_token), _grid_size(grid_size, config))
        k_value = k if k is not None else config.get("k")
        if k_value is None:
            raise ConfigError("k is required (flag --k or config key 'k')")
        k_value = _integer(k_value, "k", 0)
        fixed_values = _parse_fixed(fixed if fixed is not None else config.get("fixed"))
        seed_value = _integer(seed if seed is not None else config.get("seed", 0), "seed", 0)
        de_config = _de_config(config.get("de", {}), seed_value)
        out_path = Path(out_dir or config.get("out", "."))
        if "input" not in config:
            raise ConfigError("config requires an 'input' section")
        cohort = _load_input(config["input"], method_enum, out_path)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except DataError as exc:
        _fail(EXIT_DATA, str(exc))

    try:
        result = optimize(cohort, k_value, spec, method_enum, fixed=fixed_values, config=de_config)
    except SearchBudgetExceeded as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except ValueError as exc:
        _fail(EXIT_INFEASIBLE, f"optimizer infeasibility: {exc}")

    resolved = {
        "config_file": str(config_path) if config_path else None,
        "input": config.get("input"),
        "method": method_enum.value,
        "loss": result.loss_spec.kind.value,
        "grid_size": result.loss_spec.grid_size,
        "k": k_value,
        "fixed": list(fixed_values),
        "seed": seed_value,
    }
    payload = {
        "config": resolved,
        "thresholds": list(result.thresholds.thresholds),
        "thresholds_rounded_up": (
            list(round_up_thresholds(result.thresholds)) if cohort.integer_valued else None
        ),
        "loss": result.loss,
        "method": result.method.value,
        "evaluations": result.evaluations,
        "trace": None if result.trace is None else [[i, v] for i, v in result.trace],
    }
    _write_json(out_path / "result.json", payload)

    summary = tir_summary(cohort, result.thresholds)
    _write_float_rows(
        out_path / "tir_summary.csv",
        ["subject_id", *summary.range_labels],
        ((sid, [_reprs(row)]) for sid, row in zip(summary.subject_ids, summary.per_subject)),
    )

    grid = result.loss_spec.grid_size
    u = _reprs(probability_grid(grid))
    base = cohort.quantile_matrix(grid)
    members = zip(summary.subject_ids, base, _member_grids(cohort, result.thresholds.values, grid))
    # One member at a time: the file is never held as rows.
    blocks = ((sid, zip(u, _reprs(q), _reprs(lin))) for sid, q, lin in members)
    _write_float_rows(out_path / "linearization.csv", ["subject_id", "u", "q", "q_linearized"], blocks)
    click.echo(f"wrote {out_path / 'result.json'}")


@main.command("simulate")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--k", type=int, default=None)
@click.option("--reps", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--grid-size", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def cmd_simulate(config_path, k, reps, seed, grid_size, out_dir):
    """Run the synthetic benchmark and write aggregate and per-replication tables."""
    try:
        config = _load_config(config_path)
        _check_keys(
            config,
            {"mixture", "methods", "losses", "k", "reps", "seed", "noise_levels",
             "grid_size", "de", "out"},
            "config",
        )
        spec = _mixture_spec(config.get("mixture", {}))
        methods = _list(config.get("methods", ["oracle", "de", "sa"]), "methods")
        losses = _list(config.get("losses", ["l1"]), "losses")
        if any(token not in ("l1", "l2") for token in losses):
            raise ConfigError(
                "losses must be drawn from ['l1', 'l2']; the PAA baseline supplies its own "
                "compositional objective"
            )
        grid = _grid_size(grid_size, config)
        loss_specs = [LossSpec(LossKind(token), grid) for token in losses]
        k_value = _integer(k if k is not None else config.get("k", 3), "k", 0)
        reps_value = _integer(reps if reps is not None else config.get("reps", 10), "reps", 1)
        seed_value = _integer(seed if seed is not None else config.get("seed", 0), "seed", 0)
        noise_levels = config.get("noise_levels")
        if noise_levels is not None:
            _list(noise_levels, "noise_levels", numbers=True)
        de_config = _de_config(config.get("de", {}), None)
        out_path = Path(out_dir or config.get("out", "."))
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))

    try:
        report = run_benchmark(
            spec,
            methods,
            loss_specs,
            k=k_value,
            reps=reps_value,
            seeds=seed_value,
            noise_levels=noise_levels,
            de_config=de_config,
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))

    payload = report.to_json_dict()
    payload["config"] = {
        "config_file": str(config_path) if config_path else None,
        "mixture": config.get("mixture", {}),
        "methods": methods,
        "losses": losses,
        "k": k_value,
        "reps": reps_value,
        "seed": seed_value,
        "noise_levels": noise_levels,
    }
    _write_json(out_path / "benchmark.json", payload)
    _write_table(
        out_path / "benchmark.csv",
        ["method", "loss", "noise_sd", "k", "reps", "mean_thresholds", "se_thresholds",
         "mean_loss", "se_loss"],
        payload["rows"],
    )
    _write_table(
        out_path / "replications.csv",
        ["method", "loss", "noise_sd", "replication", "thresholds", "loss_value"],
        payload["replications"],
    )
    click.echo(f"wrote {out_path / 'benchmark.json'}")


@main.command("evaluate")
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--grid-size", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def cmd_evaluate(config_path, grid_size, out_dir):
    """Compare threshold sets on two labeled cohorts (or one cohort + label column)."""
    try:
        config = _load_config(config_path)
        _check_keys(
            config,
            {"group_a", "group_b", "input", "threshold_sets", "reference", "grid_size", "out"},
            "config",
        )
        if "threshold_sets" not in config:
            raise ConfigError("config requires 'threshold_sets'")
        sets = [
            ThresholdSet(_thresholds(raw, f"threshold_sets[{i}]"))
            for i, raw in enumerate(_list(config["threshold_sets"], "threshold_sets"))
        ]
        if not sets:
            raise ConfigError("threshold_sets must hold at least one threshold set")
        reference = (
            ThresholdSet(_thresholds(config["reference"], "reference")) if "reference" in config else None
        )
        labeled_single = "input" in config
        if labeled_single == ("group_a" in config or "group_b" in config):
            raise ConfigError(
                "provide either 'group_a' and 'group_b', or a single 'input' with a label_column"
            )
        grid = _grid_size(grid_size, config)
        out_path = Path(out_dir or config.get("out", "."))
        if labeled_single:
            single = config["input"]
            if not (isinstance(single, dict) and single.get("kind") == "csv" and "label_column" in single):
                raise ConfigError("single-input evaluation requires a csv input with label_column")
            loaded = _load_inputs({"input": single}, Method.DIFFERENTIAL_EVOLUTION, out_path, labelled=True)
            cohort, result = loaded["input"]
            if result.labels is None:
                raise DataError(f"label column {single['label_column']!r} not present in {single['path']}")
            if result.label_conflict is not None:
                raise DataError(f"subject {result.label_conflict} carries conflicting labels")
            values = sorted(set(result.labels.values()))
            if len(values) != 2:
                raise DataError(f"label column must carry exactly two values, got {values}")
            groups = [[m for m in cohort.members if result.labels.get(m.subject_id) == v] for v in values]
            if not all(groups):
                raise DataError("both label groups must contain at least one kept subject")
            cohort_a, cohort_b = Cohort(groups[0]), Cohort(groups[1])
        else:
            for key in ("group_a", "group_b"):
                if key not in config:
                    raise ConfigError(f"config requires {key!r}")
            groups = {key: config[key] for key in ("group_a", "group_b")}
            (cohort_a, _), (cohort_b, _) = _load_inputs(groups, Method.DIFFERENTIAL_EVOLUTION, out_path).values()
            if (cohort_a.kind, cohort_a.domain) != (cohort_b.kind, cohort_b.domain):
                a, b = (f"{c.kind} members on [{c.domain.lower:g}, {c.domain.upper:g}]"
                        for c in (cohort_a, cohort_b))
                raise DataError(f'group_a holds {a} but group_b holds {b}; set a simulated group\'s "use" '
                                f'("binned" gives histograms) and its mixture\'s "domain" to match')
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except DataError as exc:
        _fail(EXIT_DATA, str(exc))

    try:
        report = compare_thresholds(
            cohort_a, cohort_b, sets, LossSpec(LossKind.L2, grid), reference=reference
        )
    except ValueError as exc:
        _fail(EXIT_DATA, str(exc))

    payload = report.to_json_dict()
    payload["config"] = {
        "config_file": str(config_path),
        "threshold_sets": config["threshold_sets"],
        "reference": config.get("reference"),
        "grid_size": grid,
    }
    _write_json(out_path / "comparison.json", payload)
    _write_table(
        out_path / "comparison.csv",
        ["thresholds", "loss_l1", "loss_l2", "reduction_l1_pct", "reduction_l2_pct"],
        payload["threshold_sets"],
    )
    (out_path / "tables.md").write_text(report.to_markdown(), encoding="utf-8")
    click.echo(f"wrote {out_path / 'comparison.json'}")


if __name__ == "__main__":
    main()
