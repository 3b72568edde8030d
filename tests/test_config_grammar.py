"""Generated configs: values of every JSON type at one or two keys of small valid configs.

Each case must end with exit 0, 2, 3 or 4 and no traceback, and a config error (exit 2)
must write no file.  Sizes are drawn small.  Huge edge numbers are drawn at every key but
``LONG_RUN_KEYS``, where a large valid value means a long run: elsewhere validation must
refuse them before anything is allocated, or they size nothing.  A case that runs longer
than ``CASE_SECONDS`` fails the test.  The explicit examples are the hang and the
tracebacks that an earlier generator found, and settings whose errors once did not name them.
"""

import copy
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import time_limit
from optithresh.cli import main
from optithresh.ingestion import InclusionPolicy
from optithresh.optimizers import DEConfig
from optithresh.simulation import MixtureSpec

CASE_SECONDS = 20

MIXTURE = {"n_subjects": 6, "obs_per_subject": 200, "histogram_cutoffs": [70.0, 110.0, 150.0, 180.0, 215.0, 250.0]}
#: Three subjects of 60 five-minute readings, which the default inclusion rule keeps.
CSV_TEXT = "id,time,gl\n" + "".join(f"{s},{i * 300},{b + i % 7}\n" for s, b in (("a", 90), ("b", 150), ("c", 230))
                                    for i in range(60))

TOKENS = ["l1", "l2", "de", "sa", "ss", "exhaustive", "paa", "oracle", "simulation", "csv", "empirical",
          "binned", "auto", "skip", "error", "setting1", "setting2", "id", "time", "gl"]
SMALL_NUMBERS = [0, 1, 2, 3, -1, 0.5, -0.5, -0.0, 1e-300, -1e-300, 70, 180.5, 399.0]
HUGE_NUMBERS = [1e300, -1e300, 10**30, 2**63, -(2**63), math.nan, math.inf, -math.inf]


def json_values(numbers):
    """JSON values of every type, mostly numbers and lists of numbers, which more often pass the type checks."""
    number = st.one_of(st.sampled_from(numbers), st.integers(-2, 8), st.floats(-500, 500))
    scalar = st.one_of(st.none(), st.booleans(), st.sampled_from(TOKENS), st.text(max_size=4))
    nested = st.recursive(
        number | scalar,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(TOKENS) | st.text(max_size=3),
                                                                   inner, max_size=2),
        max_leaves=6,
    )
    return st.one_of(st.sampled_from(numbers), number, st.lists(number, min_size=1, max_size=4), scalar, nested)


SMALL_VALUES = json_values(SMALL_NUMBERS)
ANY_VALUES = json_values(SMALL_NUMBERS + HUGE_NUMBERS)


def keys(*sections):
    """Key paths: each section's own path and one path per field beneath it."""
    return [path for section, fields in sections for path in [section] + [(*section, f) for f in fields]]


MIXTURE_FIELDS = list(MixtureSpec.__dataclass_fields__)
DE_FIELDS = list(DEConfig.__dataclass_fields__)
INCLUSION_FIELDS = list(InclusionPolicy.__dataclass_fields__)
OPTIMIZE_KEYS = keys((("loss",), []), (("method",), []), (("k",), []), (("fixed",), []), (("grid_size",), []),
                     (("seed",), []), (("out",), []), (("de",), DE_FIELDS), (("unknown",), []), (("input",), ["kind"]))
BASES = {
    "optimize-simulation": (
        "optimize",
        {"input": {"kind": "simulation", "mixture": MIXTURE, "seed": 1}, "method": "sa", "k": 2, "grid_size": 40,
         "de": {"max_generations": 3}},
        OPTIMIZE_KEYS + keys((("input", "seed"), []), (("input", "use"), []), (("input", "mixture"), MIXTURE_FIELDS)),
    ),
    "optimize-csv": (
        "optimize",
        {"input": {"kind": "csv", "path": None, "on_bad_row": "skip"}, "method": "de", "k": 2, "grid_size": 40,
         "de": {"max_generations": 3}},
        OPTIMIZE_KEYS + keys((("input", "path"), []), (("input", "on_bad_row"), []),
                             (("input", "columns"), ["id", "time", "value"]),
                             (("input", "inclusion"), INCLUSION_FIELDS)),
    ),
    "simulate": (
        "simulate",
        {"mixture": MIXTURE, "methods": ["oracle", "sa"], "losses": ["l1"], "k": 2, "reps": 1, "grid_size": 40,
         "de": {"max_generations": 3}},
        keys((("methods",), []), (("losses",), []), (("k",), []), (("reps",), []), (("seed",), []),
             (("noise_levels",), []), (("grid_size",), []), (("out",), []), (("unknown",), []),
             (("de",), DE_FIELDS), (("mixture",), MIXTURE_FIELDS)),
    ),
}
#: Keys where a large valid value is a long run, not a malformed config.
LONG_RUN_KEYS = {("de", "max_generations")}


@st.composite
def cases(draw):
    """A base config's name and one or two (key path, value) changes to it."""
    base = draw(st.sampled_from(sorted(BASES)))
    chosen = draw(st.lists(st.sampled_from(BASES[base][2]), min_size=1, max_size=2, unique=True))
    return base, [(path, draw(SMALL_VALUES if path in LONG_RUN_KEYS else ANY_VALUES)) for path in chosen]


def with_values(config: dict, changes) -> dict:
    config = copy.deepcopy(config)
    for path, value in changes:
        parent = config
        for key in path[:-1]:
            parent = parent.setdefault(key, {})
            if not isinstance(parent, dict):  # an earlier change replaced the section
                break
        else:
            parent[path[-1]] = value
    return config


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar") / "cgm.csv"
    path.write_text(CSV_TEXT)
    return str(path)


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=("simulate", [(("mixture", "noise_sd"), 1e300)]))
@example(case=("optimize-simulation", [(("input", "mixture", "noise_sd"), 1e300)]))
@example(case=("simulate", [(("noise_levels",), [1e300])]))
@example(case=("simulate", [(("seed",), 10**30)]))
@example(case=("simulate", [(("seed",), 2**63 - 1), (("reps",), 2)]))
@example(case=("simulate", [(("mixture", "obs_per_subject"), 1e300)]))
@example(case=("optimize-simulation", [(("input", "mixture", "n_subjects"), 1e300)]))
@example(case=("optimize-simulation", [(("grid_size",), 1e300)]))
@example(case=("optimize-csv", [(("grid_size",), 1e300)]))
@example(case=("optimize-csv", [(("de", "population_size_per_dim"), 1e300)]))
@example(case=("optimize-csv", [(("k",), 10**30)]))
@example(case=("simulate", [(("reps",), 10**30)]))
@example(case=("optimize-csv", [(("de", "seed"), 3)]))
@example(case=("optimize-simulation", [(("input", "mixture", "domain"), [5])]))
@example(case=("simulate", [(("mixture", "base_thresholds"), 5)]))
@example(case=("simulate", [(("mixture", "histogram_cutoffs"), 5)]))
@example(case=("optimize-csv", [(("de", "mutation_range"), 0.5)]))
@example(case=("simulate", [(("mixture", "base_thresholds"), [70, 180, 10**400])]))
@example(case=("optimize-csv", [(("fixed",), [1000])]))
@example(case=("optimize-csv", [(("fixed",), [40])]))
def test_config_exits_with_a_documented_code(csv_path, case):
    result, written = run_case(csv_path, *case)
    assert result.exit_code in (0, 2, 3, 4), (case, result.output, result.exception)
    assert "Traceback" not in result.output, (case, result.output)
    if result.exit_code == 2:
        assert written == [], (case, result.output)


@pytest.mark.parametrize(
    "base, path, value, message",
    [
        ("optimize-simulation", ("input", "mixture", "domain"), [5],
         "invalid input.mixture: input.mixture.domain must be a list of 2 numbers, got [5]"),
        ("simulate", ("mixture", "base_thresholds"), 5,
         "invalid mixture: mixture.base_thresholds must be a list of numbers, got 5"),
        ("simulate", ("mixture", "histogram_cutoffs"), [70, "80"],
         "invalid mixture: mixture.histogram_cutoffs must be a list of numbers, got [70, '80']"),
        ("optimize-csv", ("de", "mutation_range"), 0.5,
         "invalid de section: de.mutation_range must be a list of 2 numbers, got 0.5"),
        ("simulate", ("de", "mutation_range"), [0.5, 0.7, 0.9],
         "invalid de section: de.mutation_range must be a list of 2 numbers, got [0.5, 0.7, 0.9]"),
        ("optimize-csv", ("fixed",), [1000], "fixed threshold 1000.0 outside the open domain (40.0, 401.0)"),
    ],
    ids=["domain-short", "base-number", "cutoffs-word", "mutation-number", "mutation-three", "fixed-outside"],
)
def test_config_error_names_the_setting(csv_path, base, path, value, message):
    result, written = run_case(csv_path, base, [(path, value)])
    assert result.exit_code == 2 and f"error: {message}\n" in result.output, result.output
    assert written == []


def run_case(csv_path, base: str, changes):
    """The CLI's result on the base config with ``changes``, and the files it wrote in its working directory."""
    command, config, _ = BASES[base]
    if base == "optimize-csv":
        config = {**config, "input": {**config["input"], "path": csv_path}}
    config = with_values(config, changes)
    with tempfile.TemporaryDirectory() as root:
        cfg, work = Path(root) / "config.json", Path(root) / "work"
        cfg.write_text(json.dumps(config))
        work.mkdir()
        here = os.getcwd()
        try:
            os.chdir(work)  # the default "out" and any relative one land here
            with time_limit(CASE_SECONDS):
                result = CliRunner().invoke(main, [command, "--config", str(cfg)])
        finally:
            os.chdir(here)
        written = sorted(path.name for path in work.iterdir())
    return result, written
