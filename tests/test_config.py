"""Tests for config file parsing, override precedence, and validation."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from waveletcf import seeds
from waveletcf.cli import main
from waveletcf.config import (
    KEY_SPECS,
    RunConfig,
    env_overrides,
    flag_overrides,
    load_config_file,
    parse_value,
    resolve,
)
from waveletcf.errors import ConfigError


def test_defaults():
    cfg = resolve(None, [], environ={})
    assert cfg["threads"] == 1
    assert cfg["k_values"] == (20,)
    assert cfg["batch_size"] == 1024
    assert cfg["patience"] == 10
    assert cfg["layers"] == 3 and cfg["width"] == 64
    assert cfg["cold_start_caps"] == (3, 5, 7, 9, 12)
    assert cfg["grid_learning_rates"] is None


def test_file_parsing_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "seed=42   # trailing comment\n"
        "k_values=5, 10 ,20\n"
    )
    values = load_config_file(path)
    assert values == {"seed": 42, "k_values": (5, 10, 20)}


def test_file_unknown_key_suggests(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("batchsize=512\n")
    with pytest.raises(ConfigError, match="batch_size"):
        load_config_file(path)


def test_file_line_without_equals_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\njust words\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_config_file(path)


def test_missing_config_file(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file("/nonexistent/run.cfg")
    # a file that is not UTF-8 is a config error naming it, exit 2
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed=1\n# \xff\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not UTF-8"):
        load_config_file(path)
    assert main(["ingest", "--config", str(path)]) == 2
    assert f"{path} is not UTF-8" in capsys.readouterr().err


def test_value_parsers():
    assert parse_value("threads", " 4 ") == 4
    assert parse_value("t", "0.25") == 0.25
    assert parse_value("grid_learning_rates", "0.01,0.05") == (0.01, 0.05)
    # an empty path means unset, so `require` refuses it
    for key in ("input", "dataset", "spectral_cache", "checkpoint", "train_state", "report"):
        assert parse_value(key, " x.ds ") == "x.ds"
        assert parse_value(key, " ") is None
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_value("threads", "many")
    with pytest.raises(ConfigError, match="k_values"):
        parse_value("k_values", " , ")
    with pytest.raises(ConfigError, match="cold_start_caps"):
        parse_value("cold_start_caps", " , ")


@pytest.mark.parametrize("key", ["eig_tol", "t", "learning_rate", "grid_t_values"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
def test_float_parsers_refuse_non_finite_values(key, raw):
    with pytest.raises(ConfigError, match=f"config key '{key}': cannot parse"):
        parse_value(key, raw if key != "grid_t_values" else f"0.5,{raw}")


def test_precedence_file_env_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("width=8\nlayers=2\nseed=1\n")
    environ = {"WAVELETCF_WIDTH": "16", "WAVELETCF_SEED": "2"}
    cfg = resolve(str(path), ["seed=3"], environ=environ)
    assert cfg["width"] == 16  # env beats file
    assert cfg["seed"] == 3  # flag beats env
    assert cfg["layers"] == 2  # file beats default


def test_env_unknown_key_rejected():
    with pytest.raises(ConfigError, match="WAVELETCF_BATCHSIZE"):
        env_overrides({"WAVELETCF_BATCHSIZE": "9"})


def test_env_unrelated_vars_ignored():
    assert env_overrides({"PATH": "/bin", "WAVELETCFX": "1"}) == {}


def test_flag_without_equals():
    with pytest.raises(ConfigError, match="expected key=value"):
        flag_overrides(["threads"])


@pytest.mark.parametrize(
    "values, fragment",
    [
        ({"train_fraction": 1.5}, "train_fraction"),
        ({"val_fraction": 0.0}, "val_fraction"),
        ({"exponent_mode": "exp"}, "exponent_mode"),
        # the delimiter is always detected: there is no input_format key
        ({"input_format": "auto"}, "unknown config key 'input_format'"),
        ({"threads": 0}, "threads"),
        ({"q": -1}, "q"),
        ({"eig_tol": 0.0}, "eig_tol"),
        ({"per_user_cap": -2}, "per_user_cap"),
        ({"k_values": (0, 20)}, "k_values"),
        ({"cohort_boundaries": (50, 25)}, "increasing"),
        ({"grid_learning_rates": (0.1,)}, "together"),
        (
            {"grid_learning_rates": (0.0, 0.1), "grid_t_values": (0.5,)},
            "positive",
        ),
        (
            {"grid_learning_rates": (0.1,), "grid_t_values": (-0.5, 1.0)},
            "grid_t_values",
        ),
        ({"learning_rate": 0.0}, "zero rate"),
        ({"min_user_interactions": 0}, "thresholds"),
        ({"eig_tol": float("nan")}, "eig_tol must be finite and > 0"),
        ({"eig_tol": float("inf")}, "eig_tol must be finite and > 0"),
        ({"t": float("nan")}, "t must be finite"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite"),
        ({"eta": float("inf")}, "eta must be finite"),
        # Adam's constants are train.ADAM_*, not keys
        ({"adam_beta1": 0.9}, "unknown config key 'adam_beta1'"),
        ({"q": 1}, "q must be 0 or >= 2"),
        ({"k_values": (20, 20)}, "k_values entries must be distinct"),
        ({"cold_start_caps": (0, 3)}, "cold_start_caps"),
    ],
)
def test_validation_rejects(values, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig(values)


def test_nested_validation_surfaces_as_config_error():
    # nested dataclass validation fires during RunConfig construction, not
    # mid-pipeline
    with pytest.raises(ConfigError, match="patience must be >= 0"):
        RunConfig({"patience": -1})


def test_derived_stage_objects():
    cfg = RunConfig(
        {"seed": 7, "per_user_cap": 0, "eta": 0.25, "exponent_mode": "boxcox",
         "val_fraction": 0.3}
    )
    spec = cfg.split_spec()
    assert spec.per_user_cap == 0
    assert spec.seed == seeds.child_seed(7, seeds.SPLIT)
    model = cfg.model_config()
    assert model.seed == seeds.child_seed(7, seeds.INIT)
    assert model.exponent_mode == "boxcox"
    train = cfg.train_config()
    assert train.seed == 7
    assert train.eta == 0.25
    assert train.val_fraction == 0.3
    assert cfg.eig_seed() == seeds.child_seed(7, seeds.EIG)
    cap = RunConfig({"per_user_cap": 4}).split_spec()
    assert cap.per_user_cap == 4


def test_grid_cells_are_checked_stage_configs():
    cfg = RunConfig({"seed": 3, "learning_rate": 0.2, "t": 0.7, "eta": 0.25,
                     "grid_learning_rates": (0.01, 0.05), "grid_t_values": (0.5, 1.0)})
    cells = cfg.grid_cells()
    assert [(tc.learning_rate, mc.t) for mc, tc in cells] == [
        (0.01, 0.5), (0.01, 1.0), (0.05, 0.5), (0.05, 1.0)
    ]
    # each cell differs from the run's stage configs in the grid keys only
    for mc, tc in cells:
        assert replace(mc, t=0.7) == cfg.model_config()
        assert replace(tc, learning_rate=0.2) == cfg.train_config()
    assert RunConfig({}).grid_cells() == []
    # a bad cell is refused by its config, named by its grid values
    with pytest.raises(ConfigError, match=r"grid_learning_rates=0\.1, "
                       r"grid_t_values=-0\.5: t must be >= 0"):
        RunConfig({"grid_learning_rates": (0.1,), "grid_t_values": (0.5, -0.5)})
    with pytest.raises(ConfigError, match=r"grid_learning_rates=-1\.0, "
                       r"grid_t_values=0\.5: learning_rate must be strictly positive"):
        RunConfig({"grid_learning_rates": (-1.0,), "grid_t_values": (0.5,)})


def test_require_names_sources():
    cfg = RunConfig({})
    with pytest.raises(ConfigError, match="WAVELETCF_DATASET"):
        cfg.require("dataset")
    assert cfg.require("threads") == 1


def test_echo_lines_round_trip():
    cfg = RunConfig({"dataset": "x.ds", "k_values": (5, 20)})
    lines = cfg.echo_lines()
    assert "dataset=x.ds" in lines
    assert "k_values=5,20" in lines
    assert not any(line.startswith("input=") for line in lines)
    # echoed lines parse back to the same values
    reparsed = {}
    for line in lines:
        key, raw = line.split("=", 1)
        reparsed[key] = parse_value(key, raw)
    assert RunConfig(reparsed).values == cfg.values


def test_readme_documents_exactly_the_config_keys():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            # the first cell may name several keys
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert documented == set(KEY_SPECS)
