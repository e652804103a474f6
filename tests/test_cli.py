"""End-to-end tests of the command-line pipeline and its exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import synthetic_two_block

from waveletcf import bundles, cli, model
from waveletcf.cli import main

pytestmark = pytest.mark.filterwarnings("ignore:embedding width")


def write_raw(path):
    data = synthetic_two_block(
        num_users=60, num_items=40, per_user=21, noise=0.05, seed=7
    )
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in data.pairs:
            fh.write(f"u{u}\ti{i}\n")


def write_config(path, **extra):
    base = dict(
        seed=11,
        max_epochs=4,
        patience=3,
        width=16,
        threads=1,
        k_values="5,20",
    )
    base.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in base.items():
            fh.write(f"{key}={value}\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Raw data + config with ingest/spectral/train already run."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.tsv"
    write_raw(raw)
    cfg = root / "run.cfg"
    write_config(
        cfg,
        input=raw,
        dataset=root / "data.ds",
        spectral_cache=root / "spec.bundle",
        checkpoint=root / "model.ckpt",
    )
    for command in ("ingest", "spectral", "train"):
        assert main([command, "--config", str(cfg)]) == 0
    return root, str(cfg)


def test_ingest_summary(pipeline, capsys):
    root, cfg = pipeline
    out = root / "again.ds"
    code = main(["ingest", "--config", cfg, "--set", f"dataset={out}"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "1260 interactions" in captured
    assert "60 users, 40 items" in captured
    assert "sparsity 47.50%" in captured
    assert "dataset hash " in captured
    assert out.exists()


def test_ingest_refuses_overwrite_then_force(pipeline, capsys):
    root, cfg = pipeline
    assert main(["ingest", "--config", cfg]) == 2
    assert "pass --force" in capsys.readouterr().err
    assert main(["ingest", "--config", cfg, "--force"]) == 0


def test_missing_input_is_a_data_error(pipeline, capsys):
    root, cfg = pipeline
    code = main(
        ["ingest", "--config", cfg, "--force", "--set", "input=/no/such.tsv"]
    )
    assert code == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,key,name,out_key",
    [
        ("ingest", "input", "raw.tsv", "dataset"),
        ("spectral", "dataset", "data.ds", "spectral_cache"),
    ],
)
def test_non_utf8_input_is_a_data_error(
    pipeline, tmp_path, capsys, command, key, name, out_key
):
    root, cfg = pipeline
    bad = tmp_path / name
    bad.write_bytes((root / name).read_bytes().replace(b"\nu1", b"\nu\xff1", 1))
    code = main(
        [command, "--config", cfg, "--set", f"{key}={bad}",
         "--set", f"{out_key}={tmp_path / 'out'}"]
    )
    assert code == 3
    assert f"{bad}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["x1\t2", "1", "1\t2\t3", "99999999999999999999\t1", "", "1_0\t2", "\uff11\t2"],
)
def test_malformed_pair_line_is_a_data_error(pipeline, tmp_path, capsys, line):
    root, cfg = pipeline
    lines = (root / "data.ds").read_text(encoding="utf-8").split("\n")
    lines[2] = line
    bad = tmp_path / "data.ds"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code = main(
        ["spectral", "--config", cfg, "--set", f"dataset={bad}",
         "--set", f"spectral_cache={tmp_path / 'spec.bundle'}"]
    )
    assert code == 3
    assert f"{bad}: line 3: malformed pair" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(pipeline, capsys):
    _, cfg = pipeline
    for key in ("bogus", "drop_threshold", "materialize_wavelets"):
        assert main(["ingest", "--config", cfg, "--set", f"{key}=1"]) == 2
        assert "unknown config key" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_spectral_cache_hit(pipeline, capsys):
    _, cfg = pipeline
    assert main(["spectral", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "cache hit" in captured
    assert "Q 64" in captured
    assert "kappa " in captured
    assert "transformed std " in captured


def test_spectral_parameter_change_needs_force(pipeline, capsys):
    root, cfg = pipeline
    assert main(["spectral", "--config", cfg, "--set", "eig_tol=1e-6"]) == 2
    assert "different parameters" in capsys.readouterr().err
    # the cache holds no filter output, so the filter scale is not its key
    assert main(["spectral", "--config", cfg, "--set", "t=0.9"]) == 0
    assert "cache hit" in capsys.readouterr().out
    # an underflowed filter response is refused and leaves the cache alone
    before = (root / "spec.bundle").read_bytes()
    assert main(["spectral", "--config", cfg, "--set", "t=1e300", "--force"]) == 4
    assert "strictly positive" in capsys.readouterr().err
    assert (root / "spec.bundle").read_bytes() == before
    assert main(
        ["spectral", "--config", cfg, "--set", "eig_tol=1e-6", "--force"]
    ) == 0
    # restore the module fixture's cache
    assert main(["spectral", "--config", cfg, "--force"]) == 0


def test_spectral_toy_full_band(tmp_path, capsys):
    # one user, two items: connected 3-node path, spectrum {0, 1, 2}
    raw = tmp_path / "toy.tsv"
    raw.write_text("alice\tleft\nalice\tright\n")
    cfg = tmp_path / "toy.cfg"
    write_config(
        cfg,
        input=raw,
        dataset=tmp_path / "toy.ds",
        spectral_cache=tmp_path / "toy.spec",
        min_user_interactions=1,
        min_item_interactions=1,
        train_fraction=0.9,
    )
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert main(["spectral", "--config", str(cfg)]) == 0
    captured = capsys.readouterr().out
    assert "lambda range [0.000000, 2.000000]" in captured


def test_q_clamped_with_warning(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    code = main(
        [
            "spectral",
            "--config",
            cfg,
            "--set",
            "q=500",
            "--set",
            f"spectral_cache={tmp_path / 'big.spec'}",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "clamping to 100" in captured.err
    assert "Q 100" in captured.out


def test_train_log_and_checkpoint_meta(pipeline, capsys):
    root, cfg = pipeline
    ckpt = root / "meta.ckpt"
    code = main(["train", "--config", cfg, "--set", f"checkpoint={ckpt}"])
    captured = capsys.readouterr().out
    assert code == 0
    header = captured.splitlines()[0]
    assert "batch_size=1024" in header
    assert "layers=3" in header
    assert "width=16" in header
    assert "dataset_hash=" in header
    epoch_lines = [
        line for line in captured.splitlines() if line and line[0].isdigit()
    ]
    assert len(epoch_lines) == 4
    assert all(len(line.split()) == 5 for line in epoch_lines)

    config, params, meta = model.load_checkpoint(ckpt)
    assert meta["best_epoch"] >= 0
    assert meta["root_seed"] == 11
    assert 0.0 <= meta["best_recall"] <= 1.0
    assert params.x0.shape == (60, 16)


def test_train_stale_cache_is_a_data_error(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    code = main(
        [
            "train",
            "--config",
            cfg,
            "--set",
            "seed=99",
            "--set",
            f"checkpoint={tmp_path / 'x.ckpt'}",
        ]
    )
    assert code == 3
    assert "cache was built for dataset" in capsys.readouterr().err


def test_train_grid_enumerates_and_reports_best(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    ckpt = tmp_path / "grid.ckpt"
    code = main(
        [
            "train",
            "--config",
            cfg,
            "--set",
            f"checkpoint={ckpt}",
            "--set",
            "grid_learning_rates=0.01,0.05",
            "--set",
            "grid_t_values=0.5,1.0",
            "--set",
            "max_epochs=2",
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    runs = [line for line in captured.splitlines() if line.startswith("grid lr=")]
    assert len(runs) == 4
    best = [line for line in captured.splitlines() if line.startswith("grid best")]
    assert len(best) == 1 and "(4 runs)" in best[0]
    config, _, meta = model.load_checkpoint(ckpt)
    assert (meta["learning_rate"], config.t) in [
        (lr, t) for lr in (0.01, 0.05) for t in (0.5, 1.0)
    ]


def test_train_resume_round_trip(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    ckpt = tmp_path / "resume.ckpt"
    state = tmp_path / "state.bundle"
    args = ["--set", f"checkpoint={ckpt}", "--set", f"train_state={state}"]
    assert main(["train", "--config", cfg, "--set", "max_epochs=2", *args]) == 0
    capsys.readouterr()
    code = main(
        ["train", "--config", cfg, "--resume", "--set", "max_epochs=4", *args]
    )
    captured = capsys.readouterr().out
    assert code == 0
    epoch_lines = [
        line for line in captured.splitlines() if line and line[0].isdigit()
    ]
    # continues at epoch 3 instead of restarting
    assert epoch_lines[0].split()[0] == "3"

    fresh = tmp_path / "fresh.ckpt"
    assert main(
        ["train", "--config", cfg, "--set", "max_epochs=4", "--set",
         f"checkpoint={fresh}"]
    ) == 0
    _, resumed_params, _ = model.load_checkpoint(ckpt)
    _, fresh_params, _ = model.load_checkpoint(fresh)
    for (_, a), (_, b) in zip(resumed_params.tensors(), fresh_params.tensors()):
        assert np.array_equal(a, b)


def test_resume_without_state_key(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    code = main(
        ["train", "--config", cfg, "--resume", "--set",
         f"checkpoint={tmp_path / 'r.ckpt'}"]
    )
    assert code == 2
    assert "train_state" in capsys.readouterr().err


def test_resume_refuses_a_state_from_another_config(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    ckpt = tmp_path / "r.ckpt"
    state = tmp_path / "r.state"
    args = ["train", "--config", cfg, "--set", f"checkpoint={ckpt}", "--set",
            f"train_state={state}"]
    assert main([*args, "--set", "max_epochs=2"]) == 0
    before = (ckpt.read_bytes(), state.read_bytes())
    capsys.readouterr()
    for override, name in (
        ("width=8", "model.width"),
        ("learning_rate=0.01", "train.learning_rate"),
        ("exponent_mode=boxcox", "model.exponent_mode"),
        ("val_fraction=0.2", "train.val_fraction"),
    ):
        code = main(
            [*args, "--resume", "--set", "max_epochs=4", "--set", override]
        )
        assert code == 2
        assert f"this run has {name}=" in capsys.readouterr().err
        assert (ckpt.read_bytes(), state.read_bytes()) == before


@pytest.mark.parametrize(
    "artifact, key",
    [
        ("spectral_cache", "kappa"),
        ("spectral_cache", "phi"),
        ("checkpoint", "num_w"),
        ("checkpoint", "width"),
        ("checkpoint", "x0"),
        ("train_state", "adam_step"),
        ("train_state", "cur_x0"),
    ],
)
def test_bundle_missing_a_key_is_a_data_error(
    pipeline, tmp_path, capsys, artifact, key
):
    root, cfg = pipeline
    state = tmp_path / "state.bundle"
    resume = ["train", "--config", cfg, "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
              "--set", f"train_state={state}"]
    if artifact == "train_state":
        assert main([*resume, "--set", "max_epochs=1"]) == 0
        source, command = state, [*resume, "--resume"]
    else:
        name = "spec.bundle" if artifact == "spectral_cache" else "model.ckpt"
        source, command = root / name, ["evaluate", "--config", cfg]
    meta, arrays = bundles.load_bundle(source)
    parts = (meta, meta.get("config", {}), arrays)
    (holder,) = [part for part in parts if key in part]
    del holder[key]
    damaged = tmp_path / "damaged.bundle"
    bundles.save_bundle(damaged, meta, arrays)
    capsys.readouterr()
    assert main([*command, "--set", f"{artifact}={damaged}"]) == 3
    assert f"{damaged}: missing key '{key}'" in capsys.readouterr().err


def test_evaluate_report(pipeline, capsys):
    _, cfg = pipeline
    assert main(["evaluate", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("dataset hash ")
    assert "config k_values=5,20" in captured
    assert "config seed=11" in captured
    assert "# per-user holdout split" in captured
    assert "# spectrum truncated to Q=64 of N=100" in captured
    assert "eligible test users: 60" in captured
    # one aggregate and four cohort machine rows per metric per k
    machine = [
        line for line in captured.splitlines() if line.startswith(("recall ", "ndcg "))
    ]
    assert len(machine) == 2 * 2 * 5


def test_evaluate_writes_report_file_with_overwrite_guard(
    pipeline, tmp_path, capsys
):
    _, cfg = pipeline
    report = tmp_path / "report.txt"
    args = ["evaluate", "--config", cfg, "--set", f"report={report}"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    body = report.read_text()
    assert body in stdout  # file holds exactly the printed report
    before = report.read_bytes()
    assert main(args) == 2
    # refused before any scoring: nothing printed, the file left as it was
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass --force" in captured.err
    assert report.read_bytes() == before
    assert main(args + ["--force"]) == 0


def test_evaluate_checkpoint_for_other_dataset(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    from waveletcf.model import ModelConfig, init_params, save_checkpoint

    rogue = tmp_path / "rogue.ckpt"
    config = ModelConfig(layers=1, width=4, seed=0)
    save_checkpoint(rogue, config, init_params(config, 60, 40, 64), "0" * 64)
    code = main(["evaluate", "--config", cfg, "--set", f"checkpoint={rogue}"])
    assert code == 3
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [1, -1])
def test_checkpoint_layer_count_mismatch_is_a_data_error(
    pipeline, tmp_path, capsys, shift
):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    meta["config"]["layers"] = meta["num_w"] + shift
    bad = tmp_path / "layers.ckpt"
    bundles.save_bundle(bad, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={bad}"]) == 3
    assert f"layers={meta['num_w'] + shift}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("width", 0),
        ("layers", "3"),
        ("exponent_mode", "weird"),
        ("t", True),
        ("width", 2.5),
    ],
)
def test_checkpoint_with_invalid_stored_config_is_a_data_error(
    pipeline, tmp_path, capsys, key, value
):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    meta["config"][key] = value
    bad = tmp_path / "config.ckpt"
    bundles.save_bundle(bad, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={bad}"]) == 3
    assert f"{bad}: invalid stored config ({key} " in capsys.readouterr().err


def test_old_artifact_versions_are_data_errors(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    meta["version"] = 1
    old_ckpt = tmp_path / "v1.ckpt"
    bundles.save_bundle(old_ckpt, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={old_ckpt}"]) == 3
    assert f"{old_ckpt}: model-checkpoint version 1 unsupported" in (
        capsys.readouterr().err
    )

    state = tmp_path / "v2.state"
    args = ["train", "--config", cfg, "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
            "--set", f"train_state={state}"]
    assert main([*args, "--set", "max_epochs=1"]) == 0
    meta, arrays = bundles.load_bundle(state)
    meta["version"] = 2
    bundles.save_bundle(state, meta, arrays)
    capsys.readouterr()
    assert main([*args, "--resume"]) == 3
    assert f"{state}: train-state version 2 unsupported" in capsys.readouterr().err


def test_scoring_uses_the_checkpoint_filter(pipeline, tmp_path, capsys):
    # a model trained with boxcox at t=0.5 scores the same whatever
    # exponent_mode and t the evaluating run config holds
    _, cfg = pipeline
    base = ["--config", cfg, "--set", "exponent_mode=boxcox",
            "--set", f"checkpoint={tmp_path / 'boxcox.ckpt'}"]
    assert main(["train", *base, "--set", "max_epochs=2"]) == 0
    outputs = []
    for override in (["exponent_mode=boxcox"], ["exponent_mode=power", "t=20"]):
        sets = [arg for pair in override for arg in ("--set", pair)]
        capsys.readouterr()
        assert main(["evaluate", *base, *sets]) == 0
        report = capsys.readouterr().out.splitlines()
        metrics = [line for line in report if line.startswith(("recall ", "ndcg "))]
        assert main(
            ["recommend", *base, *sets, "--users", "u0,u7,u31", "--k", "10"]
        ) == 0
        outputs.append((metrics, capsys.readouterr().out))
    assert outputs[0][0]
    assert outputs[0] == outputs[1]


def test_recommend_refuses_k_zero_before_loading(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    missing = tmp_path / "absent.ckpt"
    code = main(
        ["recommend", "--config", cfg, "--set", f"checkpoint={missing}",
         "--users", "u0", "--k", "0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k must be >= 1" in captured.err


def test_recommend_forced_choice(tmp_path, capsys):
    # u0 interacted only with item a; with a 2-item catalog and k=1 the
    # answer is forced to be item b, whatever the model weights say
    from waveletcf.config import resolve
    from waveletcf.ingest import dataset_hash, load_canonical, split
    from waveletcf.model import init_params, save_checkpoint

    raw = tmp_path / "toy.tsv"
    raw.write_text("u0\ta\nu1\ta\nu1\tb\nu2\ta\nu2\tb\n")
    cfg = tmp_path / "toy.cfg"
    write_config(
        cfg,
        input=raw,
        dataset=tmp_path / "toy.ds",
        spectral_cache=tmp_path / "toy.spec",
        checkpoint=tmp_path / "toy.ckpt",
        min_user_interactions=1,
        min_item_interactions=1,
        width=4,
        train_fraction=0.9,
    )
    for command in ("ingest", "spectral"):
        assert main([command, "--config", str(cfg)]) == 0
    # the toy is too small for a validation holdout, so skip training and
    # write an untrained checkpoint of the right shape
    run = resolve(str(cfg), [])
    train, _ = split(load_canonical(str(tmp_path / "toy.ds")), run.split_spec())
    model_config = run.model_config()
    save_checkpoint(
        tmp_path / "toy.ckpt",
        model_config,
        init_params(model_config, train.num_users, train.num_items, 5),
        dataset_hash(train),
    )
    capsys.readouterr()
    assert main(["recommend", "--config", str(cfg), "--users", "u0", "--k", "1"]) == 0
    assert capsys.readouterr().out == "u0\tok\tb\n"


def test_recommend_unknown_user_entry(pipeline, capsys):
    _, cfg = pipeline
    code = main(
        ["recommend", "--config", cfg, "--users", "u3,nobody,u42", "--k", "3"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 3
    assert lines[1] == "nobody\terror\tunknown user id"
    for line in (lines[0], lines[2]):
        uid, status, items = line.split("\t")
        assert status == "ok"
        assert len(items.split()) == 3
        assert all(item.startswith("i") for item in items.split())


def test_recommend_excludes_train_positives(pipeline, capsys):
    root, cfg = pipeline
    from waveletcf.config import resolve
    from waveletcf.ingest import load_canonical, split

    run = resolve(cfg, [])
    data = load_canonical(str(root / "data.ds"))
    train, _ = split(data, run.split_spec())
    u = 5
    seen = {train.item_ids[i] for i in train.items_by_user()[u]}
    assert main(
        ["recommend", "--config", cfg, "--users", f"u{u}", "--k", "20"]
    ) == 0
    items = capsys.readouterr().out.strip().split("\t")[2].split()
    assert not (set(items) & seen)


def test_recommend_matches_brute_force_top_k(pipeline, capsys):
    # k above most users' candidate pools; a repeated and an unknown id
    _, cfg = pipeline
    from waveletcf.config import resolve

    train, _, _, _, trace = cli._load_trained(resolve(cfg, []))
    seen = train.items_by_user()
    asked = ["u0", "u7", "nobody", "u7", "u59", "u31"]
    k = 25
    assert main(
        ["recommend", "--config", cfg, "--users", ",".join(asked), "--k", str(k)]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(asked)
    short = 0
    for uid, line in zip(asked, lines):
        if uid == "nobody":
            assert line == "nobody\terror\tunknown user id"
            continue
        u = train.user_index[uid]
        scores = model.score_user(trace, u)
        banned = set(seen[u].tolist())
        expected = sorted(
            (i for i in range(train.num_items) if i not in banned),
            key=lambda i: (-scores[i], i),
        )[:k]
        short += len(expected) < k
        items = " ".join(train.item_ids[i] for i in expected)
        assert line == f"{uid}\tok\t{items}"
    assert short > 0


def test_cold_start_rows(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    code = main(
        [
            "cold-start",
            "--config",
            cfg,
            "--set",
            "cold_start_caps=3,6",
            "--set",
            "max_epochs=2",
            "--set",
            "width=8",
            "--set",
            "q=500",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    # a clamped q warns here as in `spectral`
    assert captured.err.count("clamping to") == 2
    lines = captured.out.strip().splitlines()
    assert lines[0].split() == ["cap", "recall@20", "ndcg@20"]
    assert len(lines) == 3
    assert lines[1].split()[0] == "3" and lines[2].split()[0] == "6"


def test_cold_start_table_names_its_cutoff(pipeline, capsys):
    # without 20 among k_values the rows hold the largest k, and so does
    # the header
    _, cfg = pipeline
    code = main(
        ["cold-start", "--config", cfg, "--set", "k_values=10",
         "--set", "cold_start_caps=3", "--set", "max_epochs=1",
         "--set", "width=8"]
    )
    captured = capsys.readouterr()
    assert code == 0
    header, row = captured.out.strip().splitlines()
    assert header.split() == ["cap", "recall@10", "ndcg@10"]
    recall = captured.err.split("recall@10 ")[1].split()[0]
    assert row.split()[1] == recall


def test_pipeline_is_bitwise_reproducible(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    blobs = []
    reports = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"{run}.ckpt"
        assert main(["train", "--config", cfg, "--set", f"checkpoint={ckpt}"]) == 0
        capsys.readouterr()
        assert main(
            ["evaluate", "--config", cfg, "--set", f"checkpoint={ckpt}"]
        ) == 0
        blobs.append(ckpt.read_bytes())
        reports.append(capsys.readouterr().out)
    assert blobs[0] == blobs[1]
    assert reports[0] != ""
    # the config echo names the per-run checkpoint path; ignore those lines
    strip = lambda r: [l for l in r.splitlines() if "checkpoint=" not in l]
    assert strip(reports[0]) == strip(reports[1])


def test_threads_pinned_from_resolved_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threads=3\nseed=1\n")
    monkeypatch.delenv("WAVELETCF_THREADS", raising=False)
    for var in cli.THREAD_ENV_VARS:
        monkeypatch.setenv(var, "9")

    def pinned(*argv):
        # train fails after resolution: no dataset is configured
        assert main(["train", *argv]) == 2
        assert "'dataset' is required" in capsys.readouterr().err
        values = {os.environ[var] for var in cli.THREAD_ENV_VARS}
        assert len(values) == 1
        return values.pop()

    argv = ["--config", str(cfg)]
    assert pinned(*argv) == "3"
    monkeypatch.setenv("WAVELETCF_THREADS", "5")
    assert pinned(*argv) == "5"
    assert pinned(*argv, "--set", "threads=7") == "7"
    assert pinned() == "5"
    # argparse accepts the --se prefix, and the last --set wins
    assert pinned("--set", "threads=4", "--se", "threads=1") == "1"
    # a config that does not resolve pins nothing
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "9")
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == "9"


def test_config_resolution_imports_no_numpy():
    # threads are pinned after resolution, so resolving must not load numpy
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAVELETCF_")}
    env["PYTHONPATH"] = src
    code = (
        "import json, sys\n"
        "import waveletcf.cli, waveletcf.config\n"
        "waveletcf.config.resolve(None, [])\n"
        "print(json.dumps(sorted(m for m in sys.modules if 'numpy' in m)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_pin_threads_sets_blas_vars():
    saved = {var: os.environ.get(var) for var in cli.THREAD_ENV_VARS}
    try:
        cli._pin_threads(2)
        assert all(os.environ[var] == "2" for var in cli.THREAD_ENV_VARS)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def test_env_override_reaches_training(pipeline, tmp_path, capsys, monkeypatch):
    _, cfg = pipeline
    monkeypatch.setenv("WAVELETCF_WIDTH", "8")
    monkeypatch.setenv("WAVELETCF_CHECKPOINT", str(tmp_path / "env.ckpt"))
    assert main(["train", "--config", cfg, "--set", "max_epochs=1"]) == 0
    assert "width=8" in capsys.readouterr().out.splitlines()[0]
