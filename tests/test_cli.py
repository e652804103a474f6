"""End-to-end tests of the command-line pipeline and its exit codes."""

import os

import numpy as np
import pytest

from waveletcf import cli, model
from waveletcf.cli import _peek_threads, main
from waveletcf.datasets import synthetic_two_block

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
    assert main(args) == 2
    capsys.readouterr()
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


def test_peek_threads_precedence(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("threads=3\nseed=1\n")
    argv = ["train", "--config", str(cfg)]
    old = os.environ.pop("WAVELETCF_THREADS", None)
    try:
        assert _peek_threads(argv) == 3
        os.environ["WAVELETCF_THREADS"] = "5"
        assert _peek_threads(argv) == 5
        assert _peek_threads(argv + ["--set", "threads=7"]) == 7
        assert _peek_threads(["train"]) == 5
    finally:
        if old is None:
            os.environ.pop("WAVELETCF_THREADS", None)
        else:
            os.environ["WAVELETCF_THREADS"] = old
    assert _peek_threads(["train", "--config", "/missing.cfg"]) == 1


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
