"""End-to-end tests of the command-line pipeline and its exit codes."""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import synthetic_two_block

from waveletcf import bundles, cli, model, spectral
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
    ["x1\t2", "1", "1\t2\t3", "99999999999999999999\t1", "", "1_0\t2", "\uff11\t2",
     # the pair it replaces, spelled otherwise than `persist` writes it
     "0{u}\t{i}", "+{u}\t{i}", " {u}\t{i}", "{u}\t{i} ", "{u} \t{i}", "-1\t2"],
)
def test_malformed_pair_line_is_a_data_error(pipeline, tmp_path, capsys, line):
    root, cfg = pipeline
    lines = (root / "data.ds").read_text(encoding="utf-8").split("\n")
    u, i = lines[2].split("\t")
    lines[2] = line.format(u=u, i=i)
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


@pytest.mark.parametrize("setting", ["eig_tol=nan", "t=inf", "grid_t_values=0.5,nan"])
def test_non_finite_float_is_a_config_error(pipeline, capsys, setting):
    _, cfg = pipeline
    assert main(["spectral", "--config", cfg, "--set", setting]) == 2
    key = setting.split("=")[0]
    assert f"config key '{key}': cannot parse" in capsys.readouterr().err


def test_unreachable_eig_tol_exits_4(pipeline, tmp_path, capsys):
    # q = 4 < 40 items: ARPACK runs, and restarts, on the 40-item Gram
    _, cfg = pipeline
    args = ["--set", "eig_tol=1e-300", "--set", "q=4",
            "--set", f"spectral_cache={tmp_path / 'spec.bundle'}"]
    assert main(["spectral", "--config", cfg, *args]) == 4
    assert "eigenpairs miss tol=1e-300" in capsys.readouterr().err
    assert not (tmp_path / "spec.bundle").exists()


@pytest.mark.parametrize(
    "command",
    [["evaluate"], ["recommend", "--users", "u3,u5", "--k", "100000"], ["spectral"]],
    ids=["evaluate", "recommend", "spectral-cache-hit"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(pipeline, command):
    # stdout's reader is gone before the command writes, as after `| head`:
    # exit 1, and nothing on stderr, neither a traceback nor an
    # `Exception ignored` line from the flush at exit
    _, cfg = pipeline
    src = str(Path(__file__).resolve().parent.parent / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "waveletcf", *command, "--config", cfg],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1, err
    # the fixture's fit stops at its bound, which `spectral` notes
    assert [line for line in err.splitlines() if not line.startswith("note: ")] == []


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_spectral_cache_hit(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    assert main(["spectral", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "cache hit" in captured
    assert "Q 64" in captured
    assert "kappa " in captured
    assert "transformed std " in captured
    # the cache holds lambda and Phi only, so a hit refits kappa: it prints
    # what a solve prints, on a copy that leaves the fixture's cache as it was
    copy = tmp_path / "spec.bundle"
    copy.write_bytes((root / "spec.bundle").read_bytes())
    assert main(["spectral", "--config", cfg, "--set", f"spectral_cache={copy}",
                 "--force"]) == 0
    hit, *shown = captured.splitlines()
    *solved, wrote = capsys.readouterr().out.splitlines()
    assert (hit, wrote) == (f"cache hit {root / 'spec.bundle'}", f"wrote {copy}")
    assert shown == solved


def test_spectral_parameter_change_needs_force(pipeline, capsys):
    root, cfg = pipeline
    # the refusal names the first differing key with both values
    assert main(["spectral", "--config", cfg, "--set", "eig_tol=1e-6"]) == 2
    err = capsys.readouterr().err
    assert "the saved cache has eig_tol=1e-09, this run has eig_tol=1e-06" in err
    assert main(["spectral", "--config", cfg, "--set", "q=32"]) == 2
    err = capsys.readouterr().err
    assert "spec.bundle exists with different parameters" in err
    assert "the saved cache has q=64, this run has q=32" in err
    assert "pass --force to recompute" in err
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


def test_spectral_notes_a_fit_stopped_at_its_bound(pipeline, tmp_path, capsys):
    # the planted two-block graph's likelihood still rises at kappa = 5
    root, cfg = pipeline
    out = tmp_path / "spec.bundle"
    assert main(["spectral", "--config", cfg, "--set", f"spectral_cache={out}"]) == 0
    captured = capsys.readouterr()
    notes = [line for line in captured.err.splitlines() if line.startswith("note: ")]
    assert len(notes) == 1
    assert "stopped at its bound (kappa 5.000000)" in notes[0]
    assert "filter response g in [" in notes[0] and "of 64 below 1e-6" in notes[0]
    # stdout and the cache bytes are those of the fixture's run
    assert "note:" not in captured.out and "kappa 5.000000" in captured.out
    assert out.read_bytes() == (root / "spec.bundle").read_bytes()
    # a cache hit refits kappa from the stored eigenvalues and notes it too
    assert main(["spectral", "--config", cfg, "--set", f"spectral_cache={out}"]) == 0
    hit = capsys.readouterr()
    assert "cache hit" in hit.out
    assert [line for line in hit.err.splitlines() if line.startswith("note: ")] == notes


def test_spectral_fit_inside_its_range_adds_no_note(tmp_path, capsys):
    # spectrum {0, 1, 2}: the likelihood peaks at kappa ~0.58
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
    captured = capsys.readouterr()
    assert "kappa 0.577" in captured.out
    assert "note:" not in captured.err
    assert main(["spectral", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "cache hit" in captured.out and "kappa 0.577" in captured.out
    assert "note:" not in captured.err


def test_spectral_force_rebuilds_a_matching_cache(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    out = tmp_path / "spec.bundle"
    out.write_bytes((root / "spec.bundle").read_bytes())
    os.utime(out, (0, 0))
    assert main(
        ["spectral", "--config", cfg, "--set", f"spectral_cache={out}", "--force"]
    ) == 0
    captured = capsys.readouterr().out
    assert "cache hit" not in captured and f"wrote {out}" in captured
    assert out.stat().st_mtime > 0
    assert out.read_bytes() == (root / "spec.bundle").read_bytes()


def test_spectral_cache_of_an_older_version(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "spec.bundle")
    old = tmp_path / "old.spec"
    bundles.save_bundle(old, {**meta, "version": 2}, arrays)
    override = ["--set", f"spectral_cache={old}"]
    capsys.readouterr()
    assert main(["train", "--config", cfg, *override,
                 "--set", f"checkpoint={tmp_path / 'x.ckpt'}"]) == 3
    assert "spectral-cache version 2 unsupported (expected 3)" in capsys.readouterr().err
    assert main(["spectral", "--config", cfg, *override]) == 2
    assert "pass --force" in capsys.readouterr().err
    assert main(["spectral", "--config", cfg, *override, "--force"]) == 0
    assert old.read_bytes() == (root / "spec.bundle").read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambdas", "short"),
        ("lambdas", "above 2"),
        ("lambdas", "nan"),
        ("phi", "1-D"),
        ("phi", "one column"),
        ("lambdas", "int64"),
        ("phi", "float32"),
    ],
)
def test_corrupt_spectral_cache_is_a_data_error(
    pipeline, tmp_path, capsys, field, value
):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "spec.bundle")
    lambdas, phi = arrays["lambdas"], arrays["phi"]
    expected = "must"
    if value in ("int64", "float32"):
        arrays = {**arrays, field: arrays[field].astype(value)}
        expected = f"has dtype {value}, expected float64"
    elif value == "short":
        arrays = {**arrays, "lambdas": lambdas[:-1]}
    elif value == "above 2":
        arrays = {**arrays, "lambdas": np.append(lambdas[:-1], 2.5)}
    elif value == "nan":
        arrays = {**arrays, "lambdas": np.append(lambdas[:-1], np.nan)}
    elif value == "1-D":
        arrays = {**arrays, "phi": phi[:, 0]}
    else:
        arrays = {**arrays, "phi": phi[:, :1], "lambdas": lambdas[:1]}
    damaged = tmp_path / "damaged.spec"
    bundles.save_bundle(damaged, meta, arrays)
    capsys.readouterr()
    code = main(["train", "--config", cfg, "--set", f"spectral_cache={damaged}",
                 "--set", f"checkpoint={tmp_path / 'x.ckpt'}"])
    assert code == 3
    assert f"{damaged}: '{field}' {expected}" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


@pytest.mark.parametrize("field, dtype", [("lambdas", "int64"), ("phi", "float32")])
def test_spectral_cache_of_another_dtype_is_refused(
    pipeline, tmp_path, capsys, field, dtype
):
    # scoring refuses the cache as `train` does (see the test above);
    # `spectral` offers a recompute, as for any cache that does not match
    # its run
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "spec.bundle")
    arrays[field] = arrays[field].astype(dtype)
    damaged = tmp_path / "damaged.spec"
    bundles.save_bundle(damaged, meta, arrays)
    before = damaged.read_bytes()
    args = ["--config", cfg, "--set", f"spectral_cache={damaged}",
            "--set", f"report={tmp_path / 'x.report'}"]
    message = f"{damaged}: '{field}' has dtype {dtype}, expected float64"
    capsys.readouterr()
    for command in (["evaluate"], ["recommend", "--users", "u3"]):
        assert main([*command, *args]) == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x.report").exists()
    assert main(["spectral", *args]) == 2
    err = capsys.readouterr().err
    assert f"{damaged} does not match this run ({message})" in err
    assert damaged.read_bytes() == before


def test_spectral_cache_without_a_row_per_node_is_refused(pipeline, tmp_path, capsys):
    # a cache whose eigenvectors lost a row is refused where it is read,
    # naming the file and both counts, before any training or scoring
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "spec.bundle")
    n = len(arrays["phi"])
    short = tmp_path / "short.spec"
    bundles.save_bundle(short, meta, {**arrays, "phi": arrays["phi"][:-1]})
    before = short.read_bytes()
    args = ["--config", cfg, "--set", f"spectral_cache={short}",
            "--set", f"report={tmp_path / 'x.report'}"]
    message = f"{short}: 'phi' has {n - 1} rows, expected {n}, one per node"
    capsys.readouterr()
    for command in (["train", "--set", f"checkpoint={tmp_path / 'x.ckpt'}"],
                    ["evaluate"], ["recommend", "--users", "u3"]):
        assert main([*command, *args]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
    assert main(["spectral", *args]) == 2
    err = capsys.readouterr().err
    assert f"{short} does not match this run ({message}); pass --force" in err
    assert short.read_bytes() == before
    assert not (tmp_path / "x.ckpt").exists()
    assert not (tmp_path / "x.report").exists()


@pytest.mark.parametrize("kind", ["user", "item"])
def test_dataset_with_a_repeated_id_is_a_data_error(pipeline, tmp_path, capsys, kind):
    root, cfg = pipeline
    lines = (root / "data.ds").read_text().split("\n")
    at = lines.index(f"#{kind}s") + 1
    lines[at + 1] = lines[at]
    repeated = tmp_path / "repeated.ds"
    repeated.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["recommend", "--config", cfg, "--set", f"dataset={repeated}",
                 "--users", lines[at]]) == 3
    captured = capsys.readouterr()
    assert f"repeated {kind} id {lines[at]!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kappa", ["fitted", 5.5, "5"])
def test_spectral_cache_with_a_stored_kappa_is_refitted(
    pipeline, tmp_path, capsys, kappa
):
    # earlier builds stored the fitted kappa; the loader ignores it and
    # refits from the stored eigenvalues, whatever value it holds
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "spec.bundle")
    want = spectral.boxcox_fit(1.0 + arrays["lambdas"])
    old = tmp_path / "old.spec"
    bundles.save_bundle(
        old, {**meta, "kappa": want.kappa if kappa == "fitted" else kappa}, arrays
    )
    _, got, _ = spectral.load_spectral_cache(old)
    for field in fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name))
    blobs = []
    for cache in (root / "spec.bundle", old):
        ckpt = tmp_path / f"{cache.stem}.ckpt"
        assert main(["train", "--config", cfg, "--set", "max_epochs=2",
                     "--set", f"spectral_cache={cache}",
                     "--set", f"checkpoint={ckpt}"]) == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]


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
    assert "seed=11" in header
    assert "dataset_hash=" in header
    epoch_lines = [
        line for line in captured.splitlines() if line and line[0].isdigit()
    ]
    assert len(epoch_lines) == 4
    assert all(len(line.split()) == 5 for line in epoch_lines)

    best = [line.split() for line in captured.splitlines() if line.startswith("best epoch")]
    assert len(best) == 1 and best[0][3] == "val_recall@20"
    assert 0 <= int(best[0][2]) <= 4
    assert 0.0 <= float(best[0][4]) <= 1.0

    # the header holds only what a reader reads: a new unread key fails here
    _, params, meta = model.load_checkpoint(ckpt, 60, 40, 64)
    assert sorted(meta) == ["basis", "config", "dataset_hash", "kind", "version"]
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


@pytest.mark.parametrize(
    "setting, saved",
    [("q=32", "q=64, this run has q=32"),
     ("eig_tol=0.001", "eig_tol=1e-09, this run has eig_tol=0.001")],
)
def test_cache_readers_apply_the_reuse_rule(pipeline, capsys, setting, saved):
    # train, evaluate and recommend refuse a cache that spectral would
    # refuse to reuse for the same run, before any training or scoring
    root, cfg = pipeline
    before = (root / "model.ckpt").read_bytes()
    for command in (["train", "--force"], ["evaluate"], ["recommend", "--users", "u3"]):
        assert main([*command, "--config", cfg, "--set", setting]) == 2
        captured = capsys.readouterr()
        assert f"exists with different parameters: the saved cache has {saved}" in captured.err
        assert "rerun `spectral --force`" in captured.err
        assert captured.out == ""
    assert (root / "model.ckpt").read_bytes() == before


def test_an_empty_path_means_unset(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    # a required path left empty exits 2 before any epoch
    assert main(["train", "--config", cfg, "--set", "checkpoint="]) == 2
    captured = capsys.readouterr()
    assert "config key 'checkpoint' is required" in captured.err
    assert captured.out == ""
    # an optional one is not written
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--set", f"checkpoint={ckpt}",
                 "--set", "train_state=", "--set", "max_epochs=1"]) == 0
    assert list(tmp_path.iterdir()) == [ckpt]


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
    best_fields = dict(kv.split("=") for kv in best[0].split()[2:6])
    assert (float(best_fields["lr"]), float(best_fields["t"])) in [
        (lr, t) for lr in (0.01, 0.05) for t in (0.5, 1.0)
    ]
    recalls = [dict(kv.split("=") for kv in line.split()[1:])["recall@20"] for line in runs]
    assert float(best_fields["recall@20"]) == max(map(float, recalls))
    # the checkpoint is the winning cell's: a plain train of that cell writes its bytes
    plain = tmp_path / "plain.ckpt"
    assert main(["train", "--config", cfg, "--set", f"checkpoint={plain}",
                 "--set", f"learning_rate={best_fields['lr']}",
                 "--set", f"t={best_fields['t']}", "--set", "max_epochs=2"]) == 0
    assert plain.read_bytes() == ckpt.read_bytes()


@pytest.mark.parametrize("refused", [["--resume"], ["--set", "train_state={state}"]],
                         ids=["resume", "train_state"])
def test_grid_search_saves_and_resumes_no_train_state(pipeline, tmp_path, capsys, refused):
    _, cfg = pipeline
    # refused before any data is read: the dataset need not exist
    code = main(["train", "--config", cfg, "--set", f"dataset={tmp_path / 'no.ds'}",
                 "--set", f"checkpoint={tmp_path / 'grid.ckpt'}",
                 "--set", "grid_learning_rates=0.01,0.05", "--set", "grid_t_values=0.5",
                 *(arg.format(state=tmp_path / "grid.state") for arg in refused)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unset train_state (--set train_state=)" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_power_transform_is_fitted_once_per_decomposition(
    pipeline, tmp_path, monkeypatch, capsys
):
    _, cfg = pipeline
    fit, calls = spectral.boxcox_fit, []
    monkeypatch.setattr(spectral, "boxcox_fit", lambda v: calls.append(len(v)) or fit(v))
    same = ["--config", cfg, "--set", f"checkpoint={tmp_path / 'grid.ckpt'}"]
    assert main(["train", *same, "--set", "max_epochs=1",
                 "--set", "grid_learning_rates=0.01,0.05",
                 "--set", "grid_t_values=0.5,1.0"]) == 0
    assert "(4 runs)" in capsys.readouterr().out
    assert calls == [64]
    assert main(["evaluate", *same]) == 0
    assert calls == [64, 64]


def test_train_resume_round_trip(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    ckpt = tmp_path / "resume.ckpt"
    state = tmp_path / "state.bundle"
    # at 256 triples a batch an epoch takes several Adam steps, so the
    # resumed run must restore Adam's step count, not just the epoch
    batch = ["--set", "batch_size=256"]
    args = [*batch, "--set", f"checkpoint={ckpt}", "--set", f"train_state={state}"]
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
        ["train", "--config", cfg, "--set", "max_epochs=4", *batch, "--set",
         f"checkpoint={fresh}"]
    ) == 0
    _, resumed_params, _ = model.load_checkpoint(ckpt, 60, 40, 64)
    _, fresh_params, _ = model.load_checkpoint(fresh, 60, 40, 64)
    for (_, a), (_, b) in zip(resumed_params.tensors(), fresh_params.tensors()):
        assert np.array_equal(a, b)


def test_resume_after_sigkill_matches_an_uninterrupted_run(pipeline, tmp_path):
    # a real crash: the train process is killed mid-run, without warning,
    # once its first epoch's state exists; the resumed run must end on
    # the uninterrupted run's bytes and leave no temporary file behind. At
    # 256 triples a batch an epoch takes several Adam steps, so a resume
    # must restore Adam's step count as epoch times steps per epoch
    _, cfg = pipeline
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def train(name, *extra):
        return [sys.executable, "-m", "waveletcf", "train", "--config", cfg,
                "--set", "max_epochs=300", "--set", "patience=1000",
                "--set", "batch_size=256",
                "--set", f"checkpoint={tmp_path / name}.ckpt",
                "--set", f"train_state={tmp_path / name}.state", *extra]

    proc = subprocess.Popen(train("killed"), env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    state = tmp_path / "killed.state"
    deadline = time.monotonic() + 60
    while not state.exists() and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.001)
    proc.send_signal(signal.SIGKILL)
    assert proc.wait() == -signal.SIGKILL, "training ended before the kill"
    assert not (tmp_path / "killed.ckpt").exists()

    for command in (train("killed", "--resume"), train("whole")):
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    for suffix in (".ckpt", ".state"):
        killed = (tmp_path / f"killed{suffix}").read_bytes()
        assert killed == (tmp_path / f"whole{suffix}").read_bytes(), suffix
    assert not list(tmp_path.glob("*.tmp"))


def test_resume_without_state_key(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    for unset in ([], ["--set", "train_state="]):
        code = main(
            ["train", "--config", cfg, "--resume", "--set",
             f"checkpoint={tmp_path / 'r.ckpt'}", *unset]
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
        ("spectral_cache", "phi"),
        ("checkpoint", "basis"),
        ("checkpoint", "width"),
        ("checkpoint", "x0"),
        ("train_state", "epoch"),
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


def test_checkpoint_scored_against_a_cache_of_another_q(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    other = tmp_path / "q32.spec"
    assert main(["spectral", "--config", cfg, "--set", "q=32",
                 "--set", f"spectral_cache={other}"]) == 0
    capsys.readouterr()
    override = ["--set", f"spectral_cache={other}", "--set", "q=32"]
    for command in (["evaluate"], ["recommend", "--users", "u3"]):
        assert main([*command, "--config", cfg, *override]) == 3
        assert f"{root / 'model.ckpt'}: 'theta0' has shape (64,), expected (32,)" in (
            capsys.readouterr().err
        )


def test_a_re_solved_cache_refuses_the_trained_model(pipeline, tmp_path, capsys):
    # at q = 8 the solve is iterative, so its eigenvectors move with
    # eig_tol: a model trained on one eigenbasis is neither scored nor
    # resumed on another of the same q and dataset
    _, cfg = pipeline
    spec, ckpt, state = (tmp_path / name for name in ("q8.spec", "q8.ckpt", "q8.state"))
    args = ["--config", cfg, "--set", "q=8", "--set", f"spectral_cache={spec}",
            "--set", f"checkpoint={ckpt}", "--set", f"train_state={state}"]
    assert main(["spectral", *args]) == 0
    assert main(["train", *args, "--set", "max_epochs=2"]) == 0
    trained_on = spectral.load_spectral_cache(spec)[0]
    args += ["--set", "eig_tol=1e-4"]
    assert main(["spectral", *args, "--force"]) == 0
    assert not np.array_equal(spectral.load_spectral_cache(spec)[0].phi, trained_on.phi)
    before = (ckpt.read_bytes(), state.read_bytes())
    capsys.readouterr()
    for command, saved, fix in (
        (["evaluate"], f"{ckpt}: the saved checkpoint", "; rerun `train`"),
        (["recommend", "--users", "u3"], f"{ckpt}: the saved checkpoint", "; rerun `train`"),
        (["train", "--resume"], f"{state}: the saved state", "; a resume may change"),
    ):
        assert main([*command, *args]) == 2
        captured = capsys.readouterr()
        assert f"{saved} has basis='{trained_on.fingerprint}', this run has basis=" in (
            captured.err
        )
        assert fix in captured.err
        assert captured.out == ""  # not even `train`'s header
    assert (ckpt.read_bytes(), state.read_bytes()) == before


def test_unwritable_output_is_a_data_error(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    missing = tmp_path / "no" / "such" / "dir" / "x.ds"
    assert main(["ingest", "--config", cfg, "--set", f"dataset={missing}"]) == 3
    assert f"cannot write {missing}" in capsys.readouterr().err
    report = tmp_path / "report"
    report.mkdir()
    args = ["evaluate", "--config", cfg, "--set", f"report={report}", "--force"]
    assert main(args) == 3
    assert f"cannot write {report}" in capsys.readouterr().err
    assert report.is_dir() and sorted(tmp_path.iterdir()) == [report]


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
    save_checkpoint(rogue, config, init_params(config, 60, 40, 64), "0" * 64, "0" * 64)
    code = main(["evaluate", "--config", cfg, "--set", f"checkpoint={rogue}"])
    assert code == 3
    assert "checkpoint" in capsys.readouterr().err


# the pipeline fixture trains 3 layers: a stored config of one layer more
# lacks the weights of a fourth, one of one layer fewer leaves the third's
@pytest.mark.parametrize(
    "shift, expected",
    [(1, "missing key 'w3'"), (-1, "holds array(s) 'theta2', 'w2' that its reader")],
    ids=["1", "-1"],
)
def test_checkpoint_layer_count_mismatch_is_a_data_error(
    pipeline, tmp_path, capsys, shift, expected
):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    meta["config"]["layers"] += shift
    bad = tmp_path / "layers.ckpt"
    bundles.save_bundle(bad, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={bad}"]) == 3
    assert f"{bad}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact, extra",
    [
        ("spectral_cache", {"kappa": "lambdas"}),
        ("checkpoint", {"w3": "w2", "theta3": "theta2"}),
        ("train_state", {"cur_w9": "cur_w0"}),
    ],
    ids=["spectral_cache-kappa", "checkpoint-w3-theta3", "train_state-cur_w9"],
)
def test_artifact_with_an_array_its_reader_does_not_read_is_a_data_error(
    pipeline, tmp_path, capsys, artifact, extra
):
    # each stray array is a copy of one the reader does read, so only its
    # name tells it apart
    root, cfg = pipeline
    ckpt, state = tmp_path / "r.ckpt", tmp_path / "r.state"
    resume = ["train", "--config", cfg, "--set", f"checkpoint={ckpt}",
              "--set", f"train_state={state}"]
    if artifact == "train_state":
        assert main([*resume, "--set", "max_epochs=1"]) == 0
        source, command = state, [*resume, "--resume", "--set", "max_epochs=2"]
    else:
        name = "spec.bundle" if artifact == "spectral_cache" else "model.ckpt"
        source, command = root / name, ["evaluate", "--config", cfg]
    meta, arrays = bundles.load_bundle(source)
    stray = tmp_path / "stray.bundle"
    bundles.save_bundle(stray, meta, {**arrays, **{k: arrays[v] for k, v in extra.items()}})
    before = [path.read_bytes() for path in (stray, *tmp_path.glob("r.*"))]
    capsys.readouterr()
    assert main([*command, "--set", f"{artifact}={stray}"]) == 3
    captured = capsys.readouterr()
    names = ", ".join(map(repr, sorted(extra)))
    assert f"{stray}: holds array(s) {names} that its reader does not read" in captured.err
    assert [path.read_bytes() for path in (stray, *tmp_path.glob("r.*"))] == before


# the pipeline fixture trains at width 16; each damage leaves every other
# tensor as it is
@pytest.mark.parametrize(
    "name, damage, expected",
    [
        ("w0", lambda a: np.hstack([a, a[:, :1]]), "shape (16, 17), expected (16, 16)"),
        ("y0", lambda a: a[:, :8], "shape (40, 8), expected (40, 16)"),
        ("theta0", lambda a: a[:, None], "shape (64, 1), expected (64,)"),
        ("x0", lambda a: a.astype(np.int64), "dtype int64, expected float64"),
    ],
    ids=["w0-16x17", "y0-8-columns", "theta0-2d", "x0-int64"],
)
def test_checkpoint_with_mismatched_shapes_is_a_data_error(
    pipeline, tmp_path, capsys, name, damage, expected
):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    arrays[name] = damage(arrays[name])
    bad = tmp_path / "shape.ckpt"
    bundles.save_bundle(bad, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={bad}"]) == 3
    assert f"{bad}: '{name}' has {expected}" in capsys.readouterr().err


def test_checkpoint_width_must_match_its_config(pipeline, tmp_path, capsys):
    root, cfg = pipeline
    meta, arrays = bundles.load_bundle(root / "model.ckpt")
    for name in list(arrays):
        if name[0] in "xy":
            arrays[name] = arrays[name][:, :8]
        elif name[0] == "w":
            arrays[name] = arrays[name][:8, :8]
    bad = tmp_path / "narrow.ckpt"
    bundles.save_bundle(bad, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={bad}"]) == 3
    assert f"{bad}: 'x0' has shape (60, 8), expected (60, 16)" in (
        capsys.readouterr().err
    )


# a train state at width 16 and Q = 64; the gate case cuts one tensor
# under every prefix, so the first the resume reads is named
@pytest.mark.parametrize(
    "names, damage, expected",
    [
        (["cur_w0"], lambda a: np.hstack([a, a[:, :1]]),
         "'cur_w0' has shape (16, 17), expected (16, 16)"),
        (["adam_m_w0"], lambda a: np.hstack([a, a[:, :1]]),
         "'adam_m_w0' has shape (16, 17), expected (16, 16)"),
        ([f"{prefix}theta0" for prefix in ("cur_", "best_", "adam_m_", "adam_v_")],
         lambda a: a[:-1], "'cur_theta0' has shape (63,), expected (64,)"),
        (["adam_m_x0"], lambda a: a.astype(np.int64),
         "'adam_m_x0' has dtype int64, expected float64"),
    ],
    ids=["cur_w0-16 x 16", "adam_m_w0-(16, 16)", "theta0-63", "adam_m_x0-int64"],
)
def test_resume_from_a_state_with_mismatched_shapes_is_a_data_error(
    pipeline, tmp_path, capsys, names, damage, expected
):
    _, cfg = pipeline
    state = tmp_path / "state.bundle"
    args = ["train", "--config", cfg, "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
            "--set", f"train_state={state}"]
    assert main([*args, "--set", "max_epochs=1"]) == 0
    meta, arrays = bundles.load_bundle(state)
    for name in names:
        arrays[name] = damage(arrays[name])
    bundles.save_bundle(state, meta, arrays)
    capsys.readouterr()
    assert main([*args, "--resume", "--set", "max_epochs=2"]) == 3
    assert f"{state}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("epoch", "1", "'epoch' must be of type int, got '1'"),
        ("best_recall", None, "'best_recall' must be of type float, got None"),
        ("rng_state", "{}", "'rng_state' is not a generator state"),
        ("run_key", ["x"], "'run_key' must be an object, got ['x']"),
        # counters of the right types that no run leaves after epoch 1
        ("best_epoch", 2, "'best_epoch' must be in [0, epoch] = [0, 1], got 2"),
    ],
)
def test_resume_from_a_state_with_malformed_metadata_is_a_data_error(
    pipeline, tmp_path, capsys, key, value, expected
):
    _, cfg = pipeline
    state = tmp_path / "state.bundle"
    args = ["train", "--config", cfg, "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
            "--set", f"train_state={state}"]
    assert main([*args, "--set", "max_epochs=1"]) == 0
    meta, arrays = bundles.load_bundle(state)
    meta[key] = value
    bundles.save_bundle(state, meta, arrays)
    capsys.readouterr()
    assert main([*args, "--resume", "--set", "max_epochs=2"]) == 3
    assert f"{state}: {expected}" in capsys.readouterr().err


def test_resume_of_a_run_that_stopped_early_trains_no_further(
    pipeline, tmp_path, capsys
):
    _, cfg = pipeline
    ckpt, state = tmp_path / "r.ckpt", tmp_path / "state.bundle"
    args = ["train", "--config", cfg, "--set", f"checkpoint={ckpt}",
            "--set", f"train_state={state}", "--set", "max_epochs=50",
            "--set", "patience=0"]
    assert main(args) == 0
    counters = bundles.load_bundle(state)[0]
    assert counters["epoch"] - counters["best_epoch"] > 0  # stopped early at patience 0
    before = ckpt.read_bytes(), state.read_bytes()
    capsys.readouterr()
    assert main([*args, "--resume"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line[:1].isdigit()] == []
    assert (ckpt.read_bytes(), state.read_bytes()) == before


@pytest.mark.parametrize(
    "key, value",
    [
        ("width", 0),
        ("layers", "3"),
        ("exponent_mode", "weird"),
        ("t", True),
        ("width", 2.5),
        ("t", float("nan")),
        ("t", float("inf")),
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
    meta["version"] = 2
    old_ckpt = tmp_path / "v2.ckpt"
    bundles.save_bundle(old_ckpt, meta, arrays)
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--set", f"checkpoint={old_ckpt}"]) == 3
    assert f"{old_ckpt}: model-checkpoint version 2 unsupported" in (
        capsys.readouterr().err
    )

    state = tmp_path / "old.state"
    args = ["train", "--config", cfg, "--set", f"checkpoint={tmp_path / 'r.ckpt'}",
            "--set", f"train_state={state}"]
    assert main([*args, "--set", "max_epochs=1"]) == 0
    meta, arrays = bundles.load_bundle(state)
    # version 4 stored `q`, `since_best` and `adam_step` beside its counters
    for version in (3, 4):
        bundles.save_bundle(state, {**meta, "version": version}, arrays)
        capsys.readouterr()
        assert main([*args, "--resume"]) == 3
        assert f"{state}: train-state version {version} unsupported (expected 5)" in (
            capsys.readouterr().err
        )


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


@pytest.mark.parametrize("users", ["", ",", " , "])
def test_recommend_refuses_a_list_without_ids(pipeline, capsys, users):
    _, cfg = pipeline
    assert main(["recommend", "--config", cfg, "--users", users]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--users names no user id" in captured.err


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
        spectral.load_spectral_cache(tmp_path / "toy.spec")[0].fingerprint,
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


def test_recommend_with_only_unknown_users(pipeline, capsys):
    _, cfg = pipeline
    assert main(["recommend", "--config", cfg, "--users", "nobody,none"]) == 0
    out = capsys.readouterr().out
    assert out == "nobody\terror\tunknown user id\nnone\terror\tunknown user id\n"


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


def test_cold_start_vacuous_cap_is_train_then_evaluate(pipeline, tmp_path, capsys):
    # the cap-1000 split is the plain split, so the cold-start row is the
    # stage pipeline's report at k = 20
    _, cfg = pipeline
    same = ["--config", cfg, "--set", "max_epochs=2", "--set", "width=8",
            "--set", f"checkpoint={tmp_path / 'plain.ckpt'}"]
    assert main(["cold-start", *same, "--set", "cold_start_caps=1000"]) == 0
    _, row = capsys.readouterr().out.strip().splitlines()
    assert main(["train", *same]) == 0
    capsys.readouterr()
    assert main(["evaluate", *same]) == 0
    report = {
        line.split()[0]: float(line.split()[3])
        for line in capsys.readouterr().out.splitlines()
        if line.split()[1:3] == ["20", "all"]
    }
    assert row.split() == ["1000", f"{report['recall']:.6f}", f"{report['ndcg']:.6f}"]


@pytest.mark.parametrize(
    "refused",
    [["--set", "grid_learning_rates=0.01,0.05", "--set", "grid_t_values=0.5"],
     ["--set", "train_state={state}"]],
    ids=["grid", "train_state"],
)
def test_cold_start_refuses_a_grid_and_a_train_state(pipeline, tmp_path, capsys, refused):
    # each cap trains one model at the run's own rate and t, so neither
    # setting would take effect; refused before any data is read
    _, cfg = pipeline
    code = main(["cold-start", "--config", cfg, "--set", f"dataset={tmp_path / 'no.ds'}",
                 "--set", "cold_start_caps=3",
                 *(arg.format(state=tmp_path / "x.state") for arg in refused)])
    captured = capsys.readouterr()
    assert code == 2
    assert ("drop grid_learning_rates and grid_t_values, and unset train_state "
            "(--set train_state=)") in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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


def test_only_sparse_building_commands_import_scipy(pipeline, tmp_path):
    # scipy is imported where a sparse matrix is built or solved, so the
    # package, ingest, evaluate and recommend load numpy only
    _, cfg = pipeline
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAVELETCF_")}
    env["PYTHONPATH"] = src
    code = (
        "import contextlib, importlib, io, json, pkgutil, sys\n"
        "import waveletcf\n"
        "from waveletcf.cli import main\n"
        "for info in pkgutil.iter_modules(waveletcf.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module('waveletcf.' + info.name)\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([*argv, '--config', sys.argv[1]]) == 0, argv\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = [run('ingest', '--set', 'dataset=' + sys.argv[2]),\n"
        "          run('evaluate'), run('recommend', '--users', 'u3'),\n"
        "          run('spectral', '--set', 'spectral_cache=' + sys.argv[3])]\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "data.ds"),
         str(tmp_path / "spec.bundle")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *quiet, spectral = json.loads(proc.stdout)
    assert quiet == [[], [], []]
    assert "scipy.sparse" in spectral


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
