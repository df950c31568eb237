import json

import numpy as np
import pytest

from sparsehawkes import (
    ModelParams,
    influence_matrix,
    read_checkpoint_full,
    softplus,
    softplus_inv,
    write_checkpoint,
)
from sparsehawkes.cli import main


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main([
        "simulate", "--nodes", "12", "--sequences", "60", "--beta", "1.0",
        "--mu", "0.02", "--horizon", "25", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("fit")
    code = main([
        "train", "--data", str(sim_dir / "cascades.tsv"), "--out", str(out),
        "--dim", "3", "--epochs", "4", "--seed", "2", "--log-every", "10",
    ])
    assert code == 0
    return out


def test_simulate_outputs(sim_dir):
    assert (sim_dir / "cascades.tsv").exists()
    assert (sim_dir / "truth.npz").exists()
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["flags"]["seed"] == 5
    assert manifest["flags"]["rank"] == "full"
    assert manifest["format_versions"]["checkpoint"] == 1
    with np.load(sim_dir / "truth.npz") as z:
        assert z["mu"].shape == (12,)
        assert z["alpha"].shape == (12, 12)
        assert float(z["beta"]) == 1.0


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    flags = [
        "simulate", "--nodes", "8", "--sequences", "30", "--mu", "0.03",
        "--horizon", "15", "--seed", "9", "--out", str(out),
    ]
    assert main(flags) == 0
    first = {
        name: (out / name).read_bytes()
        for name in ("cascades.tsv", "truth.npz", "manifest.json")
    }
    assert main(flags) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_simulate_rejects_zero_sequences(tmp_path, capsys):
    code = main([
        "simulate", "--nodes", "4", "--sequences", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "sequences must be >= 1" in capsys.readouterr().err


def test_simulate_rejects_single_node(tmp_path, capsys):
    code = main([
        "simulate", "--nodes", "1", "--sequences", "5",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "nodes" in capsys.readouterr().err


def test_simulate_bad_rank_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--nodes", "4", "--sequences", "5",
              "--rank", "zero", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_train_outputs(fit_dir):
    ckpt = read_checkpoint_full(fit_dir / "model.ckpt")
    assert ckpt.meta["epochs"] == 4
    assert ckpt.meta["seed"] == 2
    assert ckpt.meta["dim"] == 3
    assert np.isfinite(ckpt.meta["loglik"])
    assert len(ckpt.vocabulary) == ckpt.params.num_entities

    lines = (fit_dir / "report.tsv").read_text().splitlines()
    assert lines[0] == "epoch\tloglik\tseconds"
    assert len(lines) == 5
    lls = [float(line.split("\t")[1]) for line in lines[1:]]
    assert lls[-1] == ckpt.meta["loglik"]

    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["flags"]["threads"] == 1


def test_train_rerun_identical_checkpoint(tmp_path, sim_dir):
    flags = lambda out: [
        "train", "--data", str(sim_dir / "cascades.tsv"), "--out", str(out),
        "--dim", "2", "--epochs", "2", "--seed", "7", "--log-every", "10",
    ]
    assert main(flags(tmp_path / "a")) == 0
    assert main(flags(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
        (tmp_path / "b" / "model.ckpt").read_bytes()


def test_train_dim_zero_is_flag_error(tmp_path, sim_dir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(sim_dir / "cascades.tsv"),
              "--out", str(tmp_path / "x"), "--dim", "0"])
    assert exc.value.code == 2


def test_train_parse_error_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("s1\talice\n")
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "x"),
                 "--epochs", "1"])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_train_missing_file_exits_nonzero(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "absent.tsv"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_divergence_exits_nonzero(tmp_path, sim_dir, capsys):
    code = main([
        "train", "--data", str(sim_dir / "cascades.tsv"),
        "--out", str(tmp_path / "x"), "--dim", "2", "--epochs", "2",
        "--learning-rate", "1e8",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_threads_env_fallback(tmp_path, sim_dir, monkeypatch):
    monkeypatch.setenv("LMHP_THREADS", "2")
    out = tmp_path / "par"
    code = main([
        "train", "--data", str(sim_dir / "cascades.tsv"), "--out", str(out),
        "--dim", "2", "--epochs", "2", "--seed", "3", "--log-every", "10",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["threads"] == 2


def test_train_threads_env_invalid(tmp_path, sim_dir, monkeypatch, capsys):
    monkeypatch.setenv("LMHP_THREADS", "many")
    code = main([
        "train", "--data", str(sim_dir / "cascades.tsv"),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "LMHP_THREADS" in capsys.readouterr().err


def test_eval_zero_rmse_against_own_parameters(tmp_path, sim_dir, fit_dir):
    ckpt = read_checkpoint_full(fit_dir / "model.ckpt")
    params = ckpt.params
    idx = np.array([int(label) for label in ckpt.vocabulary])
    mu_full = np.zeros(12)
    mu_full[idx] = params.mu()
    alpha_full = np.zeros((12, 12))
    alpha_full[np.ix_(idx, idx)] = influence_matrix(params)
    truth_path = tmp_path / "truth.npz"
    np.savez(truth_path, mu=mu_full, beta=np.float64(params.beta()),
             alpha=alpha_full)

    out = tmp_path / "ev"
    code = main([
        "eval", "--checkpoint", str(fit_dir / "model.ckpt"),
        "--data", str(sim_dir / "cascades.tsv"),
        "--truth", str(truth_path), "--out", str(out),
    ])
    assert code == 0
    table = dict(
        line.split("\t")
        for line in (out / "recovery.tsv").read_text().splitlines()[1:]
    )
    assert float(table["rmse_mu"]) == 0.0
    assert float(table["rmse_beta"]) == 0.0
    assert float(table["rmse_alpha"]) == 0.0
    assert np.isfinite(float(table["loglik"]))


def test_eval_against_simulation_truth(tmp_path, sim_dir, fit_dir):
    out = tmp_path / "ev"
    code = main([
        "eval", "--checkpoint", str(fit_dir / "model.ckpt"),
        "--data", str(sim_dir / "cascades.tsv"),
        "--truth", str(sim_dir / "truth.npz"), "--out", str(out),
    ])
    assert code == 0
    table = dict(
        line.split("\t")
        for line in (out / "recovery.tsv").read_text().splitlines()[1:]
    )
    assert float(table["rmse_mu"]) >= 0.0
    assert np.isfinite(float(table["rmse_alpha"]))


def test_eval_without_truth(tmp_path, sim_dir, fit_dir):
    out = tmp_path / "ev"
    code = main([
        "eval", "--checkpoint", str(fit_dir / "model.ckpt"),
        "--data", str(sim_dir / "cascades.tsv"), "--out", str(out),
    ])
    assert code == 0
    table = dict(
        line.split("\t")
        for line in (out / "recovery.tsv").read_text().splitlines()[1:]
    )
    assert table["rmse_mu"] == "nan"
    assert np.isfinite(float(table["loglik"]))


def test_eval_missing_truth_file(tmp_path, sim_dir, fit_dir, capsys):
    code = main([
        "eval", "--checkpoint", str(fit_dir / "model.ckpt"),
        "--data", str(sim_dir / "cascades.tsv"),
        "--truth", str(tmp_path / "absent.npz"), "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_outputs(tmp_path, sim_dir):
    out = tmp_path / "bn"
    code = main([
        "bench", "--data", str(sim_dir / "cascades.tsv"),
        "--repetitions", "2", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bench.tsv").read_text().splitlines()
    assert len(lines) == 3
    engines = {line.split("\t")[0] for line in lines[1:]}
    assert engines == {"dense", "lazy"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["engine"] == "both"


def test_bench_single_engine(tmp_path, sim_dir):
    out = tmp_path / "bn"
    code = main([
        "bench", "--data", str(sim_dir / "cascades.tsv"), "--engine", "lazy",
        "--repetitions", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bench.tsv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("lazy\t")


def planted_checkpoint(path, block=(0, 1, 2), n=9, d=2):
    rng = np.random.default_rng(0)
    theta_u = rng.normal(-4.0, 0.05, size=(n, d))
    for x in block:
        theta_u[x, 0] = 3.0 + 0.1 * x  # strong first-factor activation
    params = ModelParams(
        theta_mu=np.full(n, softplus_inv(0.1)),
        theta_beta=softplus_inv(1.0),
        theta_self=np.full(n, -2.0),
        theta_u=theta_u,
        theta_v=rng.normal(-2.0, 0.1, size=(n, d)),
        dim=d,
    )
    vocab = [f"e{i}" for i in range(n)]
    write_checkpoint(path, params, {"epoch": 1}, vocabulary=vocab)
    return params, vocab


def test_inspect_ranks_planted_block_first(tmp_path):
    ckpt_path = tmp_path / "m.ckpt"
    planted_checkpoint(ckpt_path)
    out = tmp_path / "ins"
    code = main(["inspect", "--checkpoint", str(ckpt_path), "--top", "3",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "factors.tsv").read_text().splitlines()
    assert lines[0] == "factor\trank\tentity\tactivation"
    factor0 = [line.split("\t") for line in lines[1:] if line.startswith("0\t")]
    assert len(factor0) == 3
    assert {row[2] for row in factor0} == {"e0", "e1", "e2"}
    # activations come out sorted and match the parameters
    acts = [float(row[3]) for row in factor0]
    assert acts == sorted(acts, reverse=True)
    assert acts[0] == pytest.approx(float(softplus(3.2)), rel=1e-12)


def test_inspect_alpha_export(tmp_path):
    ckpt_path = tmp_path / "m.ckpt"
    params, vocab = planted_checkpoint(ckpt_path)
    out = tmp_path / "ins"
    code = main(["inspect", "--checkpoint", str(ckpt_path), "--export-alpha",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "alpha.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["target"] + vocab
    alpha = influence_matrix(params)
    row1 = lines[2].split("\t")
    assert row1[0] == "e1"
    np.testing.assert_allclose([float(v) for v in row1[1:]], alpha[1])


def test_inspect_refuses_large_dense_export(tmp_path, capsys):
    ckpt_path = tmp_path / "m.ckpt"
    planted_checkpoint(ckpt_path, n=15)
    code = main(["inspect", "--checkpoint", str(ckpt_path), "--export-alpha",
                 "--max-dense", "10", "--out", str(tmp_path / "ins")])
    assert code == 1
    assert "refusing dense influence export" in capsys.readouterr().err


def test_inspect_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = main(["inspect", "--checkpoint", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
