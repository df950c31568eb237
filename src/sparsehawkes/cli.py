"""Command-line front end: simulate, train, eval, bench, inspect.

Every run drops a ``manifest.json`` beside its outputs holding the full
resolved flag set, the seed, and the on-disk format versions, so any output
can be regenerated from the manifest alone.  All randomness flows from the
single ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .data_io import (
    CHECKPOINT_VERSION,
    CascadeFile,
    CascadeFormatError,
    CheckpointFormatError,
    read_cascade_file,
    read_checkpoint_full,
    write_cascades,
    write_checkpoint,
)
from .evaluate import (
    RecoveryReport,
    holdout_loglik,
    rmse_params,
    runtime_benchmark,
    write_benchmark_tsv,
    write_recovery_tsv,
)
from .model import Dataset, NumericalDivergenceError, influence_matrix
from .simulate import UnstableConfigurationError, synthetic_dataset
from .train import TrainConfig, TrainingDivergedError, train, train_parallel

CASCADE_FORMAT_VERSION = 1


class CliError(Exception):
    """A user-facing failure; the message goes to stderr, exit code is 1."""


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def rank_flag(text: str) -> int | None:
    if text == "full":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rank must be 'full' or a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"rank must be at least 1, got {value}")
    return value


def resolve_threads(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("LMHP_THREADS")
    if env is None:
        return 1
    try:
        threads = int(env)
    except ValueError:
        raise CliError(f"LMHP_THREADS={env!r} is not an integer") from None
    if threads < 1:
        raise CliError(f"LMHP_THREADS must be at least 1, got {threads}")
    return threads


def write_manifest(out_dir: str, args: argparse.Namespace, **resolved):
    """The subcommand's flags as parsed, with ``resolved`` overriding the
    values the subcommand works out itself."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    payload = {
        "subcommand": args.subcommand,
        "flags": {**flags, **resolved},
        "format_versions": {
            "cascade": CASCADE_FORMAT_VERSION,
            "checkpoint": CHECKPOINT_VERSION,
            "package": __version__,
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    if args.sequences < 1:
        raise CliError("sequences must be >= 1")
    if args.nodes < 2:
        raise CliError("nodes must be >= 2")
    if not args.beta > 0:
        raise CliError("beta must be positive")
    if not args.mu > 0:
        raise CliError("mu must be positive")
    if not args.horizon > 0:
        raise CliError("horizon must be positive")

    data, truth = synthetic_dataset(
        nodes=args.nodes,
        sequences=args.sequences,
        beta=args.beta,
        mu_rate=args.mu,
        horizon=args.horizon,
        seed=args.seed,
        rank=args.rank,
    )
    if data.total_events == 0:
        raise CliError(
            "no events were generated; raise --mu, --horizon, or --sequences"
        )

    out = ensure_out(args.out)
    write_cascades(os.path.join(out, "cascades.tsv"), data)
    np.savez(
        os.path.join(out, "truth.npz"),
        mu=truth.mu,
        beta=np.float64(truth.beta),
        alpha=truth.alpha,
    )
    write_manifest(out, args, rank=args.rank or "full")
    print(f"wrote {len(data)} sequences, {data.total_events} events "
          f"over {data.num_entities} entities to {out}")
    return 0


def cmd_train(args) -> int:
    threads = resolve_threads(args.threads)
    cascade = read_cascade_file(args.data)
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        dim=args.dim,
        threads=threads,
        seed=args.seed,
        shuffle=args.shuffle,
        log_every=args.log_every,
    )
    runner = train if threads == 1 else train_parallel
    params, report = runner(cascade.dataset, config)

    out = ensure_out(args.out)
    write_checkpoint(
        os.path.join(out, "model.ckpt"),
        params,
        meta={
            "epochs": args.epochs,
            "loglik": report.epoch_loglik[-1],
            "seed": args.seed,
            "dim": args.dim,
            "config_digest": config.digest(),
        },
        vocabulary=cascade.vocabulary,
    )
    with open(os.path.join(out, "report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("epoch\tloglik\tseconds\n")
        for i, (ll, secs) in enumerate(zip(report.epoch_loglik, report.epoch_seconds), start=1):
            fh.write(f"{i}\t{ll!r}\t{secs:.6f}\n")
    write_manifest(out, args, threads=threads)
    print(f"final loglik {report.epoch_loglik[-1]:.6f}; checkpoint in {out}")
    return 0


def remap_to_checkpoint(cascade: CascadeFile, vocabulary: list[str],
                        num_entities: int) -> Dataset:
    """Re-index parsed events into the checkpoint's entity numbering, sharing
    the times, offsets and horizons.  Without a vocabulary the labels must be
    entity indices, the decimal labels :func:`write_cascades` writes by default."""
    if vocabulary:
        lookup = list(map(dict(zip(vocabulary, range(num_entities))).get, cascade.vocabulary))
    else:
        lookup = [int(x) if x.isascii() and x.isdigit() and int(x) < num_entities else None
                  for x in cascade.vocabulary]
    if None in lookup:
        label = cascade.vocabulary[lookup.index(None)]
        raise CliError(f"entity label {label!r} is not in the checkpoint" if vocabulary else
                       f"entity label {label!r} is not an index below {num_entities} (the "
                       "checkpoint has no vocabulary)")
    data = cascade.dataset
    return Dataset.from_columns(num_entities, data.offsets, data.times,
                                np.array(lookup)[data.labels], data.horizons)


def load_truth(path, vocabulary: list[str], num_entities: int):
    with np.load(path) as archive:
        for key in ("mu", "beta", "alpha"):
            if key not in archive:
                raise CliError(f"truth file {path} is missing array {key!r}")
        mu = archive["mu"]
        beta = float(archive["beta"])
        alpha = archive["alpha"]
    if vocabulary:
        try:
            idx = np.array([int(label) for label in vocabulary])
        except ValueError:
            raise CliError(
                "checkpoint labels are not integer indices; cannot align them "
                "with the truth arrays"
            ) from None
        if idx.min() < 0 or idx.max() >= len(mu):
            raise CliError("checkpoint labels fall outside the truth universe")
        return mu[idx], beta, alpha[np.ix_(idx, idx)]
    if len(mu) != num_entities:
        raise CliError(
            f"truth describes {len(mu)} entities, checkpoint has {num_entities}"
        )
    return mu, beta, alpha


def cmd_eval(args) -> int:
    checkpoint = read_checkpoint_full(args.checkpoint)
    params = checkpoint.params
    cascade = read_cascade_file(args.data)
    data = remap_to_checkpoint(cascade, checkpoint.vocabulary, params.num_entities)
    loglik = holdout_loglik(params, data)

    if args.truth is not None:
        truth = load_truth(args.truth, checkpoint.vocabulary, params.num_entities)
        report = rmse_params(params, truth, loglik=loglik)
    else:
        nan = float("nan")
        report = RecoveryReport(
            rmse_mu=nan, rmse_beta=nan, rmse_alpha=nan, loglik=loglik,
            config={"num_entities": params.num_entities, "dim": params.dim},
        )

    out = ensure_out(args.out)
    write_recovery_tsv(os.path.join(out, "recovery.tsv"), report)
    write_manifest(out, args)
    print(f"per-event loglik {loglik:.6f}; report in {out}")
    return 0


def cmd_bench(args) -> int:
    cascade = read_cascade_file(args.data)
    engines = ["dense", "lazy"] if args.engine == "both" else [args.engine]
    results = [
        runtime_benchmark(engine, cascade.dataset, repetitions=args.repetitions,
                          seed=args.seed)
        for engine in engines
    ]
    out = ensure_out(args.out)
    write_benchmark_tsv(os.path.join(out, "bench.tsv"), results)
    write_manifest(out, args)
    for r in results:
        print(f"{r.engine}: median {r.median_seconds:.6f}s over "
              f"{r.repetitions} repetitions")
    return 0


def cmd_inspect(args) -> int:
    checkpoint = read_checkpoint_full(args.checkpoint)
    params = checkpoint.params
    n = params.num_entities
    labels = checkpoint.vocabulary or [str(i) for i in range(n)]
    u = params.factors_u()
    top = min(args.top, n)

    out = ensure_out(args.out)
    with open(os.path.join(out, "factors.tsv"), "w", encoding="utf-8") as fh:
        fh.write("factor\trank\tentity\tactivation\n")
        for k in range(params.dim):
            order = np.argsort(-u[:, k], kind="stable")[:top]
            for rank, x in enumerate(order, start=1):
                fh.write(f"{k}\t{rank}\t{labels[int(x)]}\t{float(u[int(x), k])!r}\n")

    if args.export_alpha:
        if n > args.max_dense:
            raise CliError(
                f"refusing dense influence export for {n} entities "
                f"(bound is {args.max_dense}; raise --max-dense to override)"
            )
        alpha = influence_matrix(params)
        with open(os.path.join(out, "alpha.tsv"), "w", encoding="utf-8") as fh:
            fh.write("\t".join(["target"] + labels) + "\n")
            for x in range(n):
                row = "\t".join(repr(float(v)) for v in alpha[x])
                fh.write(f"{labels[x]}\t{row}\n")

    write_manifest(out, args)
    print(f"factor summary in {out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsehawkes",
        description="Sparse multivariate Hawkes toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--nodes", type=int, required=True)
    sim.add_argument("--sequences", type=int, required=True)
    sim.add_argument("--beta", type=float, default=1.0)
    sim.add_argument("--mu", type=float, default=0.0001)
    sim.add_argument("--horizon", type=float, default=100.0)
    sim.add_argument("--rank", type=rank_flag, default=None,
                     help="'full' or a truncation rank (default full)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    tr = sub.add_parser("train", help="fit a model to a cascade file")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--dim", type=positive_int, default=20)
    tr.add_argument("--epochs", type=positive_int, default=50)
    tr.add_argument("--learning-rate", type=float, default=0.01)
    tr.add_argument("--threads", type=positive_int, default=None,
                    help="worker count (falls back to LMHP_THREADS, then 1)")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--shuffle", action="store_true")
    tr.add_argument("--log-every", type=positive_int, default=10)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on held-out data")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--truth", default=None,
                    help="npz with mu, beta, alpha for recovery metrics")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="time engine gradient passes")
    be.add_argument("--data", required=True)
    be.add_argument("--engine", choices=["dense", "lazy", "both"], default="both")
    be.add_argument("--repetitions", type=positive_int, default=5)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", required=True)
    be.set_defaults(func=cmd_bench)

    ins = sub.add_parser("inspect", help="summarize a checkpoint's factors")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--top", type=positive_int, default=5)
    ins.add_argument("--export-alpha", action="store_true")
    ins.add_argument("--max-dense", type=positive_int, default=2000)
    ins.add_argument("--out", required=True)
    ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CascadeFormatError, CheckpointFormatError,
            UnstableConfigurationError, TrainingDivergedError,
            NumericalDivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
