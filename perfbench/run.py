"""Benchmark of sparsehawkes: training, full-batch gradients and evaluation.

    python3 perfbench/run.py --workload short-wide --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The inputs are generated from ``--seed``
and written as cascade files; the program is driven through its public
functions and, in-process, through ``sparsehawkes.cli.main``.  A run repeats
whole rounds while another round fits in ``--seconds``; one round (``ROUND``) is

    1 x train       sparsehawkes train --threads 1
    1 x train       sparsehawkes train --threads 2 (under a timeout)
    3 x set-up      read_cascade_file + Dataset.flat_events + Dataset.slot_tables
    3 x eval        sparsehawkes eval, on this round's threads-1 checkpoint
    5 x gradient    lazy.build_caches + lazy.accumulate_lazy_gradient

Every output is then checked against ``oracle.py``, an independent exact
likelihood, and against properties of the method.  With ``--trace 0`` the run
reports the end-to-end metrics (medians over the run); with ``--trace 1`` it
runs the same rounds traced, then one ``dense_gradient`` pass, and reports
per-layer self times and counts per round.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One round.  The short operations are spread between the two trains so
# that their medians sample the whole run, not one stretch of it.
ROUND = ("train1", "setup", "eval", "grad", "grad",
         "train2", "setup", "eval", "grad", "grad",
         "setup", "eval", "grad")
FD_DIRECTIONS = 1
# A threads-2 train of these workloads takes a few seconds on two cores; a
# hang is cut off well within a run's time limit and counted as a failed
# operation.
PARALLEL_TIMEOUT_S = 60.0
LL_RTOL = 1e-8
DENSE_RTOL = 1e-6


class ParallelTimeout(Exception):
    """The threads-2 train outlived its timeout."""


def _alarm(signum, frame):
    raise ParallelTimeout(f"no result after {PARALLEL_TIMEOUT_S:.0f}s")


def stop_children():
    """Terminate and reap every process this one started and left running."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()


def digest(params) -> str:
    h = hashlib.blake2b(digest_size=16)
    for block in (params.theta_mu, np.float64(params.theta_beta), params.theta_self,
                  params.theta_u, params.theta_v):
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    return h.hexdigest()


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Ledger:
    """Operations attempted and failed, plus the checks that found a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str, why: str):
        self.failures.append(f"{what}: {why}")
        print(f"perfbench: {what}: {why}", file=sys.stderr)

    def check(self, what: str, ok, detail: str = ""):
        """``ok`` is None when the output to check was never produced."""
        self.attempted += 1
        if ok is None:
            self.fail(what, "no output to check")
        elif not ok:
            self.wrong.append(what)
            self.fail(what, f"wrong output {detail}")


class Bench:
    """One run of one workload: its inputs, rounds, samples, outputs and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        import oracle
        import workloads
        from sparsehawkes import cli, data_io, dense, lazy
        from sparsehawkes.model import ModelParams

        self.oracle, self.cli, self.data_io, self.dense, self.lazy = oracle, cli, data_io, dense, lazy
        self.train_module = sys.modules["sparsehawkes.train"]
        self.seed, self.seconds, self.work = seed, seconds, work
        self.ledger = Ledger()
        self.inputs = workloads.generate(workload, seed, str(work / "inputs"))
        self.label = workloads.label
        self.shape = shape = self.inputs.shape
        rng = np.random.default_rng([seed, 7])
        n, d = shape.entities, shape.dim
        # fixed parameters for the full-batch gradient passes
        self.grad_params = ModelParams(
            theta_mu=np.full(n, oracle.softplus_inv(0.01)),
            theta_beta=oracle.softplus_inv(1.0),
            theta_self=np.full(n, -2.0),
            theta_u=rng.normal(-1.5, 0.3, size=(n, d)),
            theta_v=rng.normal(-1.5, 0.3, size=(n, d)),
            dim=d,
        )
        self.fd_rng = np.random.default_rng([seed, 11])
        self.samples: dict[str, list[float]] = {k: [] for k in set(ROUND) | {"round"}}
        self.outputs: list[dict] = []
        self.first_grad = None
        self.grad_digests: list[str] = []
        self.captured: list[str] = []
        self.dataset = None

    # -- operations --------------------------------------------------------

    def _cli(self, argv) -> float:
        """Run one CLI command in-process; return its wall time."""
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        secs = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return secs

    def op(self, what: str, fn, *args):
        self.ledger.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.ledger.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def setup(self) -> float:
        start = time.perf_counter()
        cascade = self.data_io.read_cascade_file(self.inputs.train_path)
        cascade.dataset.flat_events()
        cascade.dataset.slot_tables()
        secs = time.perf_counter() - start
        self.dataset = cascade
        return secs

    def train(self, out: Path, threads: int) -> float:
        argv = ["train", "--data", self.inputs.train_path, "--out", str(out),
                "--dim", str(self.shape.dim), "--epochs", str(self.shape.epochs),
                "--threads", str(threads), "--seed", str(self.seed)]
        if threads == 1:
            return self._cli(argv)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, PARALLEL_TIMEOUT_S)
        try:
            return self._cli(argv)
        except ParallelTimeout:
            stop_children()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def evaluate(self, outputs: dict, out: Path) -> float:
        """``sparsehawkes eval`` on the round's threads-1 checkpoint."""
        if 1 not in outputs:
            raise RuntimeError("this round's threads-1 train left no checkpoint")
        ckpt = outputs[1][0] / "model.ckpt"
        return self._cli(["eval", "--checkpoint", str(ckpt), "--data",
                          self.inputs.heldout_path, "--out", str(out)])

    def grad_pass(self) -> float:
        data = self.dataset.dataset
        start = time.perf_counter()
        caches = self.lazy.build_caches(self.grad_params, data)
        grads = self.lazy.accumulate_lazy_gradient(self.grad_params, data, caches)
        secs = time.perf_counter() - start
        flat = grads.as_flat()
        if self.first_grad is None:
            self.first_grad = flat
        self.grad_digests.append(hashlib.blake2b(flat.tobytes(), digest_size=16).hexdigest())
        return secs

    def _recorded(self, name: str):
        """``cli.<name>`` that also records a digest of the parameters it returns.

        The function is looked up in its own module at call time, so a
        tracer installed there later is still called through.
        """
        module, captured = self.train_module, self.captured

        def run(*args, **kwargs):
            params, report = getattr(module, name)(*args, **kwargs)
            captured.append(digest(params))
            return params, report

        return run

    def round(self, r: int):
        rdir = self.work / f"round{r}"
        out = {"evals": []}
        start = time.perf_counter()
        for i, step in enumerate(ROUND):
            if step == "setup":
                secs = self.op("setup", self.setup)
            elif step == "grad":
                secs = self.op("gradient pass", self.grad_pass)
            elif step == "eval":
                edir = rdir / f"eval{i}"
                secs = self.op("eval", self.evaluate, out, edir)
                if secs is not None:
                    out["evals"].append(edir)
            else:
                threads = int(step[-1])
                tdir = rdir / f"threads{threads}"
                before = len(self.captured)
                secs = self.op(f"train --threads {threads}", self.train, tdir, threads)
                if secs is not None:
                    out[threads] = (tdir, self.captured[before] if len(self.captured) > before else None)
            if secs is not None:
                self.samples[step].append(secs)
        self.samples["round"].append(time.perf_counter() - start)
        self.outputs.append(out)

    @contextlib.contextmanager
    def recording(self):
        names = ("train", "train_parallel")
        originals = [getattr(self.cli, name) for name in names]
        for name in names:
            setattr(self.cli, name, self._recorded(name))
        try:
            yield
        finally:
            for name, fn in zip(names, originals):
                setattr(self.cli, name, fn)

    def rounds(self, start: float):
        """Whole rounds while another one fits in ``seconds`` from ``start``."""
        while True:
            self.round(len(self.outputs))
            now = time.perf_counter()
            if now - start + self.samples["round"][-1] > self.seconds:
                break

    # -- checks ------------------------------------------------------------

    def _mapped(self, seqs, vocabulary):
        index = {lab: i for i, lab in enumerate(vocabulary)}
        return [(np.array([index[self.label(x)] for x in ent], dtype=np.int64), t, h)
                for ent, t, h in seqs]

    def _oracle(self, params, which: str, vocabulary) -> float:
        key = (digest(params), which)
        if key not in self._memo:
            seqs = self.inputs.train if which == "train" else self.inputs.heldout
            self._memo[key] = self.oracle.log_likelihood(params, self._mapped(seqs, vocabulary))
        return self._memo[key]

    def guarded(self, what: str, check, *args):
        """Run ``check``; an output it cannot even read counts as wrong."""
        try:
            check(*args)
        except Exception as exc:  # unreadable output, reported as a failed check
            self.ledger.check(what, False, f"could not be read: {type(exc).__name__}: {exc}")

    def check_train(self, tdir: Path | None, captured: str | None, threads: int):
        what = f"train --threads {threads}"
        L = self.ledger
        if tdir is None:
            for name in ("rises", "checkpoint", "final loglik"):
                L.check(f"{what}: {name}", None)
            return
        rows = (tdir / "report.tsv").read_text().splitlines()[1:]
        lls = [float(row.split("\t")[1]) for row in rows]
        L.check(f"{what}: likelihood rises over epochs", lls[0] < lls[-1], f"{lls}")
        cp = self.data_io.read_checkpoint_full(tdir / "model.ckpt")
        L.check(f"{what}: checkpoint reads back bit-identical",
                captured is not None and digest(cp.params) == captured)
        want = self._oracle(cp.params, "train", cp.vocabulary)
        L.check(f"{what}: reported final loglik equals the oracle",
                rel_close(lls[-1], want, LL_RTOL), f"{lls[-1]!r} vs {want!r}")

    def check_eval(self, edir: Path, tdir: Path):
        cp = self.data_io.read_checkpoint_full(tdir / "model.ckpt")
        rows = dict(line.split("\t") for line in (edir / "recovery.tsv").read_text().splitlines())
        got = float(rows["loglik"])
        want = self._oracle(cp.params, "heldout", cp.vocabulary) / self.inputs.heldout_events
        self.ledger.check("eval: per-event loglik equals the oracle",
                          rel_close(got, want, LL_RTOL), f"{got!r} vs {want!r}")

    def checks(self):
        L = self.ledger
        self._memo = {}
        try:
            self.oracle.self_test()
            L.check("oracle self-test", True)
        except AssertionError as exc:
            L.check("oracle self-test", False, str(exc))
        for out in self.outputs:
            for threads in (1, 2):
                tdir, captured = out.get(threads, (None, None))
                self.guarded(f"train --threads {threads} outputs", self.check_train,
                             tdir, captured, threads)
            for edir in out["evals"]:
                self.guarded("eval outputs", self.check_eval, edir, out[1][0])
        for i, dg in enumerate(self.grad_digests):
            L.check(f"gradient pass {i} repeats pass 0 bit for bit", dg == self.grad_digests[0])
        missing = len(self.outputs) * ROUND.count("grad") - len(self.grad_digests)
        for _ in range(missing):
            L.check("gradient pass", None)
        vocabulary = self.dataset.vocabulary
        seqs = self._mapped(self.inputs.train, vocabulary)
        data = self.dataset.dataset
        params = self.grad_params
        got = self.lazy.lazy_log_likelihood(params, data, self.lazy.build_caches(params, data))
        want = self.oracle.log_likelihood(params, seqs)
        L.check("lazy loglik equals the oracle", rel_close(got, want, LL_RTOL),
                f"{got!r} vs {want!r}")
        for analytic, numeric, tol in self.oracle.directional_check(
                params, seqs, self.first_grad, self.fd_rng, FD_DIRECTIONS):
            L.check("lazy gradient matches oracle central differences",
                    abs(analytic - numeric) <= tol, f"{analytic!r} vs {numeric!r} (tol {tol:.3g})")

    def check_dense(self, dense_flat):
        lazy_flat = self.first_grad
        gap = np.abs(lazy_flat - dense_flat)
        ok = bool(np.all(gap <= DENSE_RTOL * np.maximum(np.abs(lazy_flat), np.abs(dense_flat))
                         + 1e-12))
        self.ledger.check("lazy gradient equals dense_gradient", ok,
                          f"worst gap {float(gap.max()):.3g}")

    # -- modes -------------------------------------------------------------

    def timing(self) -> dict:
        """End-to-end metrics: ``{name: (value, unit)}``."""
        with self.recording():
            self.rounds(time.perf_counter())
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.checks()
        med = {k: statistics.median(v) if v else math.nan for k, v in self.samples.items()}
        events = self.inputs.train_events
        return {
            "setup_s": (med["setup"], "s"),
            "train_events_per_s": (events * self.shape.epochs / med["train1"], "events/s"),
            "train_parallel_events_per_s": (events * self.shape.epochs / med["train2"], "events/s"),
            "lazy_grad_events_per_s": (events / med["grad"], "events/s"),
            "eval_events_per_s": (self.inputs.heldout_events / med["eval"], "events/s"),
            "peak_rss_mb": (peak, "MiB"),
        }

    def traced(self, tracer) -> tuple[dict, dict]:
        """Per-layer metrics ``{name: (value, unit)}`` and run facts for the README."""
        with self.recording():
            tracer.install()
            try:
                self.rounds(time.perf_counter())
                start = time.perf_counter()
                dense_flat = self.dense.dense_gradient(
                    self.grad_params, self.dataset.dataset).as_flat()
                dense_secs = time.perf_counter() - start
            finally:
                tracer.remove()
        traced_rounds = len(self.outputs)
        self.checks()
        self.check_dense(dense_flat)
        selfs = tracer.self_times()
        counts = tracer.counts
        per = 1.0 / traced_rounds

        def s(name):
            return selfs.get(name, 0.0) * per, "s"

        def c(name):
            return counts.get(name, 0) * per, "count"

        scan_calls = counts.get("scan.batch_sequence_stats.calls", 0)
        writes = counts.get("data_io.write_checkpoint.calls", 0)
        metrics = {
            "data_io.read_cascade_file_s": s("data_io.read_cascade_file"),
            "data_io.write_checkpoint_s": s("data_io.write_checkpoint"),
            "data_io.read_checkpoint_full_s": s("data_io.read_checkpoint_full"),
            "data_io.checkpoint_bytes": (
                counts.get("data_io.checkpoint_bytes", 0) / max(writes, 1), "bytes"),
            "model.Dataset_s": s("model.Dataset"),
            "model.flat_events_s": s("model.flat_events"),
            "model.slot_tables_s": s("model.slot_tables"),
            "scan.batch_sequence_stats_s": s("scan.batch_sequence_stats"),
            "scan.batch_sequence_stats_calls": c("scan.batch_sequence_stats.calls"),
            "scan.events_per_call": (
                counts.get("scan.events", 0) / max(scan_calls, 1), "events/call"),
            "lazy.lazy_sequence_gradients_s": s("lazy.lazy_sequence_gradients"),
            "lazy.lazy_sequence_gradients_calls": c("lazy.lazy_sequence_gradients.calls"),
            "lazy.update_u_hat_calls": c("lazy.update_u_hat.calls"),
            "lazy.build_caches_s": s("lazy.build_caches"),
            "lazy.build_caches_calls": c("lazy.build_caches.calls"),
            "lazy.accumulate_lazy_gradient_s": s("lazy.accumulate_lazy_gradient"),
            "lazy.lazy_log_likelihood_s": s("lazy.lazy_log_likelihood"),
            "train.adam_step_s": s("train.adam_step"),
            "train.adam_step_calls": c("train.adam_step.calls"),
            "train.rows_touched": c("train.rows_touched"),
            "train.init_params_s": s("train.init_params"),
            "train.train_self_s": s("train.train"),
            "train.train_parallel_self_s": s("train.train_parallel"),
            # one pass, not per round
            "dense.dense_gradient_s": (selfs.get("dense.dense_gradient", 0.0), "s"),
            "cli.main_self_s": s("cli.main"),
        }
        lazy_pass = statistics.median(self.samples["grad"])
        extra = {
            "traced_round_s": statistics.median(self.samples["round"]),
            "dense_pass_s": dense_secs,
            "lazy_pass_s": lazy_pass,
            "dense_over_lazy": dense_secs / lazy_pass,
            "missing_layers": tracer.missing,
        }
        return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["short-wide", "short-narrow", "long-bands"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sparsehawkes" / "__init__.py").is_file():
        print(f"perfbench: no sparsehawkes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    out_root = ROOT / ".perfbench-out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_root / "work" / f"{tag}-{os.getpid()}"
    extra = {}
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            metrics, extra = bench.traced(tracer)
            (out_root / "traces").mkdir(parents=True, exist_ok=True)
            with open(out_root / "traces" / f"{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
        else:
            metrics = bench.timing()
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)

    L = bench.ledger
    result = {
        "correct": not L.wrong,
        "attempted": L.attempted,
        "failed": L.failed,
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()},
    }
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    with open(out_root / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "failures": L.failures, "rounds": len(bench.outputs),
                   "samples": bench.samples, **extra}, fh, indent=1)
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"# {key} {value}")
    print(f"attempted {L.attempted} failed {L.failed} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
