"""fdsketch benchmark: one workload per run, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload wide-dense --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is used from ``src``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer split from a traced run. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment. A summary with every round is written to
``perfbench/_out/``. See ``perfbench/README.md``.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("wide-dense", "narrow-csv", "shard-merge", "items-zipf")
HELP_STARTS = 7


class Launcher:
    """Client of ``launcher.py``, which spawns every CLI process."""

    def __init__(self, python: str, env: dict):
        self.proc = subprocess.Popen(
            [python, str(HERE / "launcher.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv, stdout: Path, stderr: Path, timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def environment(blas_threads_found) -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:  # older numpy has no dict mode
        blas = {"unavailable": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS_found": blas_threads_found,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(wl, rounds, setup_s: float) -> dict:
    pipeline = [step for step in rounds[0].walls if step != "extend"]
    quality = rounds[-1].quality
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (median([sum(r.walls[s] for s in pipeline) for r in rounds]), "s"),
        "ingest_rows_per_s": (
            median([wl.n / r.walls[wl.ingest_step] for r in rounds]), "rows/s"),
        "extend_rows_per_s": (
            median([wl.n * wl.extend_passes / r.walls["extend"] for r in rounds]), "rows/s"),
        "ingest_peak_rss_mib": (median([r.rss[wl.ingest_step] for r in rounds]), "MiB"),
        "peak_rss_mib": (median([max(r.rss.values()) for r in rounds]), "MiB"),
        "lost_mass_rel": (quality.get("lost_mass_rel", 0.0), "ratio"),
        "proj_err_ratio": (quality.get("proj_err_ratio", 0.0), "ratio"),
    }


def per_layer(traced, untraced) -> dict:
    from spans import layer_totals

    def layers(rnd) -> dict:
        t = layer_totals(rnd.records)

        def g(key):
            return t.get(key, 0)

        compress_calls = g("sketch.compress.calls")
        svd_calls = g("linalg.svd_thin.calls")
        return {
            "io.parse_s": (g("io.parse.total_s"), "s"),
            "io.parse_rows": (g("io.parse_rows"), "count"),
            "io.read_rows_s": (g("io.read_rows.total_s"), "s"),
            "io.save_sketch_s": (g("io.save_sketch.total_s"), "s"),
            "io.load_sketch_s": (g("io.load_sketch.total_s"), "s"),
            "io.sketch_bytes": (g("io.sketch_bytes"), "bytes"),
            "sketch.append_calls": (g("sketch.append.calls"), "count"),
            "sketch.append_self_s": (g("sketch.append.self_s"), "s"),
            "sketch.compress_calls": (compress_calls, "count"),
            "sketch.compress_self_s": (g("sketch.compress.self_s"), "s"),
            "sketch.compress_useful_ratio": (
                g("sketch.compress_useful") / compress_calls if compress_calls else 0.0, "ratio"),
            "linalg.svd_thin_calls": (svd_calls, "count"),
            "linalg.svd_thin_s": (g("linalg.svd_thin.total_s"), "s"),
            "linalg.svd_thin_rows_mean": (
                g("linalg.svd_thin_rows") / svd_calls if svd_calls else 0.0, "rows"),
            "sketch.merge_calls": (g("sketch.merge.calls"), "count"),
            "sketch.merge_self_s": (g("sketch.merge.self_s"), "s"),
            "sketch.error_report_s": (g("sketch.error_report.total_s"), "s"),
            "linalg.best_rank_k_s": (g("linalg.best_rank_k.total_s"), "s"),
            "linalg.project_rowspace_s": (g("linalg.project_rowspace.total_s"), "s"),
            "linalg.directional_norm_gap_s": (g("linalg.directional_norm_gap.total_s"), "s"),
            "heavy_hitters.update_calls": (g("heavy_hitters.update.calls"), "count"),
            "heavy_hitters.update_s": (g("heavy_hitters.update.total_s"), "s"),
            "heavy_hitters.decrements": (g("heavy_hitters.decrements"), "count"),
            "heavy_hitters.error_certificate_s": (
                g("heavy_hitters.error_certificate.total_s"), "s"),
            "cli.hh_self_s": (g("cli.hh.self_s"), "s"),
            "cli.startup_s": (rnd.startup_s, "s"),
            "cli.self_s": (sum(v for key, v in t.items()
                               if key.startswith("cli.") and key.endswith(".self_s")), "s"),
        }

    per_round = [layers(r) for r in traced]
    out = {name: (median([m[name][0] for m in per_round]), unit)
           for name, (_, unit) in per_round[0].items()}
    out["trace.overhead_s"] = (median([sum(r.walls.values()) for r in traced])
                               - median([sum(r.walls.values()) for r in untraced]), "s")
    for step in ("sketch", "merge_tree", "verify", "hh", "extend"):
        out[f"step.{step}_s"] = (median([r.walls.get(step, 0.0) for r in untraced]), "s")
    return out


def bench(args, launcher, work: Path) -> dict:
    import numpy as np

    from workloads import WORKLOADS, Session, self_test

    session = Session(launcher, work, sys.executable, HERE / "spans.py")
    help_walls = []
    for _ in range(1 if args.trace else HELP_STARTS + 1):
        reply, _ = session.call(["--help"])
        if reply["code"] != 0:
            raise RuntimeError(f"fdsketch --help exited {reply['code']}")
        help_walls.append(reply["wall_s"])
    # the first start also fills the page cache and writes bytecode
    setup_s = median(help_walls[1:])

    wl = WORKLOADS[args.workload]()
    wl.prepare(np.random.default_rng(args.seed), work)
    problems = self_test(session, work)

    plan = [False, True] if args.trace else [False]
    rounds = []
    t0 = time.perf_counter()
    while True:
        for traced in plan:
            session.begin(traced)
            outputs = wl.round(session)
            rnd = session.end()
            rnd.fails, rnd.quality = wl.check(outputs)
            rounds.append(rnd)
        elapsed = time.perf_counter() - t0
        # start another whole round unless it would end more than half a
        # round past the budget
        if elapsed * (1 + 0.5 * len(plan) / len(rounds)) > args.seconds:
            break

    for rnd in rounds:
        problems += rnd.fails
    untraced = [r for r in rounds if not r.traced]
    if args.trace:
        metrics = per_layer([r for r in rounds if r.traced], untraced)
    else:
        metrics = end_to_end(wl, untraced, setup_s)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": sorted(set(problems)),
        "rounds": [{"traced": r.traced, "walls": r.walls, "rss_mib": r.rss} for r in rounds],
        "setup_help_s": help_walls,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="OPENBLAS_NUM_THREADS for every step; 0 leaves it as found")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fdsketch" / "__init__.py").is_file():
        print(f"perfbench: no fdsketch sources under {src}", file=sys.stderr)
        return 2
    # two BLAS threads on two shared vCPUs make the same command's wall time
    # wander by a sixth between runs; one thread keeps it within a few percent.
    # Set before numpy loads, here and in every child.
    blas_threads_found = os.environ.get("OPENBLAS_NUM_THREADS")
    if args.blas_threads:
        os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    out_dir = HERE / "_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # started before anything large is allocated here; see launcher.py
    launcher = Launcher(sys.executable, env)
    try:
        result = bench(args, launcher, work)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    env_record = environment(blas_threads_found)
    summary = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, environment=env_record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(summary, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env_record}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
