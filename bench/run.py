"""rigidkit benchmark: four seeded workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload generic --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (set-up, library pass, slowest operation, CLI processes,
peak memory); with --trace 1 the same workload runs with every public
function of the layer modules wrapped, and the metrics are per layer.  A
fuller record of the run goes to bench/out/.
"""

import os

# One process loads the machine, with no extra threads: the default BLAS
# thread pool makes the first rank calls of a process erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 3
PASSES_PER_ROUND = 2
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("generic", "relative-towers", "combinatorial", "multibody"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


class Tally:
    """Operations attempted and failed, and the first few problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def run_pass(w, tally):
    """One pass over the workload's operations; returns per-operation times.
    Checks run outside the timed calls."""
    times = []
    clock = time.perf_counter
    for op in w.ops:
        tally.attempted += 1
        t0 = clock()
        try:
            result = op.fn()
        except Exception:  # an operation that raises counts as failed
            times.append(clock() - t0)
            tally.failed += 1
            tally.note(f"{op.entry} {op.label} raised:\n{traceback.format_exc()}")
            continue
        times.append(clock() - t0)
        try:
            op.check(result)
        except gen.CheckError as exc:
            tally.wrong += 1
            tally.note(f"{op.entry} {op.label}: {exc}")
    return times


def check_cli(op, code, out, err, tally):
    if code != 0:
        tally.failed += 1
        tally.note(f"rigidkit {' '.join(op.argv)} exited {code}: {err.strip()[:500]}")
        return
    try:
        op.check(out)
    except (gen.CheckError, ValueError, KeyError, TypeError) as exc:
        tally.wrong += 1
        tally.note(f"rigidkit {' '.join(op.argv)}: {exc!r}")


def cli_round(w, workdir, tally):
    """Each CLI invocation once, as a fresh process; returns their times."""
    times = []
    for op in w.cli:
        tally.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "rigidkit", *op.argv],
            cwd=workdir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        check_cli(op, proc.returncode, proc.stdout, proc.stderr, tally)
    return times


def cli_in_process(w, workdir, tally):
    """The same argv through rigidkit.cli.run inside this process."""
    from rigidkit import cli

    times = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for op in w.cli:
            tally.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(op.argv))
            times.append(time.perf_counter() - t0)
            check_cli(op, code, out.getvalue(), err.getvalue(), tally)
    finally:
        os.chdir(here)
    return times


def setup_sample(args):
    """Wall time from spawning a fresh interpreter until it reports the
    workload ready (imports, inputs built, entry points warmed up)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return ready


def python_start(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def write_inputs(w, seed):
    workdir = OUT / f"{w.name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, doc in w.files.items():
        (workdir / name).write_text(json.dumps(doc))
    return workdir


def freeze_inputs():
    """Move the inputs and everything else built so far out of the
    collector's reach: a process answering one query holds one input, not
    the whole workload, and rescanning them would add time that grows with
    the workload rather than with the call."""
    gc.collect()
    gc.freeze()


def timed_rounds(w, seconds, tally, after_passes, passes_per_round=1):
    """Whole rounds, at least MIN_ROUNDS, while the next one is expected to
    end within `seconds`.  A round is `passes_per_round` library passes and
    then after_passes(round index), whose result is kept; returns the
    library passes and the kept results."""
    passes, kept = [], []
    start = time.perf_counter()
    last = 0.0
    while len(kept) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.extend(run_pass(w, tally) for _ in range(passes_per_round))
        kept.append(after_passes(len(kept)))
        last = time.perf_counter() - t0
    return passes, kept


def medians(rows):
    """Median time of each operation over the repeats of a run.  The machine
    runs slower for stretches of seconds to minutes; the median over samples
    spread through the whole run moved less between runs than the least
    time, which one lucky sample sets."""
    return [statistics.median(col) for col in zip(*rows)]


def op_times(w, passes):
    return {f"{op.entry}[{op.label}]": [p[i] for p in passes] for i, op in enumerate(w.ops)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(args, workloads):
    w = workloads.build(args.workload, args.seed)
    w.warm_up()
    workdir = write_inputs(w, args.seed)
    freeze_inputs()
    tally = Tally()
    # Every round samples the library and the CLI, every other one the
    # set-up, so all figures are drawn from the whole measuring window
    # rather than from one stretch of it.  Library passes are the cheapest
    # samples, so a round takes more of them.
    passes, rounds = timed_rounds(
        w,
        args.seconds,
        tally,
        lambda i: (cli_round(w, workdir, tally), setup_sample(args) if i % 2 == 0 else None),
        PASSES_PER_ROUND,
    )
    typical = medians(passes)
    setup = [r[1] for r in rounds if r[1] is not None]
    cli = [r[0] for r in rounds]
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(sum(typical), "s"),
        "max_op_s": metric(max(typical), "s"),
        "cli_s": metric(sum(medians(cli)), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "rounds": len(rounds),
        "passes": len(passes),
        "setup_samples": setup,
        "cli_rounds": cli,
        "ops": op_times(w, passes),
    }
    return tally, metrics, detail


def layer_metrics(sp, setup_sp):
    """Per-layer figures of one traced pass (library calls plus the in-process
    CLI leg); catalog self time also counts the traced set-up."""
    pebble = tracing.PEBBLE_BUILDERS
    placements = {"frameworks.random_placement", "frameworks.random_integer_points"}
    rel_calls = sp.n("towers.relative_rigidity")
    moves_made = sp.total_size("moves.find_chain")
    out = {"frameworks.self_s": (sp.self_s["frameworks"], "s")}
    for fn in ("rigidity_matrix", "matrix_rank", "kernel_basis", "exact_rank"):
        out[f"frameworks.{fn}_s"] = (sp.time(f"frameworks.{fn}"), "s")
        out[f"frameworks.{fn}_calls"] = (sp.n(f"frameworks.{fn}"), "count")
    out["frameworks.rigidity_matrix_exact_s"] = (sp.time("frameworks.rigidity_matrix_exact"), "s")
    out["frameworks.flex_report_calls"] = (sp.n("frameworks.flex_report"), "count")
    out["sparsity.self_s"] = (sp.self_s["sparsity"], "s")
    out["sparsity.pebble_runs"] = (sum(sp.n(f) for f in pebble), "count")
    for fn in ("is_sparse", "blocking_tight_subgraph"):
        out[f"sparsity.{fn}_s"] = (sp.time(f"sparsity.{fn}"), "s")
        out[f"sparsity.{fn}_calls"] = (sp.n(f"sparsity.{fn}"), "count")
    out["moves.self_s"] = (sp.self_s["moves"], "s")
    out["moves.find_chain_s"] = (sp.time("moves.find_chain"), "s")
    out["moves.pebble_runs_per_move"] = (
        sp.count_inside(pebble, "moves.find_chain") / moves_made if moves_made else 0.0,
        "ratio",
    )
    out["towers.self_s"] = (sp.self_s["towers"], "s")
    out["towers.relative_rigidity_s"] = (sp.time("towers.relative_rigidity"), "s")
    out["towers.relative_rigidity_calls"] = (rel_calls, "count")
    out["towers.placements_per_relative_verdict"] = (
        sp.count_inside(placements, "towers.relative_rigidity") / rel_calls if rel_calls else 0.0,
        "ratio",
    )
    out["towers.rigid_container_2d_s"] = (sp.time("towers.rigid_container_2d"), "s")
    out["towers.container_blocking_calls"] = (
        sp.count_inside({"sparsity.blocking_tight_subgraph"}, "towers.rigid_container_2d"),
        "count",
    )
    out["bodybar.self_s"] = (sp.self_s["bodybar"], "s")
    for fn in ("validate_multibody", "tay_decide", "special_placement"):
        out[f"bodybar.{fn}_s"] = (sp.time(f"bodybar.{fn}"), "s")
    out["bodybar.special_model_vertices"] = (sp.total_size("bodybar.special_placement"), "count")
    out["bodybar.special_flex_reports"] = (
        sp.count_inside({"frameworks.flex_report"}, "bodybar.special_placement"),
        "count",
    )
    out["bodybar.bodybar_tower_decide_s"] = (sp.time("bodybar.bodybar_tower_decide"), "s")
    out["catalog.self_s"] = (setup_sp.self_s["catalog"] + sp.self_s["catalog"], "s")
    out["jsonio.self_s"] = (sp.self_s["jsonio"], "s")
    return out


def run_traced(args, workloads):
    tracer = tracing.Tracer()
    tracer.install()
    w = workloads.build(args.workload, args.seed)
    w.warm_up()
    setup_sp = tracer.take()
    tracer.uninstall()
    workdir = write_inputs(w, args.seed)
    freeze_inputs()
    tally = Tally()
    plain, plain_cli = timed_rounds(w, args.seconds / 2, tally, lambda i: cli_in_process(w, workdir, tally))

    def spans_of_round(i):
        cli_in_process(w, workdir, tally)
        return tracer.take()

    tracer.install()
    traced, traced_spans = timed_rounds(w, args.seconds / 2, tally, spans_of_round)
    tracer.uninstall()
    # Spans of a round cover its one library pass and its in-process CLI leg.
    per_pass = [layer_metrics(sp, setup_sp) for sp in traced_spans]
    metrics = {
        name: metric(statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    bare = [python_start("pass") for _ in range(IMPORT_SAMPLES)]
    imported = [python_start("import rigidkit.cli") for _ in range(IMPORT_SAMPLES)]
    metrics["cli.import_s"] = metric(min(imported) - min(bare), "s")
    metrics["cli.run_s"] = metric(sum(medians(plain_cli)), "s")
    plain_wall = sum(medians(plain))
    traced_wall = sum(medians(traced))
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    last = traced_spans[-1]
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "wall_s": {"untraced": plain_wall, "traced": traced_wall},
        "functions": {
            name: {"calls": last.calls[name], "total_s": last.total_s.get(name, 0.0)}
            for name in sorted(last.calls)
        },
        "self_s": last.self_s,
    }
    return tally, metrics, detail


def main():
    args = parse_args()
    if not (SRC / "rigidkit" / "__init__.py").is_file():
        print(f"bench: no rigidkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    import rigidkit

    if Path(rigidkit.__file__).resolve().parent != (SRC / "rigidkit").resolve():
        print(f"bench: imported rigidkit from {rigidkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0

    run = run_traced if args.trace else run_plain
    tally, metrics, detail = run(args, workloads)
    for note in tally.notes:
        print(f"bench: {note}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, detail=detail)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
