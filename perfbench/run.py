"""Benchmark of the ``beamscan`` command line on fixed-seed simulated panels.

Run from the root of a source checkout (the directory holding ``src/beamscan``
and ``BENCHMARK.json``):

    python3 perfbench/run.py --workload map-400 --seed 1 --seconds 25 --trace 0

This process simulates three panels from ``--seed`` s (simulate seeds 3s,
3s+1 and 3s+2) with ``beamscan simulate --model 2 --maf 0.3 --effect 1.5``
(disease loci dropped), then runs the workload's command on them in turn for
``--seconds`` seconds, at least three times. Load is a closed loop with one
client: each command runs in a fresh interpreter (``perfbench/worker.py``)
started by this process after the previous one has ended, always with
``--chains 1 --threads 1`` where the subcommand takes them. Every command's
outputs are checked; a non-zero exit, an exception or a failed check counts
the command as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the run's commands. Every timing is scaled to a reference machine
speed: each command's process also times a fixed interpreter-bound task
(``worker.reference_task``) just before and after the command, and its timings
are multiplied by REFERENCE_TASK_S / (that task's median time). The CPU speed
of a shared two-core virtual machine drifts by a factor of up to 1.6 over
minutes, and the scaling takes most of that drift out; the raw timings are
printed alongside. ``--trace 1`` alternates an untraced and a traced command
and reports the per-layer metrics, taken from spans recorded around the
package's public call sites (see ``tracer.py``); timings are medians over the
traced commands.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the library versions, the per-command samples (raw and
scaled) and the sha256 of each command's result TSVs (for information only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from worker import reference_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

MIN_COMMANDS = 3  # per untraced run, so every median has at least three samples
PANELS_PER_RUN = 3  # commands rotate over panels, so one panel's quirks weigh less
DEADLINE_S = 160.0  # no command starts after this many seconds of the run
RUN_LIMIT_S = 170.0  # a command still running this long after the run began is killed
N_PERM = 1000
SETS_PER_SIZE_WINDOW = 2  # bstat sets per size drawn inside the truth windows
SETS_PER_SIZE_RANDOM = 4  # bstat sets per size drawn uniformly from all SNPs
TIME_UNITS = ("s", "ms", "us")
REFERENCE_TASK_S = 0.020  # defines the reference speed: timings are scaled to a machine
# on which worker.reference_task() takes this long (about its median on the 2-core
# Intel Xeon virtual machine where the benchmark was defined)
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    snps: int
    cases: int
    controls: int
    flags: tuple[str, ...]
    iterations: int = 0  # chain iterations per command (burn-in + retained)


def chain_workload(subcommand: str, snps: int, cases: int, controls: int, burnin: int, iters: int):
    flags = ("--chains", "1", "--threads", "1", "--burnin", str(burnin), "--iters", str(iters))
    return Workload(subcommand, snps, cases, controls, flags, burnin + iters)


WORKLOADS = {
    "map-400": chain_workload("map", 400, 500, 500, burnin=100, iters=500),
    "partition-4k": chain_workload("partition", 400, 2000, 2000, burnin=2000, iters=10000),
    "bstat-perm": Workload(
        "bstat", 400, 500, 500, ("--calibration", "permutation", "--n-perm", str(N_PERM))
    ),
    "exact-10": Workload("oracle", 10, 500, 500, ()),
}


@dataclass
class Input:
    """One simulated panel and the command that runs on it."""

    panel: Path
    out: Path
    ids: list[str]
    sets: list[tuple[int, ...]]
    argv: list[str]
    simulate_s: float


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# -- inputs -------------------------------------------------------------------


def simulate_panel(cli, wl: Workload, seed: int, path: Path) -> float:
    """Write the workload's panel (and truth sidecar); returns the seconds taken."""
    t0 = time.perf_counter()
    rc = cli.main(
        [
            "simulate", "--out", str(path), "--model", "2", "--maf", "0.3",
            "--effect", "1.5", "--cases", str(wl.cases), "--controls", str(wl.controls),
            "--snps", str(wl.snps), "--seed", str(seed),
        ]
    )
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SetupError(f"simulate exited with {rc}")
    return elapsed


def panel_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n").split("\t")[1:]


def draw_sets(truth_path: Path, ids: list[str], seed: int) -> list[tuple[int, ...]]:
    """Sets of size 1-3: some inside the simulated truth windows, the rest anywhere."""
    import numpy as np

    from beamscan.simulate import read_truth

    truth = read_truth(truth_path)
    window_snps = sorted({j for a, b in truth.windows for j in range(a, b + 1)})
    rng = np.random.default_rng(seed)
    sets = []
    for m in (1, 2, 3):
        for pool, count in ((window_snps, SETS_PER_SIZE_WINDOW), (len(ids), SETS_PER_SIZE_RANDOM)):
            for _ in range(count):
                sets.append(tuple(sorted(int(v) for v in rng.choice(pool, size=m, replace=False))))
    return sets


# -- output checks ----------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]


def _probabilities(values, what: str, problems: list[str]) -> None:
    bad = [v for v in values if not 0.0 <= v <= 1.0]
    if bad:
        problems.append(f"{what} outside [0, 1]: {bad[:3]}")


def check_posterior(path: Path, ids: list[str], ncols: int, problems: list[str]) -> None:
    """One row per SNP, probabilities in [0, 1], the first SNP opens a block."""
    rows = _rows(path)
    if [r[0] for r in rows] != ids or any(len(r) != ncols for r in rows):
        problems.append(f"{path.name}: expected {len(ids)} rows of {ncols} columns in SNP order")
        return
    probs = [[float(v) for v in r[2:]] for r in rows]
    _probabilities([v for r in probs for v in r], path.name, problems)
    if probs[0][-1] != 1.0:
        problems.append(f"{path.name}: p_boundary of the first SNP is {probs[0][-1]}, not 1")
    if ncols == 6:
        # p_assoc = p_marginal + p_epistatic, each printed to 6 decimals
        worst = max(abs(r[2] - r[0] - r[1]) for r in probs)
        if worst > 1.5e-6 + 1e-12:
            problems.append(f"{path.name}: p_assoc differs from p_marginal + p_epistatic by {worst}")


def check_outputs(wl: Workload, out: Path, ids, sets) -> tuple[list[str], list[Path]]:
    """Returns (problems, result TSVs)."""
    problems: list[str] = []
    results = [out]
    if wl.subcommand == "map":
        results.append(Path(str(out) + ".interactions.tsv"))
    missing = [p.name for p in results + [Path(str(out) + ".manifest.json")] if not p.exists()]
    if missing:
        return [f"missing outputs: {missing}"], []
    if wl.subcommand in ("map", "oracle"):
        check_posterior(out, ids, 6, problems)
    elif wl.subcommand == "partition":
        check_posterior(out, ids, 3, problems)
    if wl.subcommand == "map":
        _probabilities([float(r[1]) for r in _rows(results[1])], results[1].name, problems)
    if wl.subcommand == "bstat":
        rows = _rows(out)
        want = [",".join(ids[j] for j in s) for s in sets]
        if [r[0] for r in rows] != want:
            problems.append(f"{out.name}: expected one row per tested set, in order")
        else:
            lo = 1.0 / (N_PERM + 1)
            bad = [float(r[5]) for r in rows if not lo * (1 - 1e-5) <= float(r[5]) <= 1.0]
            if bad:
                problems.append(f"{out.name}: p-values outside [1/(n_perm+1), 1]: {bad[:3]}")
    return problems, results


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# -- one command --------------------------------------------------------------------


def run_command(argv, trace: bool, n_snps: int, workdir: Path, timeout: float) -> dict:
    """Run one command in a fresh interpreter; returns its report plus setup_s."""
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": argv, "result": str(report_path), "trace": int(trace), "n_snps": n_snps}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {"error": "no report"}
    if proc.returncode != 0 or report.get("error") or report.get("rc") != 0:
        report["error"] = report.get("error") or f"exit code {proc.returncode}"
        sys.stderr.write(proc.stderr[-4000:])
    else:
        # CLOCK_MONOTONIC is shared by all processes, so the child's stamp is comparable
        report["setup_s"] = report["ready"] - t_spawn
    return report


# -- the run ---------------------------------------------------------------------------


def machine_facts(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def median_metrics(samples: list[dict]) -> dict[str, float]:
    keys = samples[0].keys()
    return {k: statistics.median(s[k] for s in samples) for k in keys}


def prepare_input(cli, wl: Workload, seed: int, panel_seed: int, workdir: Path) -> Input:
    workdir.mkdir()
    panel = workdir / "panel.tsv"
    simulate_s = simulate_panel(cli, wl, panel_seed, panel)
    simulate_s *= REFERENCE_TASK_S / statistics.median(reference_times())
    ids = panel_ids(panel)
    out = workdir / "result.tsv"
    argv = [wl.subcommand, "--in", str(panel), "--out", str(out), *wl.flags]
    if wl.subcommand != "oracle":  # the only deterministic subcommand without --seed
        argv += ["--seed", str(seed)]
    sets = []
    if wl.subcommand == "bstat":
        sets = draw_sets(Path(str(panel) + ".truth.tsv"), ids, panel_seed)
        sets_path = workdir / "sets.tsv"
        sets_path.write_text("".join("\t".join(ids[j] for j in s) + "\n" for s in sets), encoding="utf-8")
        argv += ["--sets", str(sets_path)]
    return Input(panel, out, ids, sets, argv, simulate_s)


def benchmark(args, workdir: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import beamscan.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "beamscan").resolve():
        raise SetupError(f"beamscan was imported from {cli.__file__}, not from {SRC}")

    inputs = [
        prepare_input(cli, wl, args.seed, PANELS_PER_RUN * args.seed + k, workdir / f"panel{k}")
        for k in range(PANELS_PER_RUN)
    ]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    facts = machine_facts(args.seed, args.workload)
    facts["argv"] = inputs[0].argv
    attempted = failed = 0
    digests: list[str] = []
    plain: list[dict] = []
    raw: list[dict] = []
    traced: list[dict] = []
    layers = None
    durations: list[float] = []
    t_measure = time.monotonic()
    while True:
        round_start = time.monotonic()
        inp = inputs[len(durations) % len(inputs)]
        out = inp.out  # removed before each command, so a failed one cannot pass on stale files
        for trace in ((False, True) if args.trace else (False,)):
            for p in out.parent.glob(out.name + "*"):
                p.unlink()
            timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
            report = run_command(inp.argv, trace, len(inp.ids), workdir, timeout)
            attempted += 1
            problems = [report["error"]] if report.get("error") else []
            if not problems:
                problems, results = check_outputs(wl, out, inp.ids, inp.sets)
                if not problems:
                    digests.append(digest(results))
            if problems:
                failed += 1
                print(f"command {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
                continue
            if wl.subcommand == "oracle":
                manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
                work = manifest["states_enumerated"]
            elif wl.subcommand == "bstat":
                work = len(inp.sets) * N_PERM
            else:
                work = wl.iterations
            speed = REFERENCE_TASK_S / report["reference_task_s"]
            if trace:
                per_layer = {
                    k: v * speed if units.get(k) in TIME_UNITS else v
                    for k, v in report["per_layer"].items()
                }
                per_layer["trace.wall_s"] = report["wall_s"] * speed
                per_layer["dataio.input_mb"] = inp.panel.stat().st_size / 1e6
                per_layer["simulate.panel_s"] = inp.simulate_s
                traced.append(per_layer)
                layers = layers or {
                    k: report[k] for k in ("layers", "layers_corrected", "call_overhead_s")
                }
            else:
                raw.append({k: report[k] for k in ("setup_s", "wall_s", "reference_task_s")})
                plain.append(
                    {
                        "setup_s": report["setup_s"] * speed,
                        "wall_s": report["wall_s"] * speed,
                        "work_per_s": work / (report["wall_s"] * speed),
                        "peak_rss_mb": report["peak_rss_mb"],
                    }
                )
        durations.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - t_measure
        enough = len(durations) >= (1 if args.trace else MIN_COMMANDS)
        if failed and len(durations) >= 2 and not (plain or traced):
            break
        # stop when one more round would overrun --seconds by more than half a round
        if (enough and elapsed + statistics.median(durations) / 2 > args.seconds) or (
            time.monotonic() - started > DEADLINE_S
        ):
            break

    facts["commands"] = [{"raw": r, "scaled": p} for r, p in zip(raw, plain)]
    facts["digests"] = sorted(set(digests))
    if args.trace:
        if not traced or not plain:
            raise SetupError("no traced command succeeded")
        metrics = median_metrics(traced)
        metrics["trace.overhead_ratio"] = metrics.pop("trace.wall_s") / statistics.median(
            s["wall_s"] for s in plain
        )
        facts["layer_self_s"] = layers
        section = "per_layer"
    else:
        if not plain:
            raise SetupError("no command succeeded")
        metrics = median_metrics(plain)
        section = "end_to_end"
    missing = [m["name"] for m in declared[section] if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared[section]},
    }
    return facts, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "beamscan" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a beamscan checkout (src/beamscan, BENCHMARK.json)", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        facts, result = benchmark(args, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
