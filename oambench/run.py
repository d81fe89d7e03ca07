#!/usr/bin/env python3
"""End-to-end benchmark of the ``oamc`` CLI on seeded workloads.

Run from the repository root:

    python3 oambench/run.py --workload wide-ideal --seed 0 --seconds 60 --trace 0
    python3 oambench/run.py --smoke

One client drives ``python -m oamcomp.cli`` (with ``PYTHONPATH=src``) as a
closed loop, one process at a time. A pass runs the reference task
(``speedref.py``), ``--help`` and then the workload's commands in order;
passes repeat until ``--seconds`` is used up. Every command time is
reported relative to the time of the reference task in the same pass (unit
``ref``), as the median over the passes after the first, which is a
warm-up. ``setup_s`` is the
median cold start in seconds. The first pass's outputs are checked against the
independent interpreter in ``reference.py``; every later pass must write
byte-identical files. A command fails on a non-zero exit or a failed check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs two
untraced passes and then the per-layer probes of ``layers.py`` in-process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report. A full record with provenance is written to
``.oambench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

#: BLAS thread count of this process and of every CLI process. The matrices
#: are at most 16 x 16, so a second BLAS thread saves nothing and only busies
#: the other core: with it, a d=16 compile used 14% more CPU time than wall
#: time on a 2-core machine. Set before numpy is imported, and inherited by
#: the CLI processes.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import numpy as np  # noqa: E402

import reference  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".oambench"
SPEEDREF = Path(__file__).resolve().parent / "speedref.py"

#: Tolerance of every comparison against the reference interpreter.
REFERENCE_TOL = 1e-9
MIN_PASSES = 2
#: Seed of the Monte Carlo sampling step on every workload seed. Where each
#: run is absorbed depends on this stream and not on the unitary, so with one
#: stream the sampling work is the same on every workload seed (common random
#: numbers); with the workload seed as sampling seed it varied by 16% at 10
#: runs, more than the rest of a run's spread.
SAMPLING_SEED = 0
#: The timed CLI steps of a pass, in order; "sample" runs on sampling workloads.
STEPS = ("compile", "simulate", "sample", "verify")
#: CPU-second limit of one CLI process, so that a hung command cannot stall
#: the run past its deadline.
COMMAND_CPU_LIMIT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    stages: int | str  # Zeno stage count N, or "ideal"
    dense_input: bool  # Haar-random dense input state, else basis |0>
    mc_runs: int  # runs of the Monte Carlo sampling step, 0 for none
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-ideal", 16, "ideal", True, 0,
            "register width: 121 factors, 1085 elements and a 105 KB netlist; "
            "no Zeno chain runs, so extraction changes should not move it",
        ),
        Workload(
            "zeno-sample", 4, 100, False, 20,
            "Zeno chain and sampling: 28 macro gates of 201 primitives are most of "
            "compile and verify, and 20 Monte Carlo runs branch at every filter",
        ),
    )
}

#: The end-to-end metrics of ``--trace 0``: name -> (unit, better). A ``ref``
#: is the time of the reference task (``speedref.py``) in the same pass.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "compile_rel": ("ref", "lower"),
    "simulate_rel": ("ref", "lower"),
    "verify_rel": ("ref", "lower"),
    "pipeline_rel": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "element_count": ("count", "lower"),
    "survival": ("probability", "higher"),
}


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The workload's target unitary and input state, both from ``seed``."""
    from oamcomp.compiler import haar_random_unitary

    rng = np.random.default_rng(seed)
    U = haar_random_unitary(w.d, rng)
    if w.dense_input:
        psi = rng.normal(size=w.d) + 1j * rng.normal(size=w.d)
        psi /= np.linalg.norm(psi)
    else:
        psi = np.zeros(w.d, dtype=complex)
        psi[0] = 1.0
    return U, psi


def unitary_json(U: np.ndarray) -> dict:
    return {"d": U.shape[0], "rows": [[[z.real, z.imag] for z in row] for row in U]}


def state_json(psi: np.ndarray) -> dict:
    amps = [
        {"mode": 0, "l": l, "re": z.real, "im": z.imag}
        for l, z in enumerate(psi)
        if z != 0
    ]
    return {"n": len(psi).bit_length() - 1, "amplitudes": amps}


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# The CLI as a closed-loop client


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (COMMAND_CPU_LIMIT_S, COMMAND_CPU_LIMIT_S))


@dataclass
class Cli:
    """Runs ``oamc`` commands one at a time and counts what failed."""

    env: dict
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    errors: list = field(default_factory=list)

    def run(self, *args: str) -> float | None:
        """Wall time of one command, or ``None`` if it exited non-zero."""
        self.attempted += 1
        return self._spawn([sys.executable, "-m", "oamcomp.cli", *map(str, args)],
                           str(args[0]))

    def reference(self) -> float | None:
        """Wall time of the reference task, or ``None`` if it failed.

        The task is not an operation of the CLI, so it is counted as
        attempted only when it fails, and its memory is not CLI memory.
        """
        rss = self.peak_rss_mb
        elapsed = self._spawn([sys.executable, str(SPEEDREF)], "reference task")
        self.peak_rss_mb = rss
        if elapsed is None:
            self.attempted += 1
        return elapsed

    def _spawn(self, cmd: list, label: str) -> float | None:
        with open(WORK / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err, preexec_fn=_limit_cpu)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if code != 0:
            stderr = (WORK / "stderr.txt").read_text(errors="replace").strip()
            self.fail(f"{label} exited {code}: {stderr[-400:]}")
            return None
        return elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


@dataclass
class Files:
    unitary: Path
    state: Path
    outputs: list = field(default_factory=list)  # per pass: {step: {label: Path}}


def steps(w: Workload, files: Files, index: int) -> list:
    """The workload's commands as ``(step, args, {label: output path})``."""
    out = {label: WORK / f"{label}.{index}.json"
           for label in ("netlist", "report", "simulate", "sample", "verify")}
    plan = [
        ("compile", ["compile", "--input", files.unitary, "--output", out["netlist"],
                     "--report", out["report"], "--spec-n", w.stages],
         {"netlist": out["netlist"], "report": out["report"]}),
        ("simulate", ["simulate", "--netlist", out["netlist"], "--input", files.state,
                      "--output", out["simulate"]], {"simulate": out["simulate"]}),
    ]
    if w.mc_runs:
        plan.append(("sample", ["simulate", "--netlist", out["netlist"], "--input",
                                files.state, "--output", out["sample"], "--monte-carlo",
                                w.mc_runs, "--seed", SAMPLING_SEED],
                     {"sample": out["sample"]}))
    plan.append(("verify", ["verify", "--netlist", out["netlist"], "--input",
                            files.unitary, "--output", out["verify"]],
                 {"verify": out["verify"]}))
    return plan


def run_pass(cli: Cli, w: Workload, files: Files, times: dict) -> bool:
    """One pass of the workload; returns False if a command failed.

    Pass 0 warms the file cache and writes the outputs that are checked;
    only the passes after it are timed.
    """
    index = len(files.outputs)
    timed = times if index > 0 else {step: [] for step in times}
    elapsed = cli.reference()
    if elapsed is None:
        return False
    timed["reference"].append(elapsed)
    elapsed = cli.run("--help")
    if elapsed is None:
        return False
    timed["setup"].append(elapsed)
    produced = {}
    files.outputs.append(produced)
    for step, args, outputs in steps(w, files, index):
        elapsed = cli.run(*args)
        if elapsed is None:
            return False
        produced[step] = outputs
        if index > 0:
            first = files.outputs[0][step]
            changed = [label for label, path in outputs.items()
                       if path.read_bytes() != first[label].read_bytes()]
            if changed:
                cli.fail(f"{step}: pass {index} output {changed} differs from pass 0")
                return False
        timed[step].append(elapsed)
    if index > 0:
        for outputs in produced.values():
            for path in outputs.values():
                path.unlink()
    return True


def measure(cli: Cli, w: Workload, files: Files, seconds: float,
            max_passes: int | None) -> dict:
    """Run passes until ``seconds`` is used up (at least ``MIN_PASSES``)."""
    times = {key: [] for key in ("setup", *STEPS, "reference")}
    durations = []
    start = time.perf_counter()
    while len(durations) < (max_passes or math.inf):
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_PASSES and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
        pass_start = time.perf_counter()
        if not run_pass(cli, w, files, times):
            break
        durations.append(time.perf_counter() - pass_start)
        if len(durations) == 1:
            check_against_reference(cli, w, files)
            if cli.failed:
                break
    return times


# ---------------------------------------------------------------------------
# Checks against the reference interpreter


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_TOL


def check_against_reference(cli: Cli, w: Workload, files: Files) -> None:
    """Check pass 0's outputs; each failing command counts once."""
    out = files.outputs[0]
    load = lambda step, label: json.loads(out[step][label].read_text())  # noqa: E731
    netlist = load("compile", "netlist")
    report = load("compile", "report")
    U = reference.unitary_from_json(json.loads(files.unitary.read_text()))
    psi = reference.state_vector(json.loads(files.state.read_text()), w.d)
    basis_and_input = np.hstack([np.eye(w.d), psi[:, None]])
    field_ = reference.run(netlist, basis_and_input)
    ideal = reference.run(netlist, np.eye(w.d), ideal_macros=True)
    ref_residual = reference.residual(netlist, field_, U)
    ref_survival = reference.survival(field_)

    problems = {step: [] for step in out}
    ideal_error = float(np.linalg.norm(reference.computational(ideal, w.d) - U))
    if not ideal_error <= REFERENCE_TOL:
        problems["compile"].append(f"ideal response differs from U by {ideal_error:.3e}")
    if not reference.leakage(ideal, w.d) <= REFERENCE_TOL:
        problems["compile"].append("ideal response leaks out of mode 0's levels")
    if report["element_count"] != len(netlist["elements"]):
        problems["compile"].append("report element_count != netlist length")
    if not _close(report["verification_residual"], ref_residual):
        problems["compile"].append(
            f"report residual {report['verification_residual']} != {ref_residual}")
    if not _close(report["analytic_survival"], ref_survival[0]):
        problems["compile"].append(
            f"report survival {report['analytic_survival']} != {ref_survival[0]}")

    sim = load("simulate", "simulate")
    expected = reference.amplitudes(field_, w.d)
    got = {(e["mode"], e["l"]): complex(e["re"], e["im"])
           for e in sim["state"]["amplitudes"]}
    worst = max((abs(got.get(k, 0) - expected.get(k, 0)) for k in {*got, *expected}),
                default=0.0)
    if not worst <= REFERENCE_TOL:
        problems["simulate"].append(f"output amplitudes differ by {worst:.3e}")
    if not _close(sim["survival"], ref_survival[w.d]):
        problems["simulate"].append(f"survival {sim['survival']} != {ref_survival[w.d]}")

    if "sample" in out:
        mc = load("sample", "sample")
        p = float(ref_survival[w.d])
        runs, successes = mc["monte_carlo"]["runs"], mc["monte_carlo"]["successes"]
        if runs != w.mc_runs or mc["monte_carlo"]["seed"] != SAMPLING_SEED:
            problems["sample"].append(f"sampled {runs} runs with seed "
                                      f"{mc['monte_carlo']['seed']}")
        if not abs(successes - runs * p) <= reference.mc_bound(runs, p):
            problems["sample"].append(
                f"{successes}/{runs} successes, reference survival {p:.4f}")
        if mc["state"] != sim["state"] or mc["survival"] != sim["survival"]:
            problems["sample"].append("deterministic part differs from simulate")

    residual = load("verify", "verify")["verification_residual"]
    if not _close(residual, ref_residual):
        problems["verify"].append(f"residual {residual} != reference {ref_residual}")
    if reference.is_lossless(netlist) and not residual <= REFERENCE_TOL:
        problems["verify"].append(f"lossless residual {residual} is not rounding noise")

    for step, messages in problems.items():
        if messages:
            cli.fail(f"{step}: " + "; ".join(messages))


# ---------------------------------------------------------------------------
# Metrics and report


def relative(times: dict, names: list) -> float:
    """Median over the passes of the named steps' time over the time of the
    reference task in the same pass."""
    return statistics.median(sum(times[step][i] for step in names) / ref
                             for i, ref in enumerate(times["reference"]))


def end_to_end(times: dict, cli: Cli, files: Files) -> dict:
    first = files.outputs[0]
    report = json.loads(first["compile"]["report"].read_text())
    survival = json.loads(first["simulate"]["simulate"].read_text())["survival"]
    pipeline = [step for step in STEPS if times[step]]
    return {
        "setup_s": statistics.median(times["setup"]),
        "compile_rel": relative(times, ["compile"]),
        "simulate_rel": relative(times, ["simulate"]),
        "verify_rel": relative(times, ["verify"]),
        "pipeline_rel": relative(times, pipeline),
        "peak_rss_mb": cli.peak_rss_mb,
        "element_count": report["element_count"],
        "survival": survival,
    }


def print_report(w: Workload, times: dict, cli: Cli, e2e: dict | None, extra: dict) -> None:
    print(f"workload {w.name}: d={w.d} stages={w.stages} mc_runs={w.mc_runs}")
    for step, samples in times.items():
        if samples:
            note = ("the yardstick of the _rel metrics" if step == "reference"
                    else "lower is better")
            print(f"  {step + '_s':<14} median {statistics.median(samples):.4f} s "
                  f"(min {min(samples):.4f}, max {max(samples):.4f}, n={len(samples)}) "
                  + note)
    for name, value in (e2e or {}).items():
        if name != "setup_s":  # timings are printed above
            unit, better = END_TO_END[name]
            print(f"  {name:<14} {value:.6g} {unit} ({better} is better)")
    for name, value in extra.items():
        print(f"  {name:<14} {value}")
    share = cli.failed / cli.attempted if cli.attempted else 0.0
    print(f"  failed_share   {share:.4g} ({cli.failed} failed of {cli.attempted} "
          "attempted, lower is better)")
    for message in cli.errors:
        print(f"  FAILED: {message}")


def provenance(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ,
                                                  GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(w),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 max_passes: int | None = None) -> dict:
    """Run one workload and return the result object printed as the last line."""
    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    cli = Cli(env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    U, psi = make_inputs(w, seed)
    files = Files(write_json(WORK / "unitary.json", unitary_json(U)),
                  write_json(WORK / "state.json", state_json(psi)))
    times = measure(cli, w, files, seconds, MIN_PASSES if trace else max_passes)
    e2e = None
    extra = {}
    if not cli.failed:
        e2e = end_to_end(times, cli, files)
        first = files.outputs[0]
        # Checked against the reference but not a metric: it varies by 30%
        # from one Haar-random unitary to the next, and is rounding noise
        # on ideal netlists.
        verify = json.loads(first["verify"]["verify"].read_text())
        extra["residual"] = f"{verify['verification_residual']:.6g} (lower is better)"
        if w.mc_runs:
            mc = json.loads(first["sample"]["sample"].read_text())["monte_carlo"]
            extra["mc_successes"] = f"{mc['successes']} of {mc['runs']}"
    spans = None
    metrics = {}
    if trace and not cli.failed:
        import layers

        metrics, spans = layers.trace_workload(w, seed, SAMPLING_SEED, files, times, cli,
                                               WORKLOADS["zeno-sample"], make_inputs)
    elif e2e:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in e2e.items()}
    print_report(w, times, cli, e2e, extra)
    result = {"correct": cli.failed == 0, "attempted": cli.attempted,
              "failed": cli.failed, "metrics": metrics}
    record = {"provenance": provenance(w, seed, seconds, trace), "result": result,
              "samples": times, "errors": cli.errors, "spans": spans}
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    write_json(WORK / "results" / f"{stem}.json", record)
    for path in WORK.glob("*.json"):
        path.unlink()
    return result


# ---------------------------------------------------------------------------
# Entry point


def smoke() -> int:
    """Both pipelines at a tiny size through the same code path."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = (
        Workload("wide-ideal", 4, "ideal", True, 0, ""),
        Workload("zeno-sample", 4, 5, False, 4, ""),
    )
    ok = [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"] for m in declared[kind]}
        for w in tiny:
            result = run_workload(w, 0, 0.0, trace, max_passes=MIN_PASSES)
            ok &= result["correct"] and set(result["metrics"]) == names
    print("smoke", "ok" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every pipeline at a tiny size and check the output")
    args = parser.parse_args()
    if not (ROOT / "src" / "oamcomp" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/oamcomp; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
