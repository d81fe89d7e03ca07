"""Command-line front end: compile, simulate, verify, zeno-sweep, readout.

All randomness flows from one explicit ``--seed`` (default 0) and output
files are written atomically with sorted keys, so identical invocations
produce byte-identical outputs.  Exit codes: 0 success; 1 internal error (a
check on the program's own result failed, such as the ideal-mode residual
guard; no output is written); 2 bad input, whether a bad option (error type
``usage``) or a bad file (``validation``); 3 I/O failure (``io``).  Every
failure prints one JSON object ``{"error": {"type": ..., "message": ...}}``
on stderr.  Each command imports only the modules it runs, so ``--help``
and ``simulate`` without ``--monte-carlo`` start without numpy.  The
process entry point :func:`run` freezes the heap before teardown;
:func:`main`, the click group, leaves the garbage collector alone.
"""

from __future__ import annotations

import atexit
import csv
import functools
import gc
import io
import json
import os
import sys
import tempfile

import click

from .elements import IDEAL, Netlist, run_netlist
from .errors import InternalError, ValidationError
from .state import PhotonState, basis_state, survival_probability

EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oamc-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"refusing to write a non-finite value: {exc}") from exc
    if path is None:
        click.echo(text, nl=False)
    else:
        _atomic_write(path, text)


def _read_json(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad syntax, encoding or nesting
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def _fail(kind: str, message: str, code: int) -> None:
    click.echo(json.dumps({"error": {"type": kind, "message": message}}), err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            _fail("validation", str(exc), EXIT_VALIDATION)
        except OSError as exc:
            _fail("io", str(exc), EXIT_IO)
        except InternalError as exc:
            _fail("internal", str(exc), EXIT_INTERNAL)

    return wrapper


class JsonUsageGroup(click.Group):
    """A command group that reports click's usage errors (a bad option value,
    an unknown option or command) as JSON with exit code 2, like every other
    failure.  ``oamc`` without arguments still prints the help."""

    def make_context(self, info_name, args, parent=None, **extra):
        bare = not args
        try:
            return super().make_context(info_name, args, parent, **extra)
        except click.UsageError as exc:
            if bare:
                raise
            _fail("usage", exc.format_message(), exc.exit_code)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail("usage", exc.format_message(), exc.exit_code)


class StagesParam(click.ParamType):
    name = "int|ideal"

    def convert(self, value, param, ctx):
        if isinstance(value, int) or value == IDEAL:
            return value
        try:
            stages = int(value)
        except ValueError:
            self.fail(f"{value!r} is neither an integer nor 'ideal'", param, ctx)
        if stages < 1:
            self.fail("stage count must be >= 1", param, ctx)
        return stages


STAGES = StagesParam()


@click.group(cls=JsonUsageGroup)
def main() -> None:
    """Compiler and simulator for OAM-encoded single-photon computing."""


@main.command("compile")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--spec-n", "spec_stages", type=STAGES, default=IDEAL, show_default=True)
@_guarded
def cmd_compile(input_path, output_path, report_path, spec_stages) -> None:
    """Lower a unitary (JSON matrix) to an optical netlist plus report."""
    from . import compiler
    U = compiler.unitary_from_json(_read_json(input_path))
    compiler.qubit_count_for(U.shape[0])
    netlist, report = compiler.compile_unitary(U, spec_stages)
    _write_json(output_path, netlist.to_json_dict())
    _write_json(report_path, report.to_json_dict())


@main.command("simulate")
@click.option("--netlist", "netlist_path", required=True, type=click.Path())
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--monte-carlo", "mc_runs", type=click.IntRange(min=0), default=0,
              help="Also sample this many absorption-event runs.")
@_guarded
def cmd_simulate(netlist_path, input_path, output_path, seed, mc_runs) -> None:
    """Evolve a state file through a netlist file."""
    netlist = Netlist.from_json_dict(_read_json(netlist_path))
    state = PhotonState.from_json_dict(_read_json(input_path))
    payload = {}
    if mc_runs > 0:
        # One pass gives both the output state and the loss profile to sample.
        import numpy as np
        from . import extraction
        profile = extraction.loss_profile(state, netlist)
        final = profile.final
        rate = extraction.monte_carlo_survival(profile, mc_runs, np.random.default_rng(seed))
        payload["monte_carlo"] = {
            "runs": mc_runs,
            "successes": round(rate * mc_runs),
            "success_rate": rate,
            "seed": seed,
        }
    else:
        final = run_netlist(state, netlist)
    payload.update(state=final.to_json_dict(), survival=survival_probability(final))
    _write_json(output_path, payload)


@main.command("verify")
@click.option("--netlist", "netlist_path", required=True, type=click.Path())
@click.option("--input", "input_path", required=True, type=click.Path(),
              help="Target unitary the netlist should implement.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@_guarded
def cmd_verify(netlist_path, input_path, output_path) -> None:
    """Compare a netlist's basis response against a target unitary."""
    from . import compiler
    netlist = Netlist.from_json_dict(_read_json(netlist_path))
    U = compiler.unitary_from_json(_read_json(input_path))
    residual = compiler.reconstruct_and_verify(netlist, U)
    _write_json(output_path, {"verification_residual": residual})


@main.command("zeno-sweep")
@click.option("--m", "m", type=int, default=0, show_default=True,
              help="OAM index the gate extracts.")
@click.option("--n-list", "n_list", default="1,3,10,100,1000", show_default=True,
              help="Comma-separated stage counts.")
@click.option("--output", "output_path", type=click.Path(), default=None)
@_guarded
def cmd_zeno_sweep(m, n_list, output_path) -> None:
    """Survival of a non-extracted component versus Zeno stage count (CSV)."""
    from . import extraction
    try:
        stages_list = [int(tok) for tok in n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --n-list: {exc}") from exc
    if any(s < 1 for s in stages_list):
        raise ValidationError("all stage counts must be >= 1")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["N", "analytic_survival", "simulated_survival", "bound_1_minus_pi2_over_4N"]
    )
    for stages in stages_list:
        spec = extraction.ExtractionSpec(m=m, src=0, dst=1, stages=stages)
        # Probe with a single component the gate does not extract.
        probe = basis_state(0, m + 1, n=1)
        simulated = survival_probability(extraction.zeno_extract(probe, spec))
        writer.writerow(
            [
                stages,
                repr(extraction.component_survival(stages)),
                repr(simulated),
                repr(extraction.survival_lower_bound(stages)),
            ]
        )
    if output_path is None:
        click.echo(buffer.getvalue(), nl=False)
    else:
        _atomic_write(output_path, buffer.getvalue())


@main.command("readout")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--strategy", type=click.Choice(["sorter", "repeat", "demux"]),
              required=True)
@click.option("--mode", type=click.IntRange(min=0), default=0, show_default=True,
              help="Spatial mode to read out.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None)
@_guarded
def cmd_readout(input_path, strategy, mode, seed, output_path) -> None:
    """Plan or sample a readout of the final OAM state."""
    import numpy as np
    from . import readout as readout_mod
    state = PhotonState.from_json_dict(_read_json(input_path))
    if mode not in state.modes():
        raise ValidationError(f"--mode {mode} holds no amplitude in {input_path}")
    rng = np.random.default_rng(seed)
    payload: dict = {"strategy": strategy, "n": state.n, "seed": seed}
    if strategy == "sorter":
        cost, warn = readout_mod.sorter_cost(state.n)
        payload["cost"] = cost.to_json_dict()
        payload["exponential_warning"] = warn
        payload["sampled_l"] = readout_mod.sample_full_measurement(state, mode, rng)
    elif strategy == "repeat":
        bits, cost = readout_mod.repeated_run_readout(lambda: state, state.n, rng,
                                                      mode=mode)
        payload["cost"] = cost.to_json_dict()
        payload["bits"] = bits
    else:
        path_state, cost = readout_mod.demux(state, mode)
        payload["cost"] = cost.to_json_dict()
        payload["amplitudes"] = {
            bits: [amp.real, amp.imag]
            for bits, amp in sorted(path_state.amplitudes.items())
        }
        if len(path_state.amplitudes) == 1:
            payload["bits"] = next(iter(path_state.amplitudes))
    _write_json(output_path, payload)


def run() -> None:
    """Entry point of the ``oamc`` process: run one command, then freeze the
    heap at exit, so that the collections of interpreter teardown skip the
    objects the command left instead of walking them all."""
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
