"""Command-line front end: compile, simulate, verify, zeno-sweep, readout.

All randomness flows from one explicit ``--seed`` (default 0) and output
files are written atomically with sorted keys, so identical invocations
produce byte-identical outputs.  Exit codes: 0 success; 1 internal error (a
check on the program's own result failed, such as the ideal-mode residual
guard; no output is written); 2 bad input, whether a bad option (error type
``usage``) or a bad file (``validation``); 3 I/O failure (``io``).  Every
failure prints one JSON object ``{"error": {"type": ..., "message": ...}}``
on stderr.  Options are parsed by ``argparse``, and each command imports
only the modules it runs: ``--help`` loads no ``oamcomp`` module but
``errors``, and no command loads numpy: ``simulate --monte-carlo`` and
``readout`` draw from :mod:`oamcomp.rng`, which reproduces the stream of
numpy's ``default_rng(seed)`` in plain Python.  The process
entry point :func:`run` freezes the heap before teardown; :func:`main`, the
in-process entry, leaves the garbage collector alone.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import tempfile

from .errors import InternalError, ValidationError

EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each ``(path, text)``: to stdout if ``path`` is None, else to the
    file ``path``.  The files are written all or none: each goes to a
    temporary file beside it, none is moved into place before all are
    written, and on a failure every temporary file is removed."""
    temps: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            if path is not None:
                directory = os.path.dirname(os.path.abspath(path))
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oamc-")
                temps.append((tmp, path))
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    sys.stdout.write("".join(text for path, text in outputs if path is None))


def _json(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"refusing to write a non-finite value: {exc}") from exc


def _read_json(path: str) -> dict:
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad syntax, encoding or nesting
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def _fail(kind: str, message: str, code: int) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """``argparse`` as ``oamc`` uses it, for the program and each command:
    whole option names only (``--mon`` is unknown, not ``--monte-carlo``),
    ``--help`` as the one help option, a help text that opens with
    ``Usage:``, and every parse error a JSON ``usage`` error with exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def format_help(self) -> str:
        return "Usage:" + super().format_help().removeprefix("usage:")

    def error(self, message: str) -> None:
        _fail("usage", message, EXIT_VALIDATION)


def _integer(text: str, low: int = 0, high: int | None = None) -> int:
    """``text`` as an integer in ``[low, high]``; the type of a count option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be <= {high}, not {value}")
    return value


def _stages(text: str) -> int | str:
    """``--spec-n``: ``ideal`` or a stage count in ``[1, MAX_STAGES]``."""
    from .elements import IDEAL, MAX_STAGES
    return IDEAL if text == IDEAL else _integer(text, low=1, high=MAX_STAGES)


def _stage_list(text: str) -> list[int]:
    """``--n-list``: comma-separated stage counts, each in ``[1, MAX_STAGES]``;
    an empty entry, and so an empty list, is an error."""
    from .elements import MAX_STAGES
    return [_integer(tok, low=1, high=MAX_STAGES) for tok in text.split(",")]


def _runs(text: str) -> int:
    """``--monte-carlo``: at most ``MAX_STAGES`` (2**53) runs, the bound
    within which a run count is exact as a double, as ``binomial`` takes it."""
    from .elements import MAX_STAGES
    return _integer(text, high=MAX_STAGES)


def cmd_compile(args) -> None:
    """Lower a unitary (JSON matrix) to an optical netlist plus report."""
    from . import compiler
    U = compiler.unitary_from_json(_read_json(args.input))
    netlist, report = compiler.compile_unitary(U, args.spec_n)
    _write((args.output, _json(netlist.to_json_dict())), (args.report, _json(report.asdict())))


def cmd_simulate(args) -> None:
    """Evolve a state file through a netlist file."""
    from .elements import Netlist, is_lossy, run_netlist
    from .state import PhotonState, survival_probability
    netlist = Netlist.from_json_dict(_read_json(args.netlist))
    state = PhotonState.from_json_dict(_read_json(args.input))
    final = run_netlist(state, netlist)
    survival, runs, payload = survival_probability(final), args.monte_carlo, {}
    if runs > 0:
        # A run passes every filter with the output's share of the input's
        # norm (rounding can push it past 1); an input of norm 0 passes only
        # a netlist that absorbs nothing.
        from .rng import default_rng
        initial = survival_probability(state)
        if initial:
            p = min(survival, initial) / initial
        else:
            p = float(not any(map(is_lossy, netlist.elements)))
        successes = default_rng(args.seed).binomial(runs, p)
        payload["monte_carlo"] = {
            "runs": runs, "successes": successes, "success_rate": successes / runs,
            "seed": args.seed,
        }
    payload.update(state=final.to_json_dict(), survival=survival)
    _write((args.output, _json(payload)))


def cmd_verify(args) -> None:
    """Compare a netlist's basis response against a target unitary."""
    from . import compiler
    from .elements import Netlist
    netlist = Netlist.from_json_dict(_read_json(args.netlist))
    U = compiler.unitary_from_json(_read_json(args.input))
    residual = compiler.reconstruct_and_verify(netlist, U)
    _write((args.output, _json({"verification_residual": residual})))


def cmd_zeno_sweep(args) -> None:
    """Survival of a non-extracted component versus Zeno stage count (CSV)."""
    from . import extraction
    from .elements import ExtractGate, apply_element
    from .state import basis_state, survival_probability
    # No column can hold a comma: an int and three ``repr`` floats.
    rows = ["N,analytic_survival,simulated_survival,bound_1_minus_pi2_over_4N"]
    for stages in args.n_list:
        gate = ExtractGate(m=args.m, src=0, dst=1, stages=stages)
        # Probe with a single component the gate does not extract.
        probe = basis_state(0, args.m + 1, n=1)
        simulated = survival_probability(apply_element(probe, gate))
        rows.append(f"{stages},{extraction.component_survival(stages)!r},{simulated!r},"
                    f"{extraction.survival_lower_bound(stages)!r}")
    _write((args.output, "\n".join(rows) + "\n"))


def cmd_readout(args) -> None:
    """Plan or sample a readout of the final OAM state."""
    from . import readout as readout_mod
    from .rng import default_rng
    from .state import PhotonState
    state = PhotonState.from_json_dict(_read_json(args.input))
    if args.mode not in state.modes():
        raise ValidationError(f"--mode {args.mode} holds no amplitude in {args.input}")
    rng = default_rng(args.seed)
    payload: dict = {"strategy": args.strategy, "n": state.n, "seed": args.seed}
    if args.strategy == "sorter":
        cost, payload["exponential_warning"] = readout_mod.sorter_cost(state.n)
        payload["sampled_l"] = readout_mod.sample_full_measurement(state, args.mode, rng)
    elif args.strategy == "repeat":
        payload["bits"], cost = readout_mod.repeated_run_readout(state, rng, mode=args.mode)
    else:
        path_state, cost = readout_mod.demux(state, args.mode)
        payload["amplitudes"] = {
            bits: [amp.real, amp.imag]
            for bits, amp in sorted(path_state.amplitudes.items())
        }
        if len(path_state.amplitudes) == 1:
            payload["bits"] = next(iter(path_state.amplitudes))
    payload["cost"] = cost.asdict()
    _write((args.output, _json(payload)))


def _parser() -> _Parser:
    parser = _Parser(prog="oamc", description=(
        "Compiler and simulator for OAM-encoded single-photon computing."))
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, fn):
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub.add_argument

    seed = dict(type=_integer, default=0, help="Random seed >= 0 (default: %(default)s).")
    option = command("compile", cmd_compile)
    option("--input", required=True)
    option("--output", required=True)
    option("--report")
    option("--spec-n", type=_stages, default="ideal", metavar="INT|ideal",
           help="Zeno stages per extraction gate (default: %(default)s). A gate of 1 "
                "stage absorbs all but 6e-17 of each component it does not extract: a "
                "general unitary at d = 4 compiles with survival 0.0 unless a column's norm "
                "is below the smallest normal double, and at d >= 8 fails as fully absorbed.")
    option = command("simulate", cmd_simulate)
    option("--netlist", required=True)
    option("--input", required=True)
    option("--output")
    option("--seed", **seed)
    option("--monte-carlo", type=_runs, default=0, metavar="RUNS",
           help="Also sample this many absorption-event runs.")
    option = command("verify", cmd_verify)
    option("--netlist", required=True)
    option("--input", required=True, help="Target unitary the netlist should implement.")
    option("--output")
    option = command("zeno-sweep", cmd_zeno_sweep)
    option("--m", type=int, default=0,
           help="OAM index the gate extracts (default: %(default)s).")
    option("--n-list", type=_stage_list, default="1,3,10,100,1000",
           help="Comma-separated stage counts (default: %(default)s).")
    option("--output")
    option = command("readout", cmd_readout)
    option("--input", required=True)
    option("--strategy", choices=["sorter", "repeat", "demux"], required=True)
    option("--mode", type=_integer, default=0,
           help="Spatial mode to read out (default: %(default)s).")
    option("--seed", **seed)
    option("--output")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run one ``oamc`` command, given its arguments (``sys.argv[1:]`` by
    default).  Without arguments, print the help on stderr and exit 2."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_help(sys.stderr)
        sys.exit(EXIT_VALIDATION)
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except ValidationError as exc:
        _fail("validation", str(exc), EXIT_VALIDATION)
    except OSError as exc:
        _fail("io", str(exc), EXIT_IO)
    except InternalError as exc:
        _fail("internal", str(exc), EXIT_INTERNAL)


def run() -> None:
    """Entry point of the ``oamc`` process: run one command, then freeze the
    heap at exit, so that the collections of interpreter teardown skip the
    objects the command left instead of walking them all."""
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
