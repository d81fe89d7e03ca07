"""Command-line front end: compile, simulate, verify, zeno-sweep, readout.

All randomness flows from one explicit ``--seed`` (default 0) and output
files are written atomically with sorted keys, so identical invocations
produce byte-identical outputs.  Exit codes: 0 success; 1 internal error (a
check on the program's own result failed, such as the ideal-mode residual
guard; no output is written); 2 bad input, whether a bad option (error type
``usage``) or a bad file (``validation``); 3 I/O failure (``io``).  Every
failure prints one JSON object ``{"error": {"type": ..., "message": ...}}``
on stderr, or nothing if it has none or cannot be written, never on stdout.
Options are read from one table, ``_COMMANDS``, and each command imports only
the modules it runs: ``--help`` loads no ``oamcomp`` module but ``errors``;
no command loads numpy, ``tempfile``, ``typing``, a parser library or
:mod:`oamcomp.extraction`; only ``simulate --monte-carlo`` and ``readout``
load ``random`` and draw from ``random.Random(seed)``, whose stream CPython
keeps across releases, and the successes of ``--monte-carlo`` are numpy's
binomial algorithm on it (:mod:`oamcomp.rng`).
``--help`` loads no ``json`` either.  The process entry point :func:`run`
ends the process with ``os._exit``, skipping interpreter teardown; :func:`main`,
the in-process entry, neither ends the process nor touches the collector.
"""

from __future__ import annotations

import atexit
import os
import sys
import types

from .errors import InternalError, ValidationError

EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _write(*outputs: tuple[str | None, str]) -> None:
    """Write each ``(path, text)``: to stdout if ``path`` is None, else to the
    file ``path``.  The files are written all or none: each goes to a new file
    beside it (``open(tmp, "x")``, the umask's mode), none is moved into place
    before all are written, and on a failure every one is removed.  Text due
    to a missing stdout is an ``OSError`` before any file is written."""
    shown = "".join(text for path, text in outputs if path is None)
    if shown and sys.stdout is None:
        raise OSError("cannot write to stdout: the process has none")
    temps: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            if path is not None:
                tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                                   f".oamc-{os.getpid()}-{os.urandom(6).hex()}")
                with open(tmp, "x") as handle:
                    temps.append((tmp, path))
                    handle.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    if shown:
        sys.stdout.write(shown)


def _json(payload, indent: int | None = 2, separators: tuple[str, str] | None = None) -> str:
    import json
    try:
        return json.dumps(payload, indent=indent, separators=separators, sort_keys=True,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"refusing to write a non-finite value: {exc}") from exc


def _netlist_json(netlist: dict) -> str:
    """``_json(netlist)`` of a netlist's dict, byte for byte, from json's C encoder,
    which any ``indent`` turns off.  The separators indent each flat element's
    keys; an encoded string holds no raw newline, so ``},\\n      {`` occurs only
    between elements, and their braces are then put on lines of their own."""
    elements = _json(netlist["elements"], None, (",\n      ", ": "))[:-1]
    if elements != "[]":
        keys = elements[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        elements = "[\n    {\n      " + keys + "\n    }\n  ]"
    head = _json({**netlist, "elements": []})
    return head.replace('"elements": []', '"elements": ' + elements, 1)


def _read_json(path: str) -> dict:
    import json
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # bad syntax, encoding or nesting
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def _stderr(text: str) -> None:
    if sys.stderr is not None:  # None when the process started without it: never stdout
        try:
            sys.stderr.write(text)
        except OSError:  # an unwritable stderr loses the text, not the exit code
            pass


def _fail(kind: str, message: str, code: int) -> None:
    import json
    _stderr(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    sys.exit(code)


def _integer(text: str, low: int = 0, high: int | None = None) -> int:
    """``text`` as an integer in ``[low, high]``; the type of a count option."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None
    if value < low:
        raise ValueError(f"must be >= {low}, not {value}")
    if high is not None and value > high:
        raise ValueError(f"must be <= {high}, not {value}")
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
    if args.report is not None and os.path.realpath(args.report) == os.path.realpath(args.output):
        _fail("usage", f"--output and --report name one file, {args.output!r}", EXIT_VALIDATION)
    from . import compiler, verification
    U = verification.unitary_from_json(_read_json(args.input))
    netlist, report = compiler.compile_unitary(U, args.spec_n)
    _write((args.output, _netlist_json(netlist.to_json_dict())),
           (args.report, _json(report.asdict())))


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
        from .rng import binomial
        initial = survival_probability(state)
        if initial:
            p = min(survival, initial) / initial
        else:
            p = float(not any(map(is_lossy, netlist.elements)))
        from random import Random
        successes = binomial(Random(args.seed), runs, p)
        payload["monte_carlo"] = {
            "runs": runs, "successes": successes, "success_rate": successes / runs,
            "seed": args.seed,
        }
    payload.update(state=final.to_json_dict(), survival=survival)
    _write((args.output, _json(payload)))


def cmd_verify(args) -> None:
    """Compare a netlist's basis response against a target unitary."""
    from . import verification
    from .elements import Netlist
    netlist = Netlist.from_json_dict(_read_json(args.netlist))
    U = verification.unitary_from_json(_read_json(args.input))
    residual = verification.reconstruct_and_verify(netlist, U)
    _write((args.output, _json({"verification_residual": residual})))


def cmd_zeno_sweep(args) -> None:
    """Survival of a non-extracted component versus Zeno stage count (CSV)."""
    from .elements import ExtractGate, apply_element, component_survival, survival_lower_bound
    from .state import basis_state, survival_probability
    # No column can hold a comma: an int and three ``repr`` floats.
    rows = ["N,analytic_survival,simulated_survival,bound_1_minus_pi2_over_4N"]
    # The gate extracts OAM 0; the probe is a single component it does not extract.
    probe = basis_state(0, 1, n=1)
    for stages in args.n_list:
        gate = ExtractGate(m=0, src=0, dst=1, stages=stages)
        simulated = survival_probability(apply_element(probe, gate))
        rows.append(f"{stages},{component_survival(stages)!r},{simulated!r},"
                    f"{survival_lower_bound(stages)!r}")
    _write((args.output, "\n".join(rows) + "\n"))


def cmd_readout(args) -> None:
    """Plan or sample a readout of the final OAM state."""
    from random import Random
    from . import readout as readout_mod
    from .state import PhotonState
    state = PhotonState.from_json_dict(_read_json(args.input))
    if args.mode not in state.modes():
        raise ValidationError(f"--mode {args.mode} holds no amplitude in {args.input}")
    rng = Random(args.seed)
    payload: dict = {"strategy": args.strategy, "n": state.n, "seed": args.seed}
    if args.strategy == "sorter":
        cost, payload["exponential_warning"] = readout_mod.sorter_cost(state.n)
        payload["sampled_l"] = readout_mod.sample_full_measurement(state, args.mode, rng)
    elif args.strategy == "repeat":
        payload["bits"], cost = readout_mod.repeated_run_readout(state, rng, mode=args.mode)
    else:
        amps, cost = readout_mod.demux(state, args.mode)
        payload["amplitudes"] = {bits: [amp.real, amp.imag] for bits, amp in sorted(amps.items())}
        if len(amps) == 1:
            payload["bits"] = next(iter(amps))
    payload["cost"] = cost.asdict()
    _write((args.output, _json(payload)))


#: Every command: its function and its options, each ``name: (type, default,
#: help)``.  A type raises ``ValueError`` on a bad value, or is a tuple of the
#: values the option takes.  The default ``_REQUIRED`` marks an option that
#: must be given; any other but None is read through the type.
_REQUIRED = object()
_SEED = (_integer, "0", "Random seed >= 0.")
_OUTPUT = (str, None, "File to write (default: stdout).")
_COMMANDS = {
    "compile": (cmd_compile, {
        "--input": (str, _REQUIRED, "Unitary JSON file to compile."),
        "--output": (str, _REQUIRED, "Netlist JSON file to write."),
        "--report": (str, None, "Compile report JSON file to write."),
        "--spec-n": (_stages, "ideal", "Zeno stages per extraction gate, an integer or "
                     "ideal. A gate of 1 stage absorbs all but 6e-17 of each component it "
                     "does not extract: most unitaries then compile with survival 0.0 (at "
                     "d = 4) or fail as fully absorbed (at d >= 8).")}),
    "simulate": (cmd_simulate, {
        "--netlist": (str, _REQUIRED, "Netlist JSON file to run."),
        "--input": (str, _REQUIRED, "State JSON file to evolve."),
        "--output": _OUTPUT, "--seed": _SEED,
        "--monte-carlo": (_runs, "0", "Also sample this many absorption-event runs.")}),
    "verify": (cmd_verify, {
        "--netlist": (str, _REQUIRED, "Netlist JSON file to check."),
        "--input": (str, _REQUIRED, "Target unitary the netlist should implement."),
        "--output": _OUTPUT}),
    "zeno-sweep": (cmd_zeno_sweep, {
        "--n-list": (_stage_list, "1,3,10,100,1000", "Comma-separated stage counts."),
        "--output": _OUTPUT}),
    "readout": (cmd_readout, {
        "--input": (str, _REQUIRED, "State JSON file to read out."),
        "--strategy": (("sorter", "repeat", "demux"), _REQUIRED, "Readout strategy."),
        "--mode": (_integer, "0", "Spatial mode to read out."),
        "--seed": _SEED, "--output": _OUTPUT}),
}


def _help(command: str | None = None) -> str:
    """The help of ``oamc`` (its commands) or of one command (its options)."""
    if command is None:
        head = "Usage: oamc COMMAND [OPTIONS]\n\nCompile and run OAM netlists.\n\nCommands:\n"
        rows = [(name, run.__doc__) for name, (run, _) in _COMMANDS.items()]
    else:
        run, options = _COMMANDS[command]
        head = f"Usage: oamc {command} [OPTIONS]\n\n{run.__doc__}\n\nOptions:\n"
        rows = [(f"{name} {'|'.join(kind) if isinstance(kind, tuple) else 'VALUE'}",
                 text + (" (required)" if default is _REQUIRED else
                         f" (default: {default})" if default is not None else ""))
                for name, (kind, default, text) in options.items()]
    rows.append(("--help", "Show this message and exit."))
    width = max(len(left) for left, _ in rows) + 2
    return head + "".join(f"  {left:<{width}}{text}\n" for left, text in rows)


def _value(kind, name: str, text: str):
    """Option ``name`` given as ``text``, read through its type ``kind``."""
    try:
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(kind)})")
        return text if isinstance(kind, tuple) else kind(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def _parse(argv: list[str]):
    """The command ``argv`` names and its options: a value follows ``=`` or is
    the next token unless that begins with ``--``, and a repeated option keeps
    its last value.  With ``--help`` the command writes the help; a fault is a ``ValueError``."""
    command, *tokens = argv
    if command == "--help" or command in _COMMANDS and "--help" in tokens:
        text = _help(None if command == "--help" else command)
        return lambda args: _write((None, text)), None
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    run, options = _COMMANDS[command]
    given, tokens = {}, iter(tokens)
    for token in tokens:
        name, eq, text = token.partition("=")
        if name not in options:
            raise ValueError(f"{command}: unrecognized argument {name!r}")
        if not eq and (text := next(tokens, "--")).startswith("--"):
            raise ValueError(f"argument {name}: expected one argument")
        given[name] = _value(options[name][0], name, text)
    for name, (kind, default, _) in options.items():
        if name not in given:
            if default is _REQUIRED:
                raise ValueError(f"{command}: option {name} is required")
            given[name] = default if default is None else _value(kind, name, default)
    return run, types.SimpleNamespace(**{name[2:].replace("-", "_"): value
                                         for name, value in given.items()})


def main(argv: list[str] | None = None) -> None:
    """Run one ``oamc`` command, given its arguments (``sys.argv[1:]`` by
    default).  Without arguments, print the help on stderr and exit 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _stderr(_help())
        sys.exit(EXIT_VALIDATION)
    try:
        command, args = _parse(argv)
    except ValueError as exc:
        _fail("usage", str(exc), EXIT_VALIDATION)
    try:
        command(args)
    except ValidationError as exc:
        _fail("validation", str(exc), EXIT_VALIDATION)
    except OSError as exc:
        _fail("io", str(exc), EXIT_IO)
    except InternalError as exc:
        _fail("internal", str(exc), EXIT_INTERNAL)


def run() -> None:
    """Entry point of the ``oamc`` process: run :func:`main`, then the exit
    handlers, flush the standard streams and end with ``os._exit``, skipping
    teardown.  A failed flush of stdout (a closed pipe) exits normally, for the
    interpreter to report it as ever; any other exception propagates."""
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = exc.code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started without it
                stream.flush()
        except OSError:  # an unwritable stderr loses its text, not the exit code
            if stream is sys.stdout:
                raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
