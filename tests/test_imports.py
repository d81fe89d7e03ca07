"""The import contract: each command loads only the modules it runs, and the
package's re-exports resolve lazily to the objects of their submodules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamcomp
from oamcomp import compiler, elements, errors, extraction, readout, state, verification
from oamcomp.state import basis_state

from conftest import unitary_to_json

SRC = Path(oamcomp.__file__).resolve().parent.parent
#: Modules that only the Monte Carlo sampler and reading out need.
HEAVY = {"oamcomp.extraction", "oamcomp.readout"}

#: Every name ``oamcomp`` re-exports, by the submodule it comes from.
EXPORTS = {
    errors: ["LeakageError", "ValidationError"],
    state: ["PhotonState", "basis_state", "from_amplitudes", "normalized",
            "survival_probability"],
    elements: ["IDEAL", "BeamSplitter", "ExtractGate", "ExtractionSpec", "Filter", "Hologram",
               "Mirror", "Netlist", "PhaseShifter", "ReintegrateGate", "component_survival",
               "run_netlist", "survival_lower_bound"],
    compiler: ["CompileReport", "TwoLevelFactor", "compile_unitary", "decompose_two_level",
               "haar_random_unitary", "lower_two_level"],
    verification: ["reconstruct_and_verify"],
    readout: ["ReadoutCost", "demux", "repeated_run_readout", "sample_full_measurement",
              "sorter_cost"],
}


def imported_modules(*args, site=True):
    """Exit code and the modules that ``python -m oamcomp.cli *args`` imports,
    read from the interpreter's own import log (``-X importtime``).  With
    ``site=False`` the interpreter starts with ``-S``: a ``.pth`` file in
    site-packages may import modules in every process, and only without
    ``site`` does the log hold every module that the command imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-X", "importtime"] if site else ["-S", "-X", "importtime"]
    proc = subprocess.run([sys.executable, *flags, "-m", "oamcomp.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def simulate_args(tmp_path, *extra):
    """``simulate`` on a one-gate, finite-stage netlist written to tmp_path."""
    (tmp_path / "s.json").write_text(json.dumps(basis_state(0, 1, 1).to_json_dict()))
    (tmp_path / "net.json").write_text(json.dumps({
        "n": 1, "modes": 2,
        "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
    }))
    return ["simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "out.json"),
            *extra]


def compile_verify_args(tmp_path, command):
    """``compile`` or ``verify`` of the 2x2 X gate, on files in tmp_path."""
    unitary, netlist = tmp_path / "x.json", tmp_path / "net.json"
    unitary.write_text(json.dumps(unitary_to_json(np.array([[0, 1], [1, 0]], dtype=complex))))
    netlist.write_text(json.dumps({"n": 1, "modes": 3, "elements": [
        {"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": "ideal"},
        {"type": "extract", "m": 1, "src": 0, "dst": 2, "stages": "ideal"},
        {"type": "reintegrate", "m": 0, "src": 0, "dst": 2, "stages": "ideal"},
        {"type": "reintegrate", "m": 1, "src": 0, "dst": 1, "stages": "ideal"},
    ]}))
    if command == "compile":
        return ["compile", "--input", str(unitary), "--output", str(tmp_path / "c.json"),
                "--report", str(tmp_path / "r.json"), "--spec-n", "7"]
    return ["verify", "--netlist", str(netlist), "--input", str(unitary)]


def command_args(tmp_path, command, strategy="sorter"):
    """The arguments of one run of ``command``, on files in tmp_path."""
    return {"help": ["--help"], "simulate": simulate_args(tmp_path),
            "monte-carlo": simulate_args(tmp_path, "--monte-carlo", "3"),
            "zeno-sweep": ["zeno-sweep", "--n-list", "1,3"],
            "compile": compile_verify_args(tmp_path, "compile"),
            "verify": compile_verify_args(tmp_path, "verify"),
            # simulate_args wrote the state file s.json.
            "readout": ["readout", "--input", str(tmp_path / "s.json"),
                        "--strategy", strategy]}[command]


COMMANDS = ["help", "simulate", "monte-carlo", "zeno-sweep", "compile", "verify", "readout"]


@pytest.mark.parametrize("command", COMMANDS)
def test_light_commands_import_no_numpy(tmp_path, command):
    code, names = imported_modules(*command_args(tmp_path, command))
    assert code == 0
    assert "oamcomp" in names  # the log was read
    assert not {name for name in names if name.partition(".")[0] == "numpy"}
    # The records derive from ``state.Record``, not from ``dataclasses``,
    # which would import ``inspect``.
    assert not {"dataclasses", "inspect"} & names
    # Phases come from ``math``, and a field rule loads ``numbers`` only for
    # a type that no JSON value has; ``--help`` reads and writes no JSON.
    assert not {"cmath", "numbers"} & names
    if command == "help":
        assert "json" not in names
    # The gate's closed forms live in ``elements``: no command loads ``extraction``.
    assert "oamcomp.extraction" not in names
    # The sweep joins its rows without ``csv``.
    if command == "zeno-sweep":
        assert not (HEAVY | {"csv", "_csv"}) & names
    elif command == "readout":
        # The readouts call only ``random()`` of the seeded ``random.Random``.
        assert "oamcomp.readout" in names
        assert "oamcomp.rng" not in names
    else:
        assert not HEAVY & names
    # ``verify`` loads the verification pass without the compiler, which
    # ``compile`` runs the pass from.
    if command == "verify":
        assert "oamcomp.verification" in names
        assert "oamcomp.compiler" not in names
    elif command == "compile":
        assert {"oamcomp.compiler", "oamcomp.verification"} <= names


@pytest.mark.parametrize("command", ["help", "compile", "simulate", "monte-carlo", "verify",
                                     "zeno-sweep", "readout"])
def test_no_command_imports_an_option_parser(tmp_path, command):
    """The options are read from the table in ``cli``, so no command loads
    ``argparse`` or the ``gettext`` that it imports."""
    code, names = imported_modules(*command_args(tmp_path, command, strategy="repeat"))
    assert code == 0
    assert "oamcomp.errors" in names  # the log was read
    assert not {"argparse", "gettext"} & names


@pytest.mark.parametrize("command", COMMANDS)
def test_only_the_commands_that_draw_import_random(tmp_path, command):
    """Without ``site`` (``-S``), so that no ``.pth`` hook has loaded them
    first: no command imports ``tempfile`` (an output's temporary file is
    made by ``open(..., "x")``) or ``typing`` (the annotations name
    ``collections.abc``), and only ``simulate --monte-carlo`` and ``readout``,
    which draw, import ``random``."""
    code, names = imported_modules(*command_args(tmp_path, command), site=False)
    assert code == 0
    assert "oamcomp.errors" in names  # the log was read
    assert not {"tempfile", "typing"} & names
    assert ("random" in names) == (command in ("monte-carlo", "readout"))


def test_monte_carlo_samples_without_extraction(tmp_path):
    """``simulate --monte-carlo`` samples from the state it computed, with
    numpy's binomial algorithm in plain Python: it loads neither numpy nor the
    sampler's module."""
    code, names = imported_modules(*simulate_args(tmp_path, "--monte-carlo", "3"))
    assert code == 0
    assert "oamcomp.rng" in names  # the log was read
    assert "numpy" not in names
    assert not {"oamcomp.extraction", "oamcomp.compiler", "oamcomp.readout"} & names


def test_extraction_and_readout_import_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, oamcomp.extraction, oamcomp.readout; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["False"], proc.stderr


def test_extraction_spec_loads_no_sampler():
    """``oamcomp.ExtractionSpec`` resolves in ``elements``, where it is
    defined, and loads neither ``extraction`` nor ``rng``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, oamcomp; oamcomp.ExtractionSpec; "
            "print(*sorted(name for name in sys.modules if name.startswith('oamcomp.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    loaded = proc.stdout.split()
    assert loaded == ["oamcomp.elements", "oamcomp.errors", "oamcomp.state"], proc.stderr


def test_verification_export_loads_no_compiler():
    """``oamcomp.reconstruct_and_verify`` resolves in ``verification`` and
    loads only the modules that it imports, not ``compiler``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, oamcomp; oamcomp.reconstruct_and_verify; "
            "print(*sorted(name for name in sys.modules if name.startswith('oamcomp.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    loaded = proc.stdout.split()
    assert loaded == ["oamcomp.elements", "oamcomp.errors", "oamcomp.state",
                      "oamcomp.verification"], proc.stderr


def test_help_imports_no_simulator():
    code, names = imported_modules("--help")
    assert code == 0
    assert "oamcomp.errors" in names  # the log was read
    assert not {"oamcomp.elements", "oamcomp.state", "dataclasses", "inspect"} & names


@pytest.mark.parametrize("command", ["help", "simulate", "monte-carlo", "compile", "verify"])
def test_no_command_imports_click(tmp_path, command):
    unitary, netlist = tmp_path / "u.json", tmp_path / "id.json"
    unitary.write_text(json.dumps(unitary_to_json(np.eye(2, dtype=complex))))
    netlist.write_text(json.dumps({"n": 1, "modes": 3, "elements": []}))
    args = {
        "help": ["--help"],
        "simulate": simulate_args(tmp_path),
        "monte-carlo": simulate_args(tmp_path, "--monte-carlo", "3"),
        "compile": ["compile", "--input", str(unitary), "--output", str(tmp_path / "c.json")],
        "verify": ["verify", "--netlist", str(netlist), "--input", str(unitary)],
    }[command]
    code, names = imported_modules(*args)
    assert code == 0
    assert "oamcomp" in names  # the log was read
    assert not {name for name in names if name.partition(".")[0] == "click"}


@pytest.mark.parametrize("module", list(EXPORTS), ids=lambda m: m.__name__)
def test_exports_resolve_to_their_submodule(module):
    star: dict = {}
    exec("from oamcomp import *", star)
    for name in EXPORTS[module]:
        assert getattr(oamcomp, name) is getattr(module, name), name
        assert star[name] is getattr(module, name), name


@pytest.mark.parametrize("module", [oamcomp, elements, extraction],
                         ids=lambda m: m.__name__)
def test_macro_gate_has_no_other_entry_point(module):
    """A macro gate is applied as its element, ``apply_element(state, gate)``,
    and expanded by ``expand_netlist``; no function applies or lowers one
    direction of it."""
    for name in ("ideal_extract", "ideal_reintegrate", "zeno_extract", "zeno_reintegrate",
                 "lower_extract_to_netlist", "lower_reintegrate_to_netlist", "_on_state"):
        assert not hasattr(module, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        oamcomp.no_such_name


def test_apply_macro_is_apply_element():
    """``extraction.apply_macro``, which the benchmark's gate probe reads, is
    ``apply_element`` itself; ``elements`` keeps no second name for it."""
    assert extraction.apply_macro is elements.apply_element
    assert not hasattr(elements, "apply_macro")
