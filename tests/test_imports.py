"""The import contract: each command loads only the modules it runs, and the
package's re-exports resolve lazily to the objects of their submodules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oamcomp
from oamcomp import compiler, elements, errors, extraction, readout, state
from oamcomp.state import basis_state

SRC = Path(oamcomp.__file__).resolve().parent.parent
#: Modules that only compiling, sampling and reading out need.
HEAVY = {"numpy", "oamcomp.compiler", "oamcomp.extraction", "oamcomp.readout"}

#: Every name ``oamcomp`` re-exports, by the submodule it comes from.
EXPORTS = {
    errors: ["LeakageError", "ValidationError"],
    state: ["PhotonState", "basis_state", "from_amplitudes", "normalized", "overlap",
            "survival_probability"],
    elements: ["IDEAL", "BeamSplitter", "ExtractGate", "Filter", "Hologram", "Mirror",
               "Netlist", "PhaseShifter", "ReintegrateGate", "check_reflection_parity",
               "run_netlist"],
    extraction: ["ExtractionSpec", "component_survival", "extraction_survival",
                 "ideal_extract", "ideal_reintegrate", "lower_extract_to_netlist",
                 "lower_reintegrate_to_netlist", "survival_lower_bound", "zeno_extract",
                 "zeno_reintegrate"],
    compiler: ["CompileReport", "TwoLevelFactor", "U2Params", "compile_unitary",
               "decompose_two_level", "embed_factor", "haar_random_unitary",
               "lower_two_level", "reconstruct_and_verify", "u2_to_optics"],
    readout: ["PathQubitState", "ReadoutCost", "demux", "measure_bit", "remux",
              "repeated_run_readout", "sample_full_measurement", "sorter_cost"],
}


def imported_modules(*args):
    """Exit code and the modules that ``python -m oamcomp.cli *args`` imports,
    read from the interpreter's own import log (``-X importtime``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "oamcomp.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


@pytest.mark.parametrize("simulate", [False, True], ids=["help", "simulate"])
def test_light_commands_import_no_numpy(tmp_path, simulate):
    args = ["--help"]
    if simulate:
        (tmp_path / "s.json").write_text(json.dumps(basis_state(0, 1, 1).to_json_dict()))
        (tmp_path / "net.json").write_text(json.dumps({
            "n": 1, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
        }))
        args = ["simulate", "--netlist", str(tmp_path / "net.json"),
                "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "out.json")]
    code, names = imported_modules(*args)
    assert code == 0
    assert "oamcomp.elements" in names  # the log was read
    assert not HEAVY & names


@pytest.mark.parametrize("module", list(EXPORTS), ids=lambda m: m.__name__)
def test_exports_resolve_to_their_submodule(module):
    star: dict = {}
    exec("from oamcomp import *", star)
    for name in EXPORTS[module]:
        assert getattr(oamcomp, name) is getattr(module, name), name
        assert star[name] is getattr(module, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        oamcomp.no_such_name
