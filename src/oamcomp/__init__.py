"""Compiler and exact simulator for single-photon quantum computing with OAM encoding."""

from importlib import import_module as _import_module

from .errors import LeakageError, ValidationError
from .state import (
    PhotonState,
    basis_state,
    from_amplitudes,
    normalized,
    overlap,
    survival_probability,
)
from .elements import (
    IDEAL,
    BeamSplitter,
    ExtractGate,
    Filter,
    Hologram,
    Mirror,
    Netlist,
    PhaseShifter,
    ReintegrateGate,
    check_reflection_parity,
    run_netlist,
)

#: Names re-exported from the submodules that need numpy, loaded on first
#: access (PEP 562), so that ``import oamcomp`` and the commands that do not
#: use them stay free of numpy.
_EXPORTS = {
    "extraction": (
        "ExtractionSpec", "component_survival", "extraction_survival",
        "ideal_extract", "ideal_reintegrate", "lower_extract_to_netlist",
        "lower_reintegrate_to_netlist", "survival_lower_bound", "zeno_extract",
        "zeno_reintegrate",
    ),
    "compiler": (
        "CompileReport", "TwoLevelFactor", "U2Params", "compile_unitary",
        "decompose_two_level", "embed_factor", "haar_random_unitary",
        "lower_two_level", "reconstruct_and_verify", "u2_to_optics",
    ),
    "readout": (
        "PathQubitState", "ReadoutCost", "demux", "measure_bit", "remux",
        "repeated_run_readout", "sample_full_measurement", "sorter_cost",
    ),
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [name for name in globals() if not name.startswith("_")] + [*_EXPORTS, *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


__version__ = "0.1.0"
