"""Compiler and exact simulator for single-photon quantum computing with OAM encoding."""

from importlib import import_module as _import_module

from .errors import LeakageError, ValidationError

#: Names re-exported from the submodules, loaded on first access (PEP 562),
#: so that ``import oamcomp`` loads only ``errors``, and each command of the
#: CLI only the modules it runs: ``--help`` none, and no command numpy.
_EXPORTS = {
    "state": (
        "PhotonState", "basis_state", "from_amplitudes", "normalized", "survival_probability",
    ),
    "elements": (
        "IDEAL", "BeamSplitter", "ExtractGate", "ExtractionSpec", "Filter", "Hologram",
        "Mirror", "Netlist", "PhaseShifter", "ReintegrateGate", "component_survival",
        "run_netlist", "survival_lower_bound",
    ),
    "compiler": (
        "CompileReport", "TwoLevelFactor", "compile_unitary", "decompose_two_level",
        "haar_random_unitary", "lower_two_level",
    ),
    "verification": ("reconstruct_and_verify",),
    "readout": (
        "ReadoutCost", "demux", "repeated_run_readout", "sample_full_measurement",
        "sorter_cost",
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
