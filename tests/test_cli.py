import copy
import functools
import gc
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oamcomp
from oamcomp import cli, elements, verification
from oamcomp.compiler import haar_random_unitary
from oamcomp.errors import ValidationError
from oamcomp.readout import repeated_run_readout, sample_full_measurement
from oamcomp.rng import binomial
from oamcomp.state import basis_state, from_amplitudes

from conftest import invoke_cli, unitary_to_json


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def invoke(args):
    return invoke_cli(args, catch_exceptions=False)


class TestCompile:
    def test_identity(self, tmp_path):
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(4, dtype=complex)))
        result = invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 0
        net = json.loads((tmp_path / "net.json").read_text())
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert net["elements"] == []
        assert rep == {"analytic_survival": 1.0, "element_count": 0, "factor_count": 0,
                       "gate_count": 0, "min_survival": 1.0, "verification_residual": 0.0}

    def test_hadamard(self, tmp_path):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        write_json(tmp_path / "u.json", unitary_to_json(H))
        result = invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 0
        net = json.loads((tmp_path / "net.json").read_text())
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["verification_residual"] < 1e-10
        extracts = [el for el in net["elements"] if el["type"] == "extract"]
        assert len(extracts) == 2

    def test_rejects_bad_dimension(self, tmp_path):
        for d in (3, 7):
            write_json(tmp_path / "u.json", unitary_to_json(np.eye(d, dtype=complex)))
            result = invoke_cli([
                "compile", "--input", str(tmp_path / "u.json"),
                "--output", str(tmp_path / "net.json"),
            ])
            assert result.exit_code == 2
            error = json.loads(result.stderr)["error"]
            assert error["type"] == "validation"
            assert "power of two" in error["message"]

    def test_missing_file_is_io_error(self, tmp_path):
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "nope.json"),
            "--output", str(tmp_path / "net.json"),
        ])
        assert result.exit_code == 3

    def test_failed_report_write_leaves_no_file(self, tmp_path):
        """The netlist and the report are written all or none: a report into
        a missing directory is an I/O error, and no netlist or temporary
        file is left behind."""
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "nodir" / "rep.json"),
        ])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"]["type"] == "io"
        assert [path.name for path in tmp_path.iterdir()] == ["u.json"]

    @pytest.mark.parametrize("report", ["same.json", "./same.json"])
    def test_output_and_report_in_one_file_is_refused(self, tmp_path, report):
        """Written one after the other, the report would replace the netlist:
        a usage error before anything is written."""
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "same.json"), "--report", str(tmp_path / report),
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert "--output" in error["message"] and "--report" in error["message"]
        assert [path.name for path in tmp_path.iterdir()] == ["u.json"]


class TestSimulate:
    def test_empty_netlist_echoes_input(self, tmp_path):
        state = basis_state(0, 1, 1)
        write_json(tmp_path / "s.json", state.to_json_dict())
        write_json(tmp_path / "net.json", {"n": 1, "modes": 1, "elements": []})
        result = invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["survival"] == 1.0
        assert out["state"]["amplitudes"] == state.to_json_dict()["amplitudes"]

    def test_extraction_survival_uniform_input(self, tmp_path):
        state = from_amplitudes(0, [0.5] * 4, 2)
        write_json(tmp_path / "s.json", state.to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 2, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 100}],
        })
        result = invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["survival"] == pytest.approx(0.9817201856079236, abs=1e-12)

    @pytest.mark.parametrize("extra", [[], ["--monte-carlo", "3"]], ids=["plain", "sampled"])
    def test_fully_absorbed_survival_is_a_float(self, tmp_path, extra):
        """A filter that absorbs the whole photon leaves survival ``0.0``, a
        JSON real like every other survival, not the integer ``0``."""
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 3, "elements": [{"type": "filter", "mode": 0, "m": 1}],
        })
        result = invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"), *extra,
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["state"]["amplitudes"] == []
        assert type(out["survival"]) is float and out["survival"] == 0.0
        assert '"survival": 0.0\n' in (tmp_path / "out.json").read_text()

    def test_mode_out_of_range(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "ps", "mode": 9, "phi": 0.0}],
        })
        result = invoke_cli([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
        ])
        assert result.exit_code == 2

    def test_monte_carlo_block(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
        })
        result = invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"),
            "--seed", "11", "--monte-carlo", "500",
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        mc = out["monte_carlo"]
        assert mc["runs"] == 500
        assert abs(mc["success_rate"] - 27 / 64) < 0.1

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
    @pytest.mark.parametrize("runs", [1, 20, 61, 10**6, 2**53])
    def test_monte_carlo_draws_numpy_successes(self, tmp_path, runs, seed):
        """The successes are numpy's binomial algorithm on the uniforms of
        ``random.Random(seed)``, for run counts on both of its algorithms and
        the largest one."""
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
        })
        assert invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "out.json"),
            "--seed", str(seed), "--monte-carlo", str(runs),
        ]).exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        p = min(out["survival"], 1.0)  # the input's norm is 1
        assert 0.0 < p < 1.0
        expected = binomial(random.Random(seed), runs, p)
        assert out["monte_carlo"]["successes"] == expected

    def test_monte_carlo_on_ideal_netlist(self, tmp_path):
        U = haar_random_unitary(4, np.random.default_rng(2))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        write_json(tmp_path / "s.json", basis_state(0, 1, 2).to_json_dict())
        assert invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
        ]).exit_code == 0
        result = invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"), "--monte-carlo", "5",
        ])
        assert result.exit_code == 0
        mc = json.loads((tmp_path / "out.json").read_text())["monte_carlo"]
        assert mc["successes"] == mc["runs"] == 5

    @pytest.mark.parametrize("strategy", [None, "repeat", "sorter"])
    def test_seed_above_2_64(self, tmp_path, strategy):
        """Any seed >= 0 is taken, as ``random.Random`` takes it, and so is the
        largest run count."""
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
        })
        seed = ["--seed", str(2**70), "--output", str(tmp_path / "out.json")]
        if strategy is None:
            args = ["simulate", "--netlist", str(tmp_path / "net.json"),
                    "--monte-carlo", str(elements.MAX_STAGES)]
        else:
            args = ["readout", "--strategy", strategy]
        assert invoke([*args, "--input", str(tmp_path / "s.json"), *seed]).exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out.get("monte_carlo", out)["seed"] == 2**70

    def finite_stage_files(self, tmp_path):
        """A d=4, N=20 netlist and a dense input state, written to tmp_path."""
        U = haar_random_unitary(4, np.random.default_rng(6))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        state = from_amplitudes(0, [0.5, 0.5j, -0.5, 0.5], 2)
        write_json(tmp_path / "s.json", state.to_json_dict())
        assert invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"), "--spec-n", "20",
        ]).exit_code == 0
        return ["--netlist", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json")]

    def test_monte_carlo_applies_each_element_once(self, tmp_path, monkeypatch):
        """The output state and the sample come from one pass: every element
        semantics call (``iter_steps`` dispatches through the table) is counted."""
        files = self.finite_stage_files(tmp_path)
        calls = []
        for cls, semantics in list(elements._SEMANTICS.items()):
            def counted(amps, el, semantics=semantics):
                calls.append(el)
                return semantics(amps, el)
            monkeypatch.setitem(elements._SEMANTICS, cls, counted)
        result = invoke(["simulate", *files, "--output", str(tmp_path / "out.json"),
                                 "--monte-carlo", "5"])
        assert result.exit_code == 0
        netlist = json.loads((tmp_path / "net.json").read_text())
        assert len(calls) == len(netlist["elements"]) > 0

    def test_monte_carlo_writes_the_simulated_state(self, tmp_path):
        files = self.finite_stage_files(tmp_path)
        plain, sampled = tmp_path / "plain.json", tmp_path / "sampled.json"
        assert invoke(["simulate", *files, "--output", str(plain)]).exit_code == 0
        assert invoke(["simulate", *files, "--output", str(sampled),
                               "--monte-carlo", "20"]).exit_code == 0
        out = json.loads(sampled.read_text())
        assert out.pop("monte_carlo")["runs"] == 20
        assert json.dumps(out, indent=2, sort_keys=True) + "\n" == plain.read_text()


class TestRejectsBadInput:
    """Bad input exits 2 and writes nothing."""

    def test_nan_unitary_entry(self, tmp_path):
        data = unitary_to_json(haar_random_unitary(4, np.random.default_rng(0)))
        data["rows"][1][2][0] = float("nan")
        write_json(tmp_path / "u.json", data)
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["type"] == "validation"
        assert not (tmp_path / "net.json").exists()
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("rows, message", [
        ([[[2, 0], [0, 0]], [[0, 0], [2, 0]]], "matrix is not unitary: row 0"),
        ([[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "matrix is not unitary: row 1"),
        ([[[1, 0], [0, 0]], [[1, 0], [0, 0]]], "matrix is not unitary: its elimination"),
        ([[[1.5e308, 1.5e308], [0, 0]], [[0, 0], [1, 0]]], "matrix is not unitary: row 0"),
    ], ids=["2I", "zero-row", "rank-one-unit-rows", "overflowing-square"])
    def test_non_unitary_matrix(self, tmp_path, rows, message):
        write_json(tmp_path / "u.json", {"d": 2, "rows": rows})
        result = invoke_cli(["compile", "--input", str(tmp_path / "u.json"),
                             "--output", str(tmp_path / "net.json")])
        assert result.exit_code == 2 and result.exc_info is None
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation" and error["message"].startswith(message), error
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("netlist, state, extra, kind", [
        ({"elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": True}]},
         {}, [], "validation"),
        ({"elements": [{"type": "ps", "mode": 0, "phi": float("nan")}]}, {}, [],
         "validation"),
        ({"elements": [{"type": "bs", "mode_a": 0, "mode_b": 1, "theta": float("inf")}]},
         {}, [], "validation"),
        ({}, {"re": float("nan")}, [], "validation"),
        ({}, {}, ["--monte-carlo", "-5"], "usage"),
        # Integer fields take JSON integers only: a float is refused, not truncated.
        ({"n": 1.5}, {}, [], "validation"),
        ({"modes": 2.9}, {}, [], "validation"),
        ({"elements": [{"type": "filter", "mode": 0, "m": 1.9}]}, {}, [], "validation"),
        ({"elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3.7}]},
         {}, [], "validation"),
        ({}, {"n": 1.9}, [], "validation"),
        ({}, {"mode": True}, [], "validation"),
        ({}, {"l": 1.7}, [], "validation"),
        ({}, {"re": True}, [], "validation"),
        ({}, {"im": "0"}, [], "validation"),
        ({}, {}, ["--seed", "-1", "--monte-carlo", "3"], "usage"),
        ({}, {}, ["--monte-carlo", "99999999999999999999"], "usage"),
        ({}, {}, ["--monte-carlo", str(elements.MAX_STAGES + 1)], "usage"),
        # An element takes its own fields' keys and no other.
        ({"elements": [{"type": "filter", "mode": 0, "m": 0, "extra": 1}]}, {}, [],
         "validation"),
        ({"elements": [{"type": "ps", "mode": 0, "phi": 1.0, "theta": 2.0}]}, {}, [],
         "validation"),
        # A magnitude beyond the largest double, finite or not, is refused.
        ({}, {"re": 1.5e308, "im": 1.5e308}, [], "validation"),
        ({}, {"re": 1e308, "im": 1e308}, [], "validation"),
    ], ids=["bool-stages", "nan-phase", "inf-angle", "nan-amplitude", "negative-runs",
            "float-width", "float-modes", "float-filter-m", "float-stages",
            "float-state-width", "bool-mode", "float-l", "bool-re", "string-im",
            "negative-seed", "huge-runs", "runs-above-max-stages", "extra-key",
            "foreign-field", "overflowing-magnitude", "overflowing-square"])
    def test_bad_simulate_input(self, tmp_path, netlist, state, extra, kind):
        entry = {"mode": 0, "l": 1, "re": 1.0, "im": 0.0, **state}
        width = entry.pop("n", 1)
        write_json(tmp_path / "s.json", {"n": width, "amplitudes": [entry]})
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2, "elements": [], **netlist})
        result = invoke_cli([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"), *extra,
        ])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["type"] == kind
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("kind", ["state", "netlist", "unitary"])
    def test_malformed_json_is_worded_alike(self, tmp_path, kind):
        """A boolean width is malformed JSON in each of the three files."""
        files = {
            "state": {"n": 1, "amplitudes": []},
            "netlist": {"n": 1, "modes": 1, "elements": []},
            "unitary": unitary_to_json(np.eye(2, dtype=complex)),
        }
        field = "d" if kind == "unitary" else "n"
        files[kind][field] = True
        for name, payload in files.items():
            write_json(tmp_path / f"{name}.json", payload)
        # simulate reads the netlist, then the state; verify the netlist, then the unitary.
        command, target = ("verify", "unitary") if kind == "unitary" else ("simulate", "state")
        result = invoke_cli([command, "--netlist", str(tmp_path / "netlist.json"),
                             "--input", str(tmp_path / f"{target}.json")])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error == {"type": "validation",
                         "message": f"malformed {kind} JSON: {field} must be an integer, got True"}

    def test_repeated_amplitude_key_is_malformed_json(self, tmp_path):
        """Two entries at one ``(mode, l)`` are refused, not summed."""
        write_json(tmp_path / "s.json", {"n": 1, "amplitudes": [
            {"mode": 0, "l": 1, "re": 0.6, "im": 0.0},
            {"mode": 0, "l": 1, "re": 0.2, "im": 0.0}]})
        write_json(tmp_path / "net.json", {"n": 1, "modes": 1, "elements": []})
        result = invoke_cli(["simulate", "--netlist", str(tmp_path / "net.json"),
                             "--input", str(tmp_path / "s.json"),
                             "--output", str(tmp_path / "out.json")])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert error["message"].startswith("malformed state JSON: ")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("kind", ["state", "netlist"])
    def test_negative_mode_is_malformed_json(self, tmp_path, kind):
        """Both readers hold a mode to the one mode rule."""
        state = {"n": 1, "amplitudes": [{"mode": 0, "l": 0, "re": 1.0, "im": 0.0}]}
        netlist = {"n": 1, "modes": 2, "elements": [{"type": "filter", "mode": 0, "m": 0}]}
        (state["amplitudes"] if kind == "state" else netlist["elements"])[0]["mode"] = -1
        write_json(tmp_path / "s.json", state)
        write_json(tmp_path / "net.json", netlist)
        result = invoke_cli(["simulate", "--netlist", str(tmp_path / "net.json"),
                             "--input", str(tmp_path / "s.json")])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"] == {
            "type": "validation",
            "message": f"malformed {kind} JSON: mode must be an integer >= 0, got -1"}

    @pytest.mark.parametrize("data", [
        {"d": 2.0, "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"d": 2, "rows": [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"d": 2, "rows": [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ], ids=["float-d", "bool-entry", "string-entry"])
    def test_bad_unitary_numbers(self, tmp_path, data):
        """The identity, written with a number of the wrong kind, is refused
        rather than read as the identity."""
        write_json(tmp_path / "u.json", data)
        write_json(tmp_path / "net.json", {"n": 1, "modes": 3, "elements": []})
        for args in (["compile", "--input", str(tmp_path / "u.json")],
                     ["verify", "--netlist", str(tmp_path / "net.json"),
                      "--input", str(tmp_path / "u.json")]):
            result = invoke_cli([*args, "--output", str(tmp_path / "out.json")])
            assert result.exit_code == 2
            assert json.loads(result.stderr)["error"]["type"] == "validation"
            assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("extra, message", [
        (["--spec-n", "0"], "--spec-n"),
        (["--spec-n", "ten"], "--spec-n"),
        (["--spec-n", "9007199254740993"], "--spec-n"),
        (["--bogus"], "--bogus"),
    ], ids=["zero-stages", "word-stages", "too-many-stages", "unknown-option"])
    def test_bad_compile_option(self, tmp_path, extra, message):
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"), *extra,
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert message in error["message"]
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["bogus"], "bogus"),
        (["simulate", "--netlist", "net.json", "--input", "s.json", "--mon", "3"], "--mon"),
    ], ids=["unknown-command", "abbreviated-option"])
    def test_unknown_command_or_option(self, args, message):
        result = invoke_cli(args)
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert message in error["message"]

    def test_no_arguments_prints_help(self):
        result = invoke_cli([])
        assert result.exit_code == 2
        assert result.stderr.startswith("Usage:")
        assert "zeno-sweep" in result.stderr

    def test_help_still_prints_usage(self):
        for args in (["--help"], ["compile", "--help"]):
            result = invoke_cli(args)
            assert result.exit_code == 0
            assert result.output.startswith("Usage:")

    def test_residual_guard_is_an_internal_error(self, tmp_path, monkeypatch):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        # A response one unit off H in Frobenius norm: the residual is 1.
        monkeypatch.setattr(verification, "basis_response",
                            lambda netlist: (H + np.diag([1, 0]), np.ones(2)))
        write_json(tmp_path / "u.json", unitary_to_json(H))
        result = invoke_cli([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "internal"
        assert "residual 1.000e+00" in error["message"]
        assert not (tmp_path / "net.json").exists()
        assert not (tmp_path / "rep.json").exists()


class TestOptionTable:
    """The reader's rules, for every command in ``cli._COMMANDS``, so that
    the help and the table cannot drift apart."""

    #: A valid invocation of each command that sets every option it takes,
    #: as (option, value) pairs; a value ending in ``.json`` is a file in
    #: tmp_path.
    INVOCATIONS = {
        "compile": [("--input", "u.json"), ("--output", "out.json"),
                    ("--report", "rep.json"), ("--spec-n", "3")],
        "simulate": [("--netlist", "net.json"), ("--input", "s.json"),
                     ("--output", "out.json"), ("--seed", "4"), ("--monte-carlo", "9")],
        "verify": [("--netlist", "id.json"), ("--input", "u.json"), ("--output", "out.json")],
        "zeno-sweep": [("--n-list", "1,3"), ("--output", "out.json")],
        "readout": [("--input", "s.json"), ("--strategy", "repeat"), ("--mode", "0"),
                    ("--seed", "7"), ("--output", "out.json")],
    }

    @classmethod
    def pairs(cls, tmp_path, command):
        """The invocation of ``command``, its input files written to tmp_path."""
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "id.json", {"n": 1, "modes": 3, "elements": []})
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2, "elements": [
            {"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}]})
        return [(name, str(tmp_path / value) if value.endswith(".json") else value)
                for name, value in cls.INVOCATIONS[command]]

    @staticmethod
    def outputs(tmp_path, args):
        """stdout and every file in tmp_path after ``oamc args``; the files
        are removed."""
        result = invoke(args)
        assert result.exit_code == 0, result.stderr
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return result.stdout, files

    def test_every_command_has_an_invocation(self):
        assert list(self.INVOCATIONS) == list(cli._COMMANDS)
        for command, pairs in self.INVOCATIONS.items():
            assert sorted(name for name, _ in pairs) == sorted(cli._COMMANDS[command][1])

    def test_program_help_lists_every_command(self):
        result = invoke(["--help"])
        assert result.exit_code == 0 and result.stdout.startswith("Usage:")
        for name, (run, _) in cli._COMMANDS.items():
            assert f"{name}  " in result.stdout and run.__doc__ in result.stdout

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_names_every_option(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0 and result.stdout.startswith("Usage:")
        for name, (_, default, text) in cli._COMMANDS[command][1].items():
            [line] = [line for line in result.stdout.splitlines()
                      if line.split()[:1] == [name]]
            assert text in line
            assert ("(required)" in line) == (default is cli._REQUIRED)

    def test_compile_help_keeps_the_one_stage_caveat(self):
        assert "6e-17" in invoke(["compile", "--help"]).stdout

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_equals_form_and_repeated_option(self, tmp_path, command):
        spaced = [token for pair in self.pairs(tmp_path, command) for token in pair]
        expected = self.outputs(tmp_path, [command, *spaced])
        joined = [f"{name}={value}" for name, value in self.pairs(tmp_path, command)]
        assert self.outputs(tmp_path, [command, *joined]) == expected
        # The first --output is overridden, so no file first.txt is written.
        self.pairs(tmp_path, command)
        repeated = [command, "--output", str(tmp_path / "first.txt"), *spaced]
        assert self.outputs(tmp_path, repeated) == expected

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_output_without_value(self, tmp_path, command):
        tokens = [token for pair in self.pairs(tmp_path, command) for token in pair
                  if pair[0] != "--output"]
        result = invoke_cli([command, *tokens, "--output"])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage" and "--output" in error["message"]


class TestProcessLifecycle:
    """``python -m oamcomp.cli`` runs one command through ``run``: exit codes
    and JSON errors as from ``main``, the exit handlers run, and the process
    ends without interpreter teardown.  ``main`` itself leaves the collector
    as it found it."""

    #: Runs the CLI as ``__main__`` after registering an exit hook and storing
    #: a sentinel on a module: teardown would clear the module and so write
    #: ``teardown`` from the sentinel's ``__del__``.
    PROBE = ("import atexit, os, runpy, sys; "
             "atexit.register(lambda: os.write(2, b'hook\\n')); "
             "sys.modules['atexit'].sentinel = type('Sentinel', (), {'__del__': "
             "lambda self, write=os.write: write(2, b'teardown\\n')})(); "
             "runpy.run_module('oamcomp.cli', run_name='__main__', alter_sys=True)")

    @staticmethod
    def env():
        """The environment of a child that imports this ``oamcomp``, with the
        buffered stdout of a plain ``oamc`` process."""
        env = dict(os.environ, PYTHONPATH=str(Path(oamcomp.__file__).parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        return env

    @pytest.mark.parametrize("case, code", [
        ("ok", 0), ("validation", 2), ("usage", 2), ("io", 3),
    ])
    def test_exit_codes_without_teardown(self, tmp_path, case, code):
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2, "elements": []})
        (tmp_path / "bad.json").write_text("{")
        netlist = {"validation": "bad.json", "io": "missing.json"}.get(case, "net.json")
        args = ["simulate", "--netlist", str(tmp_path / netlist),
                "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "out.json")]
        if case == "usage":
            args += ["--monte-carlo", "-5"]
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *args], env=self.env(),
                              capture_output=True, text=True, timeout=60)
        lines = proc.stderr.splitlines()
        assert "teardown" not in lines
        *errors, hook = lines
        assert proc.returncode == code
        assert hook == "hook"
        if code:
            [line] = errors
            assert json.loads(line)["error"]["type"] == case
        else:
            assert errors == []
            assert (tmp_path / "out.json").exists()

    def test_stdout_reaches_a_pipe(self):
        """A command's output to a buffered stdout is flushed before the
        process ends, so it arrives whole, as from ``main``."""
        args = ["zeno-sweep", "--n-list", "1,3,100"]
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args],
                              capture_output=True, text=True, env=self.env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == invoke(args).stdout

    def test_a_process_without_stderr_exits_cleanly(self):
        """Started with its stderr closed (``2>&-``), the process has no
        ``sys.stderr`` to flush and still exits 0 with its output."""
        args = ["zeno-sweep", "--n-list", "3"]
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args],
                              stdout=subprocess.PIPE, text=True, env=self.env(),
                              preexec_fn=lambda: os.close(2), timeout=60)
        assert (proc.returncode, proc.stdout) == (0, invoke(args).stdout)

    def test_a_process_without_stdout_writes_its_files(self, tmp_path):
        """Started with its stdout closed (``>&-``), a command whose output
        all goes to files never touches stdout."""
        args = ["zeno-sweep", "--n-list", "3"]
        out = tmp_path / "z.csv"
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args, "--output", str(out)],
                              stderr=subprocess.PIPE, text=True, env=self.env(),
                              preexec_fn=lambda: os.close(1), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == invoke(args).stdout

    @pytest.mark.parametrize("args", [["--help"], ["compile", "--help"],
                                      ["zeno-sweep", "--n-list", "3"]])
    def test_text_due_to_a_missing_stdout_is_an_io_error(self, args):
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args],
                              stderr=subprocess.PIPE, text=True, env=self.env(),
                              preexec_fn=lambda: os.close(1), timeout=60)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["type"] == "io"

    @pytest.mark.parametrize("case", ["validation", "no-arguments"])
    def test_a_process_without_stderr_never_writes_an_error_to_stdout(self, tmp_path, case):
        """Without a stderr, a failure prints nothing and exits with its own code."""
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {"n": True, "modes": 1, "elements": []})
        args = ["simulate", "--netlist", str(tmp_path / "net.json"),
                "--input", str(tmp_path / "s.json")] if case == "validation" else []
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args],
                              stdout=subprocess.PIPE, text=True, env=self.env(),
                              preexec_fn=lambda: os.close(2), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")

    @staticmethod
    def read_only_stderr():
        """Put a read-only descriptor on fd 2, as a shell-script launcher run
        with ``2>&-`` hands the interpreter its script: ``sys.stderr`` exists,
        but every write to it raises ``EBADF``."""
        fd = os.open(os.devnull, os.O_RDONLY)
        os.dup2(fd, 2)
        os.close(fd)

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("case", ["validation", "no-arguments"])
    def test_an_unwritable_stderr_keeps_the_exit_code(self, tmp_path, case, unbuffered):
        """The lost error line changes neither the exit code nor stdout,
        whether the write fails at once (``PYTHONUNBUFFERED``) or at the
        flush before the process ends."""
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {"n": True, "modes": 1, "elements": []})
        args = ["simulate", "--netlist", str(tmp_path / "net.json"),
                "--input", str(tmp_path / "s.json")] if case == "validation" else []
        env = dict(self.env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", *args],
                              stdout=subprocess.PIPE, text=True, env=env,
                              preexec_fn=self.read_only_stderr, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_an_internal_error_propagates(self):
        """An exception other than ``SystemExit`` leaves ``run`` as it leaves
        ``main``: a traceback and exit 1."""
        code = "import oamcomp.cli as cli; cli.main = lambda: 1 / 0; cli.run()"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self.env(), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.splitlines()[-1].startswith("ZeroDivisionError")

    def test_a_closed_pipe_exits_as_the_interpreter_reports_it(self):
        """Output that cannot be flushed into a pipe whose reader has gone
        ends the process as interpreter teardown reports it: exit 120."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "oamcomp.cli", "zeno-sweep",
                                   "--n-list", "3"], stdout=write, stderr=subprocess.PIPE,
                                  env=self.env(), timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert proc.stderr.startswith(b"Exception ignored")

    def test_main_leaves_the_collector_alone(self):
        before = gc.isenabled(), gc.get_freeze_count()
        assert invoke(["zeno-sweep", "--n-list", "3"]).exit_code == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before


class TestOutputFiles:
    """Each output file is first written to a new file beside it, created by
    ``open(..., "x")`` with the mode the umask leaves, and the files of one
    command are moved into place all or none."""

    @pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
    def umask(self, request):
        old = os.umask(request.param)
        yield request.param
        os.umask(old)

    def test_outputs_take_the_umask_mode(self, tmp_path, umask):
        U = haar_random_unitary(4, np.random.default_rng(8))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        write_json(tmp_path / "s.json", basis_state(0, 0, 2).to_json_dict())
        net, u, s = (str(tmp_path / name) for name in ("net.json", "u.json", "s.json"))
        outputs = {"net.json", "rep.json", "sim.json", "mc.json", "ver.json", "z.csv",
                   "ro.json"}
        for args in (["compile", "--input", u, "--output", net, "--spec-n", "5",
                      "--report", str(tmp_path / "rep.json")],
                     ["simulate", "--netlist", net, "--input", s,
                      "--output", str(tmp_path / "sim.json")],
                     ["simulate", "--netlist", net, "--input", s, "--monte-carlo", "3",
                      "--output", str(tmp_path / "mc.json")],
                     ["verify", "--netlist", net, "--input", u,
                      "--output", str(tmp_path / "ver.json")],
                     ["zeno-sweep", "--output", str(tmp_path / "z.csv")],
                     ["readout", "--input", s, "--strategy", "repeat",
                      "--output", str(tmp_path / "ro.json")]):
            assert invoke(args).exit_code == 0, args
        assert {path.name for path in tmp_path.iterdir()} == outputs | {"u.json", "s.json"}
        for name in outputs:
            assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask, name

    def test_a_file_at_a_temporary_name_is_left_alone(self, tmp_path, monkeypatch):
        """The second output's temporary name is taken: the command is an I/O
        error, the file there is untouched, and the first output's temporary
        file is removed, so nothing is written."""
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        draws = iter([b"\x01" * 6, b"\x02" * 6])
        monkeypatch.setattr(cli.os, "urandom", lambda size: next(draws))
        taken = tmp_path / f".oamc-{os.getpid()}-{'02' * 6}"
        taken.write_text("not ours")
        result = invoke_cli(["compile", "--input", str(tmp_path / "u.json"),
                             "--output", str(tmp_path / "net.json"),
                             "--report", str(tmp_path / "rep.json")])
        assert result.exit_code == 3
        assert json.loads(result.stderr)["error"]["type"] == "io"
        assert taken.read_text() == "not ours"
        assert {path.name for path in tmp_path.iterdir()} == {"u.json", taken.name}


class TestVerify:
    def test_pipeline_closes(self, tmp_path):
        U = haar_random_unitary(4, np.random.default_rng(8))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        assert invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ]).exit_code == 0
        result = invoke([
            "verify", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "v.json"),
        ])
        assert result.exit_code == 0
        v = json.loads((tmp_path / "v.json").read_text())
        assert v["verification_residual"] < 1e-9

    def test_huge_entry_is_a_non_finite_residual(self, tmp_path):
        """An entry whose ``abs`` overflows gives an infinite residual, which
        is refused on output, not an ``OverflowError``."""
        write_json(tmp_path / "u.json", {"d": 2, "rows": [
            [[1.7e308, 1.7e308], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
        write_json(tmp_path / "net.json", {"n": 1, "modes": 1, "elements": []})
        result = invoke_cli(["verify", "--netlist", str(tmp_path / "net.json"),
                             "--input", str(tmp_path / "u.json")])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert "non-finite" in error["message"]

    def test_modes_declared_beyond_memory(self, tmp_path):
        """A netlist may declare 2**62 modes: rows exist only where amplitude
        goes, so it simulates and verifies at the cost of what it uses."""
        top = 2**62 - 1
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2**62, "elements": [
            {"type": "bs", "mode_a": 0, "mode_b": top, "theta": 0.3},
            {"type": "ps", "mode": top, "phi": 0.5},
            {"type": "ps", "mode": top, "phi": -0.5},
            {"type": "bs", "mode_a": 0, "mode_b": top, "theta": -0.3},
        ]})
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        files = ["--netlist", str(tmp_path / "net.json")]
        result = invoke(["simulate", *files, "--input", str(tmp_path / "s.json")])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["survival"] == pytest.approx(1.0, abs=1e-12)
        result = invoke(["verify", *files, "--input", str(tmp_path / "u.json")])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["verification_residual"] <= 1e-12


class TestZenoSweep:
    def test_rows_and_values(self, tmp_path):
        result = invoke([
            "zeno-sweep", "--n-list", "1,3,100",
            "--output", str(tmp_path / "sweep.csv"),
        ])
        assert result.exit_code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "N,analytic_survival,simulated_survival,bound_1_minus_pi2_over_4N"
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
        assert float(rows[3][1]) == pytest.approx(27 / 64, abs=1e-12)
        assert float(rows[100][1]) == pytest.approx(0.9756269141438981, abs=1e-12)
        for row in rows.values():
            assert float(row[1]) == pytest.approx(float(row[2]), abs=1e-12)

    def test_rejects_bad_stage(self):
        for n_list in ("0", "1,abc", "9007199254740993", ",", "", "1,,3"):
            result = invoke_cli(["zeno-sweep", "--n-list", n_list])
            assert result.exit_code == 2
            error = json.loads(result.stderr)["error"]
            assert error["type"] == "usage"
            assert "--n-list" in error["message"]


class TestReadout:
    def test_repeat_strategy(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 6, 3).to_json_dict())
        result = invoke([
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "repeat",
            "--output", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "r.json").read_text())
        assert out == {
            "bits": "110", "n": 3, "seed": 0, "strategy": "repeat",
            "cost": {"arms": 2, "cnot_count": 0, "decision_points": 1, "runs": 3},
        }

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1])
    def test_samples_draw_from_the_seeded_stream(self, tmp_path, seed):
        """``--seed`` seeds ``random.Random(seed)``, which the sorter and the
        repeated-run readout sample from."""
        state = from_amplitudes(0, [0.6, 0, 0.48j, 0.64], 2)
        write_json(tmp_path / "s.json", state.to_json_dict())
        outputs = {}
        for strategy in ("sorter", "repeat"):
            assert invoke(["readout", "--input", str(tmp_path / "s.json"),
                           "--strategy", strategy, "--seed", str(seed),
                           "--output", str(tmp_path / "r.json")]).exit_code == 0
            outputs[strategy] = json.loads((tmp_path / "r.json").read_text())
        assert outputs["sorter"]["sampled_l"] == sample_full_measurement(
            state, 0, random.Random(seed))
        assert outputs["repeat"]["bits"] == repeated_run_readout(
            state, random.Random(seed))[0]

    def test_demux_strategy(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 5, 3).to_json_dict())
        result = invoke([
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "demux",
            "--output", str(tmp_path / "r.json"),
        ])
        out = json.loads((tmp_path / "r.json").read_text())
        assert out["bits"] == "101"
        assert out["cost"] == {"arms": 0, "cnot_count": 5, "decision_points": 0, "runs": 1}

    def test_sorter_plan_warns(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 10).to_json_dict())
        result = invoke([
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "sorter",
            "--output", str(tmp_path / "r.json"),
        ])
        out = json.loads((tmp_path / "r.json").read_text())
        assert out["cost"] == {"arms": 1024, "cnot_count": 0, "decision_points": 10, "runs": 1}
        assert out["exponential_warning"] is True

    @pytest.mark.parametrize("command", ["sorter", "repeat", "demux", "simulate"])
    def test_huge_qubit_count_is_refused(self, tmp_path, command):
        # Unbounded, sorter and demux would build 2**n and repeat loop n times.
        write_json(tmp_path / "s.json", {
            "n": 10**12, "amplitudes": [{"mode": 0, "l": 0, "re": 1.0, "im": 0.0}],
        })
        write_json(tmp_path / "net.json", {"n": 1, "modes": 1, "elements": []})
        args = (["simulate", "--netlist", str(tmp_path / "net.json")]
                if command == "simulate" else ["readout", "--strategy", command])
        result = invoke_cli([*args, "--input", str(tmp_path / "s.json")])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert "qubit count" in error["message"]

    def test_negative_mode_is_a_usage_error(self, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        result = invoke_cli([
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "demux", "--mode", "-1",
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert "--mode" in error["message"]

    @pytest.mark.parametrize("strategy", ["sorter", "repeat", "demux"])
    def test_empty_mode_is_named(self, tmp_path, strategy):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        result = invoke_cli([
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", strategy, "--mode", "1",
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert "--mode 1" in error["message"]

    @pytest.mark.parametrize("strategy, l", [("repeat", 2), ("repeat", -1), ("sorter", 2)])
    def test_out_of_range_amplitude_is_leakage(self, tmp_path, strategy, l):
        """A photon wholly outside [0, 2**n) in the read mode is refused as
        demux refuses it, not read as bits or sampled as an OAM index."""
        write_json(tmp_path / "s.json", basis_state(0, l, 1).to_json_dict())
        result = invoke_cli(["readout", "--input", str(tmp_path / "s.json"),
                             "--strategy", strategy])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert error["message"] == f"amplitude outside computational range at [(0, {l})]"

    def test_demux_of_a_finite_stage_state(self, tmp_path):
        # Simulating |0> leaves 1e-16 of rounding residue in the aux modes.
        U = haar_random_unitary(4, np.random.default_rng(901))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        write_json(tmp_path / "s.json", basis_state(0, 0, 2).to_json_dict())
        assert invoke([
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"), "--spec-n", "100",
        ]).exit_code == 0
        assert invoke([
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"), "--output", str(tmp_path / "out.json"),
        ]).exit_code == 0
        state = json.loads((tmp_path / "out.json").read_text())["state"]
        assert {entry["mode"] for entry in state["amplitudes"]} == {0, 1, 2}
        write_json(tmp_path / "final.json", state)
        result = invoke_cli([
            "readout", "--input", str(tmp_path / "final.json"), "--strategy", "demux",
            "--output", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0, result.stderr
        out = json.loads((tmp_path / "r.json").read_text())
        assert sorted(out["amplitudes"]) == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("strategy", ["sorter", "repeat", "demux"])
    def test_overflowing_magnitude_is_refused(self, tmp_path, strategy):
        write_json(tmp_path / "s.json", {
            "n": 1, "amplitudes": [{"mode": 0, "l": 0, "re": 1.5e308, "im": 1.5e308}],
        })
        result = invoke_cli(["readout", "--input", str(tmp_path / "s.json"),
                             "--strategy", strategy])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error == {"type": "validation", "message": "squared norm inf exceeds 1 + eps"}

    def test_demux_leakage_error(self, tmp_path):
        write_json(tmp_path / "s.json", {
            "n": 2, "amplitudes": [{"mode": 0, "l": -1, "re": 1.0, "im": 0.0}],
        })
        result = invoke_cli([
            "readout", "--input", str(tmp_path / "s.json"), "--strategy", "demux",
        ])
        assert result.exit_code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        U = haar_random_unitary(4, np.random.default_rng(3))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        write_json(tmp_path / "s.json", from_amplitudes(0, [0.5] * 4, 2).to_json_dict())
        outputs = []
        for tag in ("a", "b"):
            net = tmp_path / f"net_{tag}.json"
            rep = tmp_path / f"rep_{tag}.json"
            out = tmp_path / f"out_{tag}.json"
            rd = tmp_path / f"rd_{tag}.json"
            assert invoke([
                "compile", "--input", str(tmp_path / "u.json"),
                "--output", str(net), "--report", str(rep), "--spec-n", "200",
            ]).exit_code == 0
            assert invoke([
                "simulate", "--netlist", str(net),
                "--input", str(tmp_path / "s.json"),
                "--output", str(out), "--seed", "42", "--monte-carlo", "50",
            ]).exit_code == 0
            assert invoke([
                "readout", "--input", str(tmp_path / "s.json"),
                "--strategy", "repeat", "--seed", "7", "--output", str(rd),
            ]).exit_code == 0
            outputs.append(tuple(p.read_bytes() for p in (net, rep, out, rd)))
        assert outputs[0] == outputs[1]
        netlist_text = outputs[0][0].decode()
        assert netlist_text == json.dumps(json.loads(netlist_text), indent=2, sort_keys=True) + "\n"


#: Ints and finite floats at JSON's edges: negative, past 2**64, a negative
#: zero, the smallest subnormal, near the largest double, and 0.1.
json_ints = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
json_reals = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 0.1]),
                       st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def edge_netlists(draw):
    """A netlist of up to six elements of all seven kinds, ideal and finite
    gates, on up to ``2**40`` modes."""
    mode_count = draw(st.integers(2, 2**40))
    mode = st.integers(0, mode_count - 1)
    pair = st.lists(mode, min_size=2, max_size=2, unique=True)
    stages = st.one_of(st.just(elements.IDEAL), st.integers(1, elements.MAX_STAGES))
    gates = [pair.flatmap(lambda p, cls=cls: st.builds(cls, m=json_ints, src=st.just(p[0]),
                                                       dst=st.just(p[1]), stages=stages))
             for cls in (elements.ExtractGate, elements.ReintegrateGate)]
    element = st.one_of(
        st.builds(elements.PhaseShifter, mode, json_reals),
        st.builds(elements.Hologram, mode, json_ints),
        pair.flatmap(lambda p: st.builds(elements.BeamSplitter, st.just(p[0]), st.just(p[1]),
                                         json_reals)),
        st.builds(elements.Filter, mode, json_ints),
        st.builds(elements.Mirror, mode),
        *gates,
    )
    return elements.Netlist(n=draw(st.integers(1, 53)), mode_count=mode_count,
                            elements=draw(st.lists(element, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(netlist=edge_netlists())
@example(netlist=elements.Netlist(n=1, mode_count=1))
@example(netlist=elements.Netlist(n=2, mode_count=2, elements=(
    elements.BeamSplitter(mode_a=1, mode_b=0, theta=-0.0),)))
def test_netlist_writer_matches_indented_json(netlist):
    """The netlist writer, through json's C encoder, writes the text of
    ``json.dumps(indent=2, sort_keys=True)`` byte for byte, and that text
    reads back to the same netlist."""
    data = netlist.to_json_dict()
    text = cli._netlist_json(data)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert elements.Netlist.from_json_dict(json.loads(text)) == netlist


def test_netlist_writer_refuses_non_finite_values():
    data = {"n": 1, "modes": 1, "elements": [{"type": "phase", "mode": 0, "phi": math.inf}]}
    with pytest.raises(ValidationError, match="non-finite"):
        cli._netlist_json(data)


#: A value of each kind a caller may give an element field, valid or not.
field_values = st.one_of(
    st.integers(0, 3), st.integers(-2**70, 2**70), st.booleans(),
    st.sampled_from([0.5, math.nan, math.inf, -math.inf, "x", elements.IDEAL]))


@settings(max_examples=300, deadline=None)
@given(drawn=st.sampled_from(typing.get_args(elements.Element)).flatmap(
    lambda cls: st.tuples(st.just(cls), st.fixed_dictionaries(
        {name: field_values for name in cls._fields}))))
@example(drawn=(elements.Filter, {"mode": 0, "m": 0.5}))
@example(drawn=(elements.PhaseShifter, {"mode": 1, "phi": 2}))
def test_an_element_is_refused_or_read_back_equal(drawn):
    """An element, as a library caller builds it, is refused with a
    ``ValidationError``, or its one-element netlist is written and read back
    equal: the constructor and the netlist reader hold a field to one rule."""
    cls, fields = drawn
    try:
        netlist = elements.Netlist(n=1, mode_count=2**71, elements=(cls(**fields),))
    except ValidationError:
        return
    text = cli._netlist_json(netlist.to_json_dict())
    assert elements.Netlist.from_json_dict(json.loads(text)) == netlist


json_values = st.one_of(
    st.sampled_from([None, True, -1, 0, 1, 2**53, 2**64, 10**400, 1e308, math.nan, math.inf,
                     "x"]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(),
                  st.text(max_size=4)),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    ),
)


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated_json(draw, doc):
    """``doc`` with a few values replaced or deleted, as JSON text, or that
    text truncated or replaced by arbitrary bytes."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    text = json.dumps(doc).encode()
    damage = draw(st.integers(0, 9))
    if damage == 7:
        return text[:draw(st.integers(0, len(text)))]
    if damage == 8:
        return draw(st.binary(max_size=8))
    return b"[" * 100_000 if damage == 9 else text


#: Option values a user might mistype: negative, huge, non-numeric or boolean-like.
option_values = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["99999999999999999999", str(2**53), str(2**53 + 1), "1e3", "1.5",
                     "0x10", "nan", "", " ", "-", "true", "False", "yes", "None",
                     "ideal"]),
    st.text(max_size=6),
)

#: Each option under test, as the arguments that set it to ``{}``.
OPTION_COMMANDS = {
    "--seed": ["simulate", "--netlist", "net.json", "--input", "s.json",
               "--monte-carlo", "3", "--seed", "{}"],
    "readout --seed": ["readout", "--input", "s.json", "--strategy", "repeat", "--seed", "{}"],
    "--monte-carlo": ["simulate", "--netlist", "net.json", "--input", "s.json",
                      "--monte-carlo", "{}"],
    "--mode": ["readout", "--input", "s.json", "--strategy", "sorter", "--mode", "{}"],
    "--spec-n": ["compile", "--input", "u.json", "--spec-n", "{}"],
    "--n-list": ["zeno-sweep", "--n-list", "{}"],
}


def _seed_documents():
    U = haar_random_unitary(2, np.random.default_rng(5))
    with tempfile.TemporaryDirectory() as tmp:
        unitary, net = Path(tmp, "u.json"), Path(tmp, "net.json")
        write_json(unitary, unitary_to_json(U))
        invoke_cli(["compile", "--input", str(unitary), "--output", str(net),
                    "--spec-n", "3"], catch_exceptions=False)
        netlist = json.loads(net.read_text())
    state = from_amplitudes(0, [0.6, 0.8j], 1).to_json_dict()
    return unitary_to_json(U), netlist, state


UNITARY, NETLIST, STATE = _seed_documents()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a second line on stderr
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(unitary=mutated_json(UNITARY), netlist=mutated_json(NETLIST), state=mutated_json(STATE))
def test_fuzzed_inputs_fail_cleanly(tmp_path, unitary, netlist, state):
    """Any input file: exit 0, 2 or 3, never a traceback, and on failure
    exactly one JSON error object on stderr."""
    for name, data in (("u.json", unitary), ("net.json", netlist), ("s.json", state)):
        (tmp_path / name).write_bytes(data)
    out = str(tmp_path / "out.json")
    for args in (
        ["compile", "--input", "u.json", "--output", out, "--report", "rep.json"],
        ["simulate", "--netlist", "net.json", "--input", "s.json", "--output", out,
         "--monte-carlo", "3"],
        ["verify", "--netlist", "net.json", "--input", "u.json", "--output", out],
    ):
        args = [str(tmp_path / arg) if arg.endswith("json") and arg != out else arg
                for arg in args]
        result = invoke_cli(args)
        assert result.exit_code in (0, 2, 3), (args[0], result.exc_info)
        if result.exit_code:
            lines = result.stderr.splitlines()
            assert len(lines) == 1, result.stderr
            error = json.loads(lines[0])
            assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a second line on stderr
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(sorted(OPTION_COMMANDS)), value=option_values)
@example(option="--seed", value="-1")
@example(option="readout --seed", value="-1")
@example(option="--monte-carlo", value="99999999999999999999")
def test_fuzzed_option_values_fail_cleanly(tmp_path, option, value):
    """Any value of a numeric option: exit 0, 2 or 3, never a traceback, and
    on failure exactly one JSON error object on stderr."""
    for name, doc in (("u.json", UNITARY), ("net.json", NETLIST), ("s.json", STATE)):
        write_json(tmp_path / name, doc)
    args = [str(tmp_path / arg) if arg.endswith(".json") else value if arg == "{}" else arg
            for arg in OPTION_COMMANDS[option]]
    result = invoke_cli([*args, "--output", str(tmp_path / "out.json")])
    assert result.exit_code in (0, 2, 3), (args, result.exc_info)
    if result.exit_code:
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        error = json.loads(lines[0])
        assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]
