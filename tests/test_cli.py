import copy
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from oamcomp import compiler
from oamcomp.cli import main
from oamcomp.compiler import haar_random_unitary, unitary_to_json
from oamcomp.state import basis_state, from_amplitudes


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestCompile:
    def test_identity(self, runner, tmp_path):
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(4, dtype=complex)))
        result = invoke(runner, [
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 0
        net = json.loads((tmp_path / "net.json").read_text())
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert net["elements"] == []
        assert rep["verification_residual"] == 0.0

    def test_hadamard(self, runner, tmp_path):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        write_json(tmp_path / "u.json", unitary_to_json(H))
        result = invoke(runner, [
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

    def test_rejects_bad_dimension(self, runner, tmp_path):
        rows = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(7)] for i in range(7)]
        write_json(tmp_path / "u.json", {"d": 7, "rows": rows})
        result = runner.invoke(main, [
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
        ])
        assert result.exit_code == 2

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "compile", "--input", str(tmp_path / "nope.json"),
            "--output", str(tmp_path / "net.json"),
        ])
        assert result.exit_code == 3


class TestSimulate:
    def test_empty_netlist_echoes_input(self, runner, tmp_path):
        state = basis_state(0, 1, 1)
        write_json(tmp_path / "s.json", state.to_json_dict())
        write_json(tmp_path / "net.json", {"n": 1, "modes": 1, "elements": []})
        result = invoke(runner, [
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["survival"] == 1.0
        assert out["state"]["amplitudes"] == state.to_json_dict()["amplitudes"]

    def test_extraction_survival_uniform_input(self, runner, tmp_path):
        state = from_amplitudes(0, [0.5] * 4, 2)
        write_json(tmp_path / "s.json", state.to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 2, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 100}],
        })
        result = invoke(runner, [
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["survival"] == pytest.approx(0.9817201856079236, abs=1e-12)

    def test_mode_out_of_range(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "ps", "mode": 9, "phi": 0.0}],
        })
        result = runner.invoke(main, [
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
        ])
        assert result.exit_code == 2

    def test_monte_carlo_block(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 1, 1).to_json_dict())
        write_json(tmp_path / "net.json", {
            "n": 1, "modes": 2,
            "elements": [{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": 3}],
        })
        result = invoke(runner, [
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


class TestRejectsBadInput:
    """Bad input exits 2 and writes nothing."""

    def test_nan_unitary_entry(self, runner, tmp_path):
        data = unitary_to_json(haar_random_unitary(4, np.random.default_rng(0)))
        data["rows"][1][2][0] = float("nan")
        write_json(tmp_path / "u.json", data)
        result = runner.invoke(main, [
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["type"] == "validation"
        assert not (tmp_path / "net.json").exists()
        assert not (tmp_path / "rep.json").exists()

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
    ], ids=["bool-stages", "nan-phase", "inf-angle", "nan-amplitude", "negative-runs",
            "float-width", "float-modes", "float-filter-m", "float-stages",
            "float-state-width", "bool-mode", "float-l", "bool-re", "string-im"])
    def test_bad_simulate_input(self, runner, tmp_path, netlist, state, extra, kind):
        entry = {"mode": 0, "l": 1, "re": 1.0, "im": 0.0, **state}
        width = entry.pop("n", 1)
        write_json(tmp_path / "s.json", {"n": width, "amplitudes": [entry]})
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2, "elements": [], **netlist})
        result = runner.invoke(main, [
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"), *extra,
        ])
        assert result.exit_code == 2
        assert json.loads(result.stderr)["error"]["type"] == kind
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("data", [
        {"d": 2.0, "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"d": 2, "rows": [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"d": 2, "rows": [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ], ids=["float-d", "bool-entry", "string-entry"])
    def test_bad_unitary_numbers(self, runner, tmp_path, data):
        """The identity, written with a number of the wrong kind, is refused
        rather than read as the identity."""
        write_json(tmp_path / "u.json", data)
        write_json(tmp_path / "net.json", {"n": 1, "modes": 3, "elements": []})
        for args in (["compile", "--input", str(tmp_path / "u.json")],
                     ["verify", "--netlist", str(tmp_path / "net.json"),
                      "--input", str(tmp_path / "u.json")]):
            result = runner.invoke(main, [*args, "--output", str(tmp_path / "out.json")])
            assert result.exit_code == 2
            assert json.loads(result.stderr)["error"]["type"] == "validation"
            assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("extra, message", [
        (["--spec-n", "0"], "--spec-n"),
        (["--spec-n", "ten"], "--spec-n"),
        (["--bogus"], "--bogus"),
    ], ids=["zero-stages", "word-stages", "unknown-option"])
    def test_bad_compile_option(self, runner, tmp_path, extra, message):
        write_json(tmp_path / "u.json", unitary_to_json(np.eye(2, dtype=complex)))
        result = runner.invoke(main, [
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"), *extra,
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert message in error["message"]
        assert not (tmp_path / "net.json").exists()

    def test_help_still_prints_usage(self, runner):
        for args in (["--help"], ["compile", "--help"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.output.startswith("Usage:")

    def test_residual_guard_is_an_internal_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(compiler, "reconstruct_and_verify", lambda netlist, U: 1.0)
        H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        write_json(tmp_path / "u.json", unitary_to_json(H))
        result = runner.invoke(main, [
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


class TestVerify:
    def test_pipeline_closes(self, runner, tmp_path):
        U = haar_random_unitary(4, np.random.default_rng(8))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        assert invoke(runner, [
            "compile", "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "net.json"),
            "--report", str(tmp_path / "rep.json"),
        ]).exit_code == 0
        result = invoke(runner, [
            "verify", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "u.json"),
            "--output", str(tmp_path / "v.json"),
        ])
        assert result.exit_code == 0
        v = json.loads((tmp_path / "v.json").read_text())
        assert v["verification_residual"] < 1e-9


class TestZenoSweep:
    def test_rows_and_values(self, runner, tmp_path):
        result = invoke(runner, [
            "zeno-sweep", "--m", "0", "--n-list", "1,3,100",
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

    def test_rejects_bad_stage(self, runner):
        result = runner.invoke(main, ["zeno-sweep", "--n-list", "0"])
        assert result.exit_code == 2


class TestReadout:
    def test_repeat_strategy(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 6, 3).to_json_dict())
        result = invoke(runner, [
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "repeat",
            "--output", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0
        out = json.loads((tmp_path / "r.json").read_text())
        assert out["bits"] == "110"
        assert out["cost"]["runs"] == 3

    def test_demux_strategy(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 5, 3).to_json_dict())
        result = invoke(runner, [
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "demux",
            "--output", str(tmp_path / "r.json"),
        ])
        out = json.loads((tmp_path / "r.json").read_text())
        assert out["bits"] == "101"
        assert out["cost"]["cnot_count"] == 5

    def test_sorter_plan_warns(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 10).to_json_dict())
        result = invoke(runner, [
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "sorter",
            "--output", str(tmp_path / "r.json"),
        ])
        out = json.loads((tmp_path / "r.json").read_text())
        assert out["cost"]["arms"] == 1024
        assert out["exponential_warning"] is True

    def test_negative_mode_is_a_usage_error(self, runner, tmp_path):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        result = runner.invoke(main, [
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", "demux", "--mode", "-1",
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "usage"
        assert "--mode" in error["message"]

    @pytest.mark.parametrize("strategy", ["sorter", "repeat", "demux"])
    def test_empty_mode_is_named(self, runner, tmp_path, strategy):
        write_json(tmp_path / "s.json", basis_state(0, 0, 1).to_json_dict())
        result = runner.invoke(main, [
            "readout", "--input", str(tmp_path / "s.json"),
            "--strategy", strategy, "--mode", "1",
        ])
        assert result.exit_code == 2
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "validation"
        assert "--mode 1" in error["message"]

    def test_demux_leakage_error(self, runner, tmp_path):
        write_json(tmp_path / "s.json", {
            "n": 2, "amplitudes": [{"mode": 0, "l": -1, "re": 1.0, "im": 0.0}],
        })
        result = runner.invoke(main, [
            "readout", "--input", str(tmp_path / "s.json"), "--strategy", "demux",
        ])
        assert result.exit_code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, runner, tmp_path):
        U = haar_random_unitary(4, np.random.default_rng(3))
        write_json(tmp_path / "u.json", unitary_to_json(U))
        write_json(tmp_path / "s.json", from_amplitudes(0, [0.5] * 4, 2).to_json_dict())
        outputs = []
        for tag in ("a", "b"):
            net = tmp_path / f"net_{tag}.json"
            rep = tmp_path / f"rep_{tag}.json"
            out = tmp_path / f"out_{tag}.json"
            rd = tmp_path / f"rd_{tag}.json"
            assert invoke(runner, [
                "compile", "--input", str(tmp_path / "u.json"),
                "--output", str(net), "--report", str(rep), "--spec-n", "200",
            ]).exit_code == 0
            assert invoke(runner, [
                "simulate", "--netlist", str(net),
                "--input", str(tmp_path / "s.json"),
                "--output", str(out), "--seed", "42", "--monte-carlo", "50",
            ]).exit_code == 0
            assert invoke(runner, [
                "readout", "--input", str(tmp_path / "s.json"),
                "--strategy", "repeat", "--seed", "7", "--output", str(rd),
            ]).exit_code == 0
            outputs.append(tuple(p.read_bytes() for p in (net, rep, out, rd)))
        assert outputs[0] == outputs[1]


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


def _seed_documents():
    U = haar_random_unitary(2, np.random.default_rng(5))
    runner = CliRunner()
    with runner.isolated_filesystem():
        write_json(Path("u.json"), unitary_to_json(U))
        runner.invoke(main, ["compile", "--input", "u.json", "--output", "net.json",
                             "--spec-n", "3"], catch_exceptions=False)
        netlist = json.loads(Path("net.json").read_text())
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
        ["compile", "--input", "u.json", "--output", out, "--report", out],
        ["simulate", "--netlist", "net.json", "--input", "s.json", "--output", out,
         "--monte-carlo", "3"],
        ["verify", "--netlist", "net.json", "--input", "u.json", "--output", out],
    ):
        args = [str(tmp_path / arg) if arg.endswith("json") and arg != out else arg
                for arg in args]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 2, 3), (args[0], result.exc_info)
        if result.exit_code:
            lines = result.stderr.splitlines()
            assert len(lines) == 1, result.stderr
            error = json.loads(lines[0])
            assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]
