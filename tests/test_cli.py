import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

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

    @pytest.mark.parametrize("elements, amplitude, extra", [
        ([{"type": "extract", "m": 0, "src": 0, "dst": 1, "stages": True}], 1.0, []),
        ([{"type": "ps", "mode": 0, "phi": float("nan")}], 1.0, []),
        ([{"type": "bs", "mode_a": 0, "mode_b": 1, "theta": float("inf")}], 1.0, []),
        ([], float("nan"), []),
        ([], 1.0, ["--monte-carlo", "-5"]),
    ], ids=["bool-stages", "nan-phase", "inf-angle", "nan-amplitude", "negative-runs"])
    def test_bad_simulate_input(self, runner, tmp_path, elements, amplitude, extra):
        write_json(tmp_path / "s.json", {
            "n": 1, "amplitudes": [{"mode": 0, "l": 1, "re": amplitude, "im": 0.0}],
        })
        write_json(tmp_path / "net.json", {"n": 1, "modes": 2, "elements": elements})
        result = runner.invoke(main, [
            "simulate", "--netlist", str(tmp_path / "net.json"),
            "--input", str(tmp_path / "s.json"),
            "--output", str(tmp_path / "out.json"), *extra,
        ])
        assert result.exit_code == 2
        if not extra:  # option errors are reported by click, not as JSON
            assert json.loads(result.stderr)["error"]["type"] == "validation"
        assert not (tmp_path / "out.json").exists()


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
