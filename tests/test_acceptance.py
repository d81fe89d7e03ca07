"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import math

import numpy as np
import pytest

from click.testing import CliRunner

from oamcomp.cli import main as cli_main
from oamcomp.compiler import (
    compile_unitary,
    haar_random_unitary,
    lower_two_level,
    decompose_two_level,
    unitary_to_json,
)
from oamcomp.elements import Netlist, apply_beamsplitter, run_netlist
from oamcomp.extraction import (
    ExtractionSpec,
    component_survival,
    expand_netlist,
    ideal_extract,
    ideal_reintegrate,
    survival_lower_bound,
    zeno_extract,
    zeno_reintegrate,
)
from oamcomp.readout import demux, measure_bit, repeated_run_readout, sorter_cost
from oamcomp.state import (
    basis_state,
    from_amplitudes,
    normalized,
    survival_probability,
)

from conftest import random_state


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def vector_distance(a, b):
    keys = set(a.amplitudes) | set(b.amplitudes)
    return math.sqrt(sum(abs(a.amplitude(*k) - b.amplitude(*k)) ** 2 for k in keys))


def test_criterion_1_zeno_survival_law():
    worst = 0.0
    bound_ok = True
    for stages in (1, 3, 10, 100, 1000):
        spec = ExtractionSpec(m=0, src=0, dst=1, stages=stages)
        simulated = survival_probability(zeno_extract(basis_state(0, 1, 1), spec))
        worst = max(worst, abs(simulated - component_survival(stages)))
        if stages >= 10 and simulated < survival_lower_bound(stages):
            bound_ok = False
    report(1, worst <= 1e-12 and bound_ok,
           f"max |simulated - cos^2N(pi/2N)| = {worst:.2e}")


def test_criterion_2_rotation_composition():
    worst = 0.0
    for stages in (1, 10, 100, 1000, 10_000):
        state = basis_state(0, 5, 3)
        theta = math.pi / (2 * stages)
        for _ in range(stages):
            state = apply_beamsplitter(state, 0, 1, theta)
        full = apply_beamsplitter(basis_state(0, 5, 3), 0, 1, math.pi / 2)
        worst = max(worst, vector_distance(state, full))
    report(2, worst <= 1e-12, f"max deviation from BS(pi/2) = {worst:.2e}")


def test_criterion_3_extraction_semantics():
    rng = np.random.default_rng(2024)
    ideal_spec = ExtractionSpec(m=2, src=0, dst=1)
    zeno_spec = ExtractionSpec(m=2, src=0, dst=1, stages=1000)
    worst_ideal = 0.0
    worst_zeno = 0.0
    for _ in range(100):
        psi = random_state(rng, 2)
        ideal_out = ideal_extract(psi, ideal_spec)
        # E_m semantics, assembled by definition.
        expected = {
            (0, l): psi.amplitude(0, l) for l in range(4) if l != 2
        }
        expected[(1, 0)] = psi.amplitude(0, 2)
        worst_ideal = max(
            worst_ideal,
            max(abs(ideal_out.amplitude(*k) - v) for k, v in expected.items()),
        )
        zeno_out = normalized(zeno_extract(psi, zeno_spec))
        worst_zeno = max(worst_zeno, vector_distance(zeno_out, normalized(ideal_out)))
    report(3, worst_ideal <= 1e-12 and worst_zeno < 5e-3,
           f"ideal err {worst_ideal:.2e}, zeno N=1000 err {worst_zeno:.2e}")


def test_criterion_4_reversibility():
    rng = np.random.default_rng(77)
    ideal_spec = ExtractionSpec(m=1, src=0, dst=1)
    zeno_spec = ExtractionSpec(m=1, src=0, dst=1, stages=1000)
    worst_ideal = 0.0
    worst_zeno = 0.0
    for _ in range(20):
        psi = random_state(rng, 2)
        round_ideal = ideal_reintegrate(ideal_extract(psi, ideal_spec), ideal_spec)
        worst_ideal = max(worst_ideal, vector_distance(round_ideal, psi))
        round_zeno = normalized(
            zeno_reintegrate(zeno_extract(psi, zeno_spec), zeno_spec)
        )
        worst_zeno = max(worst_zeno, vector_distance(round_zeno, psi))
    report(4, worst_ideal <= 1e-12 and worst_zeno <= 1e-2,
           f"ideal {worst_ideal:.2e}, zeno N=1000 {worst_zeno:.2e}")


def test_criterion_5_universality_round_trip():
    rng = np.random.default_rng(5150)
    worst_residual = 0.0
    worst_untouched = 0.0
    budget_ok = True
    for d in (2, 4, 8):
        n = d.bit_length() - 1
        for _ in range(50):
            U = haar_random_unitary(d, rng)
            factors = decompose_two_level(U)
            if len(factors) > d * (d - 1) // 2 + d:
                budget_ok = False
            netlist, rep = compile_unitary(U)
            worst_residual = max(worst_residual, rep.verification_residual)
        # Untouched-component property, checked factor by factor.
        U = haar_random_unitary(d, rng)
        for factor in decompose_two_level(U):
            net = Netlist(n=n, mode_count=3, elements=tuple(lower_two_level(factor)))
            for l in range(d):
                if l in (factor.m, factor.n_idx):
                    continue
                out = run_netlist(basis_state(0, l, n), net)
                worst_untouched = max(worst_untouched, abs(out.amplitude(0, l) - 1))
    report(5, worst_residual < 1e-9 and budget_ok and worst_untouched <= 1e-12,
           f"residual {worst_residual:.2e}, untouched err {worst_untouched:.2e}")


def test_criterion_6_survival_accounting():
    rng = np.random.default_rng(606)
    U = haar_random_unitary(4, rng)
    netlist, _ = compile_unitary(U, spec_stages=2000)
    chain = expand_netlist(netlist)
    worst = 0.0
    for _ in range(3):
        psi = random_state(rng, 2)
        simulated = survival_probability(run_netlist(psi, chain))
        analytic = survival_probability(run_netlist(psi, netlist))
        worst = max(worst, abs(simulated - analytic))
    report(6, worst <= 1e-9,
           f"max |primitive chain - closed-form gates| = {worst:.2e}")


def test_criterion_7_readout_costs():
    rng = np.random.default_rng(9)
    ok = True
    for n in range(1, 17):
        cost, _ = sorter_cost(n)
        ok &= cost.arms == 1 << n and cost.decision_points == n
        _, dcost = demux(basis_state(0, 0, n), 0)
        ok &= dcost.cnot_count == 2 * n - 1
    for n in range(1, 11):
        for l in range(1 << n):
            bits, _ = repeated_run_readout(lambda: basis_state(0, l, n), n, rng)
            ok &= bits == format(l, f"0{n}b")
    report(7, ok)


def test_criterion_8_born_rule_sampling():
    rng = np.random.default_rng(88)
    psi = from_amplitudes(0, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], 2)
    samples = 10_000
    ones = sum(measure_bit(psi, 0, 0, rng)[0] for _ in range(samples))
    sigma = math.sqrt(0.25 * samples)
    deviation = abs(ones - samples / 2)
    report(8, deviation <= 4 * sigma, f"|count - 5000| = {deviation:.0f}, 4s = {4 * sigma:.0f}")


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    rng = np.random.default_rng(12)
    (tmp_path / "u.json").write_text(
        json.dumps(unitary_to_json(haar_random_unitary(4, rng)))
    )
    (tmp_path / "s.json").write_text(
        json.dumps(from_amplitudes(0, [0.5] * 4, 2).to_json_dict())
    )
    blobs = []
    for tag in ("first", "second"):
        paths = {
            name: tmp_path / f"{name}_{tag}"
            for name in ("net", "rep", "sim", "sweep", "rd")
        }
        commands = [
            ["compile", "--input", str(tmp_path / "u.json"),
             "--output", str(paths["net"]), "--report", str(paths["rep"]),
             "--spec-n", "100"],
            ["simulate", "--netlist", str(paths["net"]),
             "--input", str(tmp_path / "s.json"), "--output", str(paths["sim"]),
             "--seed", "4", "--monte-carlo", "64"],
            ["zeno-sweep", "--n-list", "1,3,10,100", "--output", str(paths["sweep"])],
            ["readout", "--input", str(tmp_path / "s.json"), "--strategy", "repeat",
             "--seed", "4", "--output", str(paths["rd"])],
        ]
        for cmd in commands:
            result = runner.invoke(cli_main, cmd, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        blobs.append(tuple(p.read_bytes() for p in paths.values()))
    report(9, blobs[0] == blobs[1])
