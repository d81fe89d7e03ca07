"""Traced per-layer run: spans around calls into each ``oamcomp`` layer.

The spans live in the benchmark, around the package's public functions; the
package itself is not instrumented. Each span records its name, start, end
and parent id; they are kept in memory and returned at the end with their
self times (duration minus the time covered by child spans).

The three CLI commands are replayed in-process as root spans ``cmd.compile``,
``cmd.simulate`` and ``cmd.verify``, each with one child span per layer call,
and their results must match the CLI's files byte for byte. Small operations
(one element apply, one gate, one state construction, one readout) are timed
over repeated calls and reported as medians.

A probed function that the package no longer defines is marked ``absent`` in
the spans and its metrics read 0; it never fails the run.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

import reference

_APPLIES = "simulate_rel and verify_rel on every workload"
_ZENO = "compile_rel, simulate_rel and verify_rel on zeno-sample"
_SAMPLING = "pipeline_rel (the sampling step) on zeno-sample"

#: Per-layer metric -> (unit, better, the end-to-end metric and workload it
#: should move).
PER_LAYER = {
    "compiler.decompose_s": ("s", "lower", "compile_rel on wide-ideal (under 2% there)"),
    "compiler.lower_s": ("s", "lower", "compile_rel on wide-ideal (under 2% there)"),
    "compiler.verify_s": ("s", "lower", "compile_rel and verify_rel on both workloads"),
    "compiler.verify_applies_per_s": ("1/s", "higher",
                                      "compile_rel and verify_rel on both workloads"),
    "compiler.survival_s": ("s", "lower", "compile_rel on zeno-sample"),
    "compiler.factors": ("count", "lower", "element_count on every workload"),
    "compiler.elements": ("count", "lower", "element_count on every workload"),
    "elements.run_s": ("s", "lower", "simulate_rel, most of all on zeno-sample"),
    "elements.bs_apply_us": ("us", "lower", _APPLIES),
    "elements.filter_apply_us": ("us", "lower", _APPLIES),
    "elements.ps_apply_us": ("us", "lower", _APPLIES),
    "elements.netlist_parse_s": ("s", "lower", "simulate_rel and verify_rel on wide-ideal"),
    "elements.netlist_dump_s": ("s", "lower", "compile_rel on wide-ideal"),
    "extraction.extract_gate_ms": ("ms", "lower", _ZENO),
    "extraction.reintegrate_gate_ms": ("ms", "lower", _ZENO),
    "extraction.expand_s": ("s", "lower", _SAMPLING),
    "extraction.primitives": ("count", "lower", _SAMPLING),
    "extraction.mc_run_ms": ("ms", "lower", _SAMPLING),
    "extraction.mc_run_p90_ms": ("ms", "lower", _SAMPLING),
    "extraction.mc_success_share": ("share", "higher", "none; tracks survival on zeno-sample"),
    "extraction.mc_filters_per_run": ("count", "lower", _SAMPLING),
    "extraction.mc_failed": ("count", "lower", "failed runs on zeno-sample"),
    "state.construct_us": ("us", "lower", _APPLIES),
    "readout.demux_us": ("us", "lower", "none; stays under 1% of simulate_rel"),
    "readout.sample_us": ("us", "lower", "none; stays under 1% of simulate_rel"),
    "cli.json_read_s": ("s", "lower", "every CLI time on wide-ideal"),
    "cli.json_write_s": ("s", "lower", "every CLI time on wide-ideal"),
    "cli.netlist_bytes": ("bytes", "lower", "every CLI time on wide-ideal"),
    "trace.overhead_compile_s": ("s", "lower", "none; cost of tracing compile"),
    "trace.overhead_simulate_s": ("s", "lower", "none; cost of tracing simulate"),
    "trace.overhead_verify_s": ("s", "lower", "none; cost of tracing verify"),
}

#: Time budget of one repeated micro-probe.
REPEAT_BUDGET_S = 0.3


class Tracer:
    """In-memory spans: name, start, end and parent id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def absent(self, name: str) -> None:
        with self.span(name) as record:
            record["absent"] = True

    def duration(self, name: str) -> float:
        """Duration of the first span called ``name``."""
        span = next(s for s in self.spans if s["name"] == name)
        return span["end"] - span["start"]

    def export(self) -> list[dict]:
        """Spans with times relative to the first and their self times."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin,
             "self_s": s["end"] - s["start"] - child_time[s["id"]]}
            for s in self.spans
        ]


def repeat(tr: Tracer, name: str, fn, *args) -> float:
    """Median seconds per call of ``fn(*args)`` over ``REPEAT_BUDGET_S``."""
    durations = []
    with tr.span(name) as record:
        start = time.perf_counter()
        while len(durations) < 3 or (
            time.perf_counter() - start < REPEAT_BUDGET_S and len(durations) < 5000
        ):
            t0 = time.perf_counter()
            fn(*args)
            durations.append(time.perf_counter() - t0)
        record["calls"] = len(durations)
    return statistics.median(durations)


def cli_text(payload: dict) -> str:
    """What the CLI writes for ``payload``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trace_workload(w, seed, mc_seed, files, times, cli, sampling, make_inputs):
    """Per-layer metrics and spans for workload ``w``; failures go to ``cli``.

    ``times`` holds the untraced CLI timings in seconds, per step.
    """
    from oamcomp import compiler, extraction, readout
    from oamcomp.elements import (
        ExtractGate, Netlist, ReintegrateGate, apply_beamsplitter, apply_filter,
        apply_phase_shifter, run_netlist)
    from oamcomp.state import PhotonState, basis_state, survival_probability

    tr = Tracer()
    v: dict[str, float] = {}
    out = files.outputs[0]
    netlist_text = out["compile"]["netlist"].read_text()
    unitary_text = files.unitary.read_text()
    state_text = files.state.read_text()
    n = w.d.bit_length() - 1
    finite = w.stages != "ideal"
    survival_fn = getattr(extraction, "analytic_netlist_survival", None)

    def check(ok: bool, message: str) -> None:
        cli.attempted += 1
        if not ok:
            cli.fail(message)

    # compile, as cli.compile does it
    with tr.span("cmd.compile"):
        with tr.span("cli.json_read_unitary"):
            u_data = json.loads(unitary_text)
        with tr.span("compiler.unitary_from_json"):
            U = compiler.unitary_from_json(u_data)
        with tr.span("compiler.decompose"):
            factors = compiler.decompose_two_level(U)
        with tr.span("compiler.lower"):
            seq = [el for f in factors
                   for el in compiler.lower_two_level(f, (0, 1, 2), w.stages)]
            netlist = Netlist(n=n, mode_count=3, elements=tuple(seq))
        with tr.span("compiler.verify"):
            compiler.reconstruct_and_verify(netlist, U)
        if finite and survival_fn is not None:
            with tr.span("compiler.survival"):
                survival_fn(basis_state(0, 0, n), netlist)
        with tr.span("elements.netlist_dump"):
            netlist_dict = netlist.to_json_dict()
        with tr.span("cli.json_write"):
            text = cli_text(netlist_dict)
    check(text == netlist_text, "traced compile wrote a different netlist than the CLI")
    if survival_fn is None:
        tr.absent("compiler.survival")
    elif not finite:
        with tr.span("compiler.survival"):
            survival_fn(basis_state(0, 0, n), netlist)

    # simulate
    with tr.span("cmd.simulate"):
        with tr.span("cli.json_read"):
            net_data = json.loads(netlist_text)
        with tr.span("elements.netlist_parse"):
            parsed = Netlist.from_json_dict(net_data)
        with tr.span("state.parse"):
            state = PhotonState.from_json_dict(json.loads(state_text))
        with tr.span("elements.run"):
            final = run_netlist(state, parsed)
        with tr.span("cli.json_write_state"):
            text = cli_text({"state": final.to_json_dict(),
                             "survival": survival_probability(final)})
    check(text == out["simulate"]["simulate"].read_text(),
          "traced simulate wrote a different state than the CLI")

    # verify
    with tr.span("cmd.verify"):
        with tr.span("cli.json_read_netlist"):
            net_data = json.loads(netlist_text)
        with tr.span("elements.netlist_parse_verify"):
            parsed = Netlist.from_json_dict(net_data)
        with tr.span("compiler.unitary_from_json_verify"):
            U = compiler.unitary_from_json(json.loads(unitary_text))
        with tr.span("compiler.verify_again"):
            residual = compiler.reconstruct_and_verify(parsed, U)
        with tr.span("cli.json_write_residual"):
            text = cli_text({"verification_residual": residual})
    check(text == out["verify"]["verify"].read_text(),
          "traced verify wrote a different residual than the CLI")

    v["compiler.decompose_s"] = tr.duration("compiler.decompose")
    v["compiler.lower_s"] = tr.duration("compiler.lower")
    v["compiler.verify_s"] = tr.duration("compiler.verify")
    v["compiler.verify_applies_per_s"] = w.d * len(netlist) / v["compiler.verify_s"]
    v["compiler.survival_s"] = 0.0 if survival_fn is None else tr.duration(
        "compiler.survival")
    v["compiler.factors"] = len(factors)
    v["compiler.elements"] = len(netlist)
    v["elements.run_s"] = tr.duration("elements.run")
    v["elements.netlist_parse_s"] = tr.duration("elements.netlist_parse")
    v["elements.netlist_dump_s"] = tr.duration("elements.netlist_dump")
    v["cli.json_read_s"] = tr.duration("cli.json_read")
    v["cli.json_write_s"] = tr.duration("cli.json_write")
    v["cli.netlist_bytes"] = len(netlist_text.encode())
    for cmd in ("compile", "simulate", "verify"):
        untraced = statistics.median(times[cmd]) - statistics.median(times["setup"])
        v[f"trace.overhead_{cmd}_s"] = tr.duration(f"cmd.{cmd}") - untraced

    # one operation at a time, on the workload's input state
    us = 1e6
    v["elements.bs_apply_us"] = us * repeat(tr, "elements.bs_apply",
                                            apply_beamsplitter, state, 0, 1, 0.3)
    v["elements.filter_apply_us"] = us * repeat(tr, "elements.filter_apply",
                                                apply_filter, state, 0, 0)
    v["elements.ps_apply_us"] = us * repeat(tr, "elements.ps_apply",
                                            apply_phase_shifter, state, 0, 0.7)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=w.d + 2) + 1j * rng.normal(size=w.d + 2)
    coeffs /= np.linalg.norm(coeffs)
    amps = {(0, l): coeffs[l] for l in range(w.d)}
    amps.update({(1, 0): coeffs[w.d], (2, 0): coeffs[w.d + 1]})
    v["state.construct_us"] = us * repeat(tr, "state.construct", PhotonState, n, amps)

    apply_macro = getattr(extraction, "apply_macro", None)
    if apply_macro is None:
        tr.absent("extraction.extract_gate")
        v["extraction.extract_gate_ms"] = v["extraction.reintegrate_gate_ms"] = 0.0
    else:
        extract = ExtractGate(m=1, src=0, dst=1, stages=w.stages)
        reintegrate = ReintegrateGate(m=1, src=0, dst=1, stages=w.stages)
        extracted = apply_macro(state, extract)
        v["extraction.extract_gate_ms"] = 1e3 * repeat(
            tr, "extraction.extract_gate", apply_macro, state, extract)
        v["extraction.reintegrate_gate_ms"] = 1e3 * repeat(
            tr, "extraction.reintegrate_gate", apply_macro, extracted, reintegrate)

    register = PhotonState(n=n, amplitudes={
        key: amp for key, amp in final.amplitudes.items()
        if key[0] == 0 and 0 <= key[1] < w.d})
    v["readout.demux_us"] = us * repeat(tr, "readout.demux", readout.demux, register, 0)
    v["readout.sample_us"] = us * repeat(tr, "readout.sample",
                                         readout.sample_full_measurement, final, 0, rng)

    v.update(sample_layer(tr, w, seed, mc_seed, sampling, make_inputs, netlist, state,
                          check))
    metrics = {name: {"value": v[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    return metrics, tr.export()


def sample_layer(tr, w, seed, mc_seed, sampling, make_inputs, netlist, state,
                 check) -> dict:
    """Monte Carlo probes on the sampling configuration.

    Sampling needs finite stages and is affordable only at zeno-sample's
    size, so every workload probes zeno-sample's configuration from its own
    seed; on zeno-sample this is the workload itself. The runs draw from ``mc_seed``,
    the stream the CLI's sampling step uses. Each run is one call, and a run
    that raises ``ValidationError`` is counted in ``mc_failed``.
    """
    from oamcomp import compiler, extraction
    from oamcomp.elements import Filter
    from oamcomp.errors import ValidationError
    from oamcomp.state import PhotonState

    expand = getattr(extraction, "expand_netlist", None)
    mc_run = getattr(extraction, "monte_carlo_run", None)
    names = ("extraction.expand_s", "extraction.primitives", "extraction.mc_run_ms",
             "extraction.mc_run_p90_ms", "extraction.mc_success_share",
             "extraction.mc_filters_per_run", "extraction.mc_failed")
    v = dict.fromkeys(names, 0.0)
    if w.mc_runs:
        sampling = w
        psi = np.array([state.amplitude(0, l) for l in range(w.d)])
    else:
        U, psi = make_inputs(sampling, seed)
        with tr.span("sampling.compile"):
            netlist, _ = compiler.compile_unitary(U, sampling.stages)
        state = PhotonState(n=netlist.n, amplitudes={(0, l): z for l, z in enumerate(psi)})
    expanded = ()
    if expand is None:
        tr.absent("extraction.expand")
    else:
        v["extraction.expand_s"] = repeat(tr, "extraction.expand", expand, netlist)
        expanded = expand(netlist).elements
        v["extraction.primitives"] = len(expanded)
    if mc_run is None:
        tr.absent("extraction.mc_run")
        return v

    filters = [i for i, el in enumerate(expanded) if isinstance(el, Filter)]
    rng = np.random.default_rng(mc_seed)
    durations, successes, filters_seen, failed = [], 0, [], 0
    for i in range(sampling.mc_runs):
        with tr.span("extraction.mc_run") as record:
            try:
                result = mc_run(state, netlist, rng)
            except ValidationError as exc:
                record["error"] = str(exc)
                failed += 1
                check(False, f"monte_carlo_run {i}: {exc}")
                continue
        check(True, "")
        durations.append(record["end"] - record["start"])
        successes += result.success
        filters_seen.append(len(filters) if result.absorbed_at is None
                            else bisect.bisect_right(filters, result.absorbed_at))
    runs = sampling.mc_runs
    p = float(reference.survival(reference.run(netlist.to_json_dict(), psi[:, None]))[0])
    done = runs - failed
    check(abs(successes - done * p) <= reference.mc_bound(done, p),
          f"traced Monte Carlo: {successes}/{done} successes, reference survival {p:.4f}")
    if durations:
        v["extraction.mc_run_ms"] = 1e3 * statistics.median(durations)
        v["extraction.mc_run_p90_ms"] = 1e3 * float(np.percentile(durations, 90))
        v["extraction.mc_filters_per_run"] = statistics.mean(filters_seen)
    v["extraction.mc_success_share"] = successes / runs
    v["extraction.mc_failed"] = failed
    return v
