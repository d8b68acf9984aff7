"""Workloads, timing and metrics of the prkflow benchmark.

One run measures one workload in the calling process.  It repeats a cycle
while another one fits in the time budget, and always runs one: one whole
time integration of ``n_steps`` steps with ``setup_reps`` runs of the set-up
alone (``build_grid`` to the end of the first step) split around it, so that
a run whose single cycle fills the budget samples its set-up at both ends.
Step times are taken between the observer callbacks of ``integrators.run``,
so they are what a user of the library sees.

On a shared machine the CPU's speed drifts between a fast and a slow state,
so raw times move with the share of slow time in a run.  A ``SpeedProbe``
samples the host's speed every 5 ms throughout the run, and every set-up and
step time is reported at reference speed (``speed.py``); the raw times are
printed beside them.

With tracing on, each integration alternates traced and untraced steps: the
set-up and every odd step run with the tracer's wrappers installed, every
even step runs the unmodified code.  Per-layer metrics come from the traced
steps, and the traced against untraced step time of the same trajectory
gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prkflow import grid as grid_mod
from prkflow import harness, integrators

import checks
import speed
from tracer import Snapshot, SpanStats, Target, Tracer

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scheme: str
    n_steps: int            # steps per integration; the first one closes the set-up
    setup_reps: int         # set-up-only repetitions per cycle, for the setup_s median
    seeded: bool            # the seed sets the initial field
    overrides: tuple = ()   # preset overrides as (field, value) pairs
    why: str = ""

    def config(self, seed):
        over = dict(self.overrides)
        if self.seeded:
            over["seed"] = seed
        return harness.preset(self.preset, **over)


# Integrations have at least 101 steps, so that each has 100 timed steps and
# its p90 has 10 samples beyond it.
WORKLOADS = {w.name: w for w in (
    Workload("llg2d-prk", "llg_blowup42", "prk", 201, 1, False,
             why="2-D LLG bubble, PRK2, beta=1: per-call overhead, stage assembly "
                 "and a short Jacobi-BiCGStab solve"),
    Workload("nematic3d-prk", "twisted_nematic44", "prk", 101, 4, True,
             why="3-D twisted nematic from a seeded random field, PRK2: bound by "
                 "the Krylov solve on a 12 MB CSR operator; costly set-up"),
    Workload("llg2d-lm2", "llg_blowup42", "lm2", 201, 1, False,
             why="2-D LLG bubble, LM2: no Krylov solve or assembly; energy "
                 "evaluations in the scalar-root scan dominate"),
)}

E2E_UNITS = {"setup_s": "s", "step_ms_mean": "ms", "step_ms_p50": "ms", "step_ms_p90": "ms",
             "run_s": "s", "peak_rss_mb": "MB", "fail_frac": "frac",
             "setup_s_raw": "s", "step_ms_p50_raw": "ms", "step_ms_p90_raw": "ms",
             "run_s_raw": "s", "host_speed": "frac"}
# The result line carries these.  fail_frac is 0 on a correct run and goes
# there as failed/attempted; the mean step time, the raw times and the host's
# speed are printed only.
E2E_REPORTED = ("setup_s", "step_ms_p50", "step_ms_p90", "run_s", "peak_rss_mb")

# metric -> (unit, spans it is computed from); a metric is absent when none
# of its spans exists, and never when it lists none
LAYERS = {
    "harness.build_grid_s": ("s", ("harness.build_grid",)),
    "harness.build_initial_s": ("s", ("harness.build_initial",)),
    "grid.laplacian_s": ("s", ("grid.laplacian",)),
    "linalg.stage_template_s": ("s", ("linalg.stage_template",)),
    "integrators.lm2_init_s": ("s", ("integrators.lm2_init",)),
    "linalg.assemble_ms_per_step": ("ms", ("linalg.assemble",)),
    "linalg.assemble_calls_per_step": ("count", ("linalg.assemble",)),
    "linalg.solve_ms_per_step": ("ms", ("linalg.solve",)),
    "linalg.solve_calls_per_step": ("count", ("linalg.solve",)),
    "linalg.iters_per_solve": ("count", ("linalg.solve",)),
    "linalg.solve_us_per_iter": ("us", ("linalg.solve",)),
    "linalg.matvec_bytes_computed": ("B", ("linalg.solve",)),
    "field.projector_blocks_ms_per_step": ("ms", ("field.projector_blocks",)),
    "field.apply_blocks_ms_per_step": ("ms", ("field.apply_blocks",)),
    "field.apply_blocks_calls_per_step": ("count", ("field.apply_blocks",)),
    "field.normalize_diag_ms_per_step": ("ms", ("field.normalize", "field.diagnostics")),
    "grid.energy_ms_per_step": ("ms", ("grid.discrete_energy",)),
    "grid.energy_calls_per_step": ("count", ("grid.discrete_energy",)),
    "integrators.step_ms_p50": ("ms", ("integrators.step",)),
    "integrators.self_ms_per_step": ("ms", ("integrators.step",)),
    "integrators.record_gap_ms": ("ms", ()),
    "trace.overhead_frac": ("frac", ()),
}


def _solve_hook(extra, args, kwargs, result):
    """Iterations, computed CSR matvec bytes and the exact residual target of a solve."""
    A, rhs = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    _x, iters, resid = result
    extra["solve.iters"] = extra.get("solve.iters", 0) + int(iters)
    if hasattr(A, "indptr"):
        # y = A x over CSR: values, column indices, row pointers, x and y
        nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 2 * rhs.nbytes
        extra["solve.matvec_bytes"] = max(extra.get("solve.matvec_bytes", 0), nbytes)
    if cfg is not None:
        target = max(cfg.rel_tol * float(np.linalg.norm(rhs)), cfg.abs_tol)
        if not resid <= target:
            extra["solve.over_target"] = extra.get("solve.over_target", 0) + 1


_P = "prkflow."
TARGETS = (
    Target("harness.build_grid", _P + "harness", "build_grid"),
    Target("harness.build_initial", _P + "harness", "build_initial"),
    Target("grid.laplacian", _P + "grid", "laplacian"),
    Target("grid.discrete_energy", _P + "grid", "discrete_energy"),
    Target("grid.inner_product", _P + "grid", "inner_product"),
    Target("field.normalize", _P + "field", "normalize"),
    Target("field.diagnostics", _P + "field", "diagnostics"),
    Target("field.projector_blocks", _P + "field", "projector_blocks"),
    Target("field.apply_blocks", _P + "field", "apply_blocks"),
    Target("linalg.stage_template", _P + "linalg", "stage_template"),
    Target("linalg.assemble", _P + "linalg", "StageOperatorTemplate.assemble"),
    Target("linalg.solve", _P + "linalg", "solve", hook=_solve_hook),
    Target("integrators.lm2_init", _P + "integrators", "lm2_init"),
    *(Target("integrators.step", _P + "integrators", name, keep_durations=True)
      for name in ("prk_step", "prk_alt_step", "sip1_step", "lm2_step")),
)
NAMESPACES = tuple(_P + m for m in ("harness", "grid", "field", "linalg", "integrators"))


_energy = grid_mod.discrete_energy      # the unwrapped function, for the checks


@dataclass
class Integration:
    """What one integration leaves behind, in a size that barely grows with its steps.

    Step times are kept as packed arrays and the step records only as a
    digest, so that the run's peak RSS does not rise with the number of steps
    a faster program fits into the time budget.
    """

    setup_s: float         # build_grid to the end of step 1, at reference speed
    run_s: float           # set-up plus every step, at reference speed
    setup_raw_s: float     # the same two in raw wall time
    run_raw_s: float
    step_ms: array         # outside time of the untraced steps among 2..n, at reference speed
    raw_ms: array          # the same in raw wall time
    traced_ms: array       # raw wall time of the traced steps
    gap_ms: array          # outside time minus StepRecord.wall_ms, untraced steps
    n_steps: int           # steps completed
    first_step: tuple      # (solver_iters, energy) of step 1
    digest: str            # of (solver_iters, energy) over all steps: what must repeat exactly
    final_energy: float
    traced_iters: int      # solver iterations of the traced steps, from their StepRecords
    failure: object
    violations: list       # (step, message)
    setup_trace: Snapshot = None
    step_trace: Snapshot = None


def integrate(cfg, scheme, n_steps, probe, tracer=None):
    """One time integration from a fresh grid; the clock starts before build_grid.

    probe: an installed SpeedProbe, which rates the speed of the host.
    """
    clock = time.perf_counter
    stamps, starts, setup_trace = [], [], []

    def observe(i, _t, _m):
        stamps.append(clock())
        if tracer is not None:
            if i == 1:
                setup_trace.append(tracer.take())
            if (i + 1) % 2 == 1:        # odd steps are traced
                tracer.install()
            else:
                tracer.uninstall()
        starts.append(clock())

    gc.collect()        # free the previous grid, whose Laplacian refers back to it
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        grid = harness.build_grid(cfg)
        initial = harness.build_initial(cfg, grid)
        p = harness.scheme_params(cfg, scheme=scheme)
        _final, trace = integrators.run(initial, p, n_steps * p.tau, observers=[observe])
    finally:
        if tracer is not None:
            tracer.uninstall()
    step_trace = tracer.take() if tracer is not None else None

    plain_ms, raw_ms, traced_ms, gap_ms = array("d"), array("d"), array("d"), array("d")
    traced_iters = 0
    setup_s = probe.adjust(t0, stamps[0]) if stamps else float("nan")
    setup_raw_s = stamps[0] - t0 if stamps else float("nan")
    run_s, run_raw_s = setup_s, setup_raw_s
    for i in range(1, len(stamps)):          # record i is step i + 1
        a, b = starts[i - 1], stamps[i]
        adj = probe.adjust(a, b)
        run_s += adj
        run_raw_s += b - a
        ms = (b - a) * 1e3
        if tracer is not None and (i + 1) % 2 == 1:
            traced_ms.append(ms)
            traced_iters += sum(trace.records[i].solver_iters)
        else:
            plain_ms.append(adj * 1e3)
            raw_ms.append(ms)
            gap_ms.append(ms - trace.records[i].wall_ms)
    steps = [(r.solver_iters, r.energy) for r in trace.records]
    violations = checks.check_steps(trace.records, _energy(initial),
                                    checks.residual_bound(p, grid),
                                    structure=scheme.startswith("prk"), failure=trace.failure)
    if step_trace is not None and step_trace.extra.get("solve.over_target"):
        violations.append((len(trace.records), "a solve missed its verified residual target"))
    return Integration(setup_s=setup_s, run_s=run_s,
                       setup_raw_s=setup_raw_s, run_raw_s=run_raw_s,
                       step_ms=plain_ms, raw_ms=raw_ms, traced_ms=traced_ms, gap_ms=gap_ms,
                       n_steps=len(steps), first_step=steps[0] if steps else None,
                       digest=hashlib.sha256(repr(steps).encode()).hexdigest(),
                       final_energy=steps[-1][1] if steps else float("nan"),
                       traced_iters=traced_iters, failure=trace.failure, violations=violations,
                       setup_trace=setup_trace[0] if setup_trace else None,
                       step_trace=step_trace)


@dataclass
class Measurement:
    workload: Workload
    seed: int
    trace: bool
    setups: list
    runs: list
    probe_s: array = field(default_factory=lambda: array("d"))  # SpeedProbe times
    absent: list = field(default_factory=list)
    hook_errors: dict = field(default_factory=dict)
    present_spans: set = field(default_factory=set)
    run_violations: list = field(default_factory=list)   # (integration index, message)

    @property
    def attempted(self):
        return sum(x.n_steps + (x.failure is not None) for x in self.setups + self.runs)

    @property
    def failed(self):
        units = set()
        for k, x in enumerate(self.setups + self.runs):
            units.update((k, step) for step, _msg in x.violations)
        n_setups = len(self.setups)
        for j, _msg in self.run_violations:
            x = self.runs[j]
            units.add((n_setups + j, x.n_steps))
        return len(units)

    @property
    def correct(self):
        return self.failed == 0

    def messages(self):
        out = []
        for k, x in enumerate(self.setups + self.runs):
            out.extend(f"integration {k} step {s}: {m}" for s, m in x.violations)
        out.extend(f"integration {len(self.setups) + j}: {m}" for j, m in self.run_violations)
        return out


def load_reference():
    with open(HERE / "reference.json") as f:
        return json.load(f)


def measure(wl, seed, seconds, trace, reference=None):
    """Run one workload for about ``seconds`` seconds; returns a Measurement.

    reference: the parsed reference.json, or None to skip the final-energy check.
    """
    cfg = wl.config(seed)
    tracer = Tracer(TARGETS, NAMESPACES) if trace else None
    clock = time.perf_counter
    deadline = clock() + seconds
    setups, runs, cycle_s = [], [], 0.0
    before = wl.setup_reps // 2
    with speed.SpeedProbe() as probe:
        while not runs or clock() + cycle_s <= deadline:
            start = clock()
            setups += [integrate(cfg, wl.scheme, 1, probe, tracer) for _ in range(before)]
            runs.append(integrate(cfg, wl.scheme, wl.n_steps, probe, tracer))
            setups += [integrate(cfg, wl.scheme, 1, probe, tracer)
                       for _ in range(wl.setup_reps - before)]
            cycle_s = clock() - start
    m = Measurement(wl, seed, bool(trace), setups, runs, probe.times)
    if tracer is not None:
        m.absent = list(tracer.absent)
        m.hook_errors = dict(tracer.hook_errors)
        m.present_spans = set(tracer.present_spans)
    _check_repeats(m)
    _check_reference(m, reference)
    return m


def _trace_counts(snap):
    return sorted((k, v.calls) for k, v in snap.spans.items()) + sorted(snap.extra.items())


def _check_repeats(m):
    """Same seed and step count: every integration repeats exactly, counts included."""
    ok = [j for j, x in enumerate(m.runs) if x.failure is None]
    if not ok:
        return
    first = m.runs[ok[0]]
    for j in ok[1:]:
        if m.runs[j].digest != first.digest:
            m.run_violations.append((j, "steps differ from the first integration "
                                        "(solver iterations or energy)"))
    for x in m.setups:
        if x.n_steps and x.first_step != first.first_step:
            x.violations.append((1, "first step differs from the integrations' first step"))
    if not m.trace:
        return
    setup_counts = [_trace_counts(x.setup_trace) for x in m.setups + m.runs if x.setup_trace]
    if any(c != setup_counts[0] for c in setup_counts):
        m.run_violations.append((ok[0], "traced set-up call counts differ between set-ups"))
    step_counts = _trace_counts(first.step_trace)
    for j in ok[1:]:
        if _trace_counts(m.runs[j].step_trace) != step_counts:
            m.run_violations.append((j, "traced per-step call counts differ between integrations"))
    for j in ok:
        x = m.runs[j]
        iters = x.step_trace.extra.get("solve.iters")
        if iters is None:
            continue
        if iters != x.traced_iters:
            m.run_violations.append((j, f"traced solve iterations {iters} != StepRecord "
                                        f"solver_iters {x.traced_iters}"))


def _check_reference(m, reference):
    if reference is None or WORKLOADS.get(m.workload.name) != m.workload:
        return
    if m.workload.seeded and m.seed != reference["seed"]:
        return
    want = reference["final_energy"].get(m.workload.name)
    if want is None:
        return
    for j, x in enumerate(m.runs):
        if x.failure is None:
            msg = checks.check_final_energy(x.final_energy, want, reference["rel_tol"])
            if msg:
                m.run_violations.append((j, msg))


def _pct(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def end_to_end(m):
    """{metric: (value, unit, samples)} from the untraced steps of a measurement."""
    steps = [ms for x in m.runs for ms in x.step_ms]
    raw = [ms for x in m.runs for ms in x.raw_ms]
    setups = [x for x in m.setups + m.runs if x.n_steps]
    runs = [x for x in m.runs if x.failure is None]

    def median(values):
        return statistics.median(values) if values else float("nan")

    def mean(values):
        return statistics.fmean(values) if values else float("nan")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (median([x.setup_s for x in setups]), len(setups)),
        "step_ms_mean": (mean(steps), len(steps)),
        "step_ms_p50": (_pct(steps, 50), len(steps)),
        "step_ms_p90": (_pct(steps, 90), len(steps)),
        "run_s": (median([x.run_s for x in runs]), len(runs)),
        "peak_rss_mb": (rss_mb, 1),
        "fail_frac": (m.failed / max(m.attempted, 1), m.attempted),
        "setup_s_raw": (median([x.setup_raw_s for x in setups]), len(setups)),
        "step_ms_p50_raw": (_pct(raw, 50), len(raw)),
        "step_ms_p90_raw": (_pct(raw, 90), len(raw)),
        "run_s_raw": (median([x.run_raw_s for x in runs]), len(runs)),
        "host_speed": (speed.REF_S / median(m.probe_s), len(m.probe_s)),
    }
    return {k: (v, E2E_UNITS[k], n) for k, (v, n) in values.items()}


def _merge(snaps):
    out = Snapshot()
    for s in snaps:
        for k, v in s.spans.items():
            acc = out.spans.setdefault(k, SpanStats())
            acc.calls += v.calls
            acc.total_s += v.total_s
            acc.self_s += v.self_s
        for k, v in s.extra.items():
            out.extra[k] = max(out.extra.get(k, 0), v) if k == "solve.matvec_bytes" \
                else out.extra.get(k, 0) + v
        for k, v in s.durations.items():
            out.durations.setdefault(k, []).extend(v)
    return out


def per_layer(m):
    """{metric: (value, unit, samples)} from the traced steps; absent metrics read 0.

    Also returns the list of absent metric names.
    """
    ok = [x for x in m.runs if x.failure is None]
    S = _merge(x.step_trace for x in ok)
    n = sum(len(x.traced_ms) for x in ok)            # traced timed steps
    setup_snaps = [x.setup_trace for x in m.setups + m.runs if x.setup_trace]

    def per_step(value):
        return value / n if n else float("nan")

    def setup_median(*spans):
        return statistics.median(sum(s.total(sp) for sp in spans) for s in setup_snaps) \
            if setup_snaps else float("nan")

    calls_solve = S.calls("linalg.solve")
    iters = S.extra.get("solve.iters", 0)
    traced_ms = [ms for x in ok for ms in x.traced_ms]
    plain_ms = [ms for x in ok for ms in x.raw_ms]
    gaps = [g for x in ok for g in x.gap_ms]
    step_spans = S.durations.get("integrators.step", [])
    values = {
        "harness.build_grid_s": (setup_median("harness.build_grid"), len(setup_snaps)),
        "harness.build_initial_s": (setup_median("harness.build_initial"), len(setup_snaps)),
        "grid.laplacian_s": (setup_median("grid.laplacian"), len(setup_snaps)),
        "linalg.stage_template_s": (setup_median("linalg.stage_template"), len(setup_snaps)),
        "integrators.lm2_init_s": (setup_median("integrators.lm2_init"), len(setup_snaps)),
        "linalg.assemble_ms_per_step": (per_step(S.total("linalg.assemble") * 1e3), n),
        "linalg.assemble_calls_per_step": (per_step(S.calls("linalg.assemble")), n),
        "linalg.solve_ms_per_step": (per_step(S.total("linalg.solve") * 1e3), n),
        "linalg.solve_calls_per_step": (per_step(calls_solve), n),
        "linalg.iters_per_solve": (iters / calls_solve if calls_solve else 0.0, calls_solve),
        "linalg.solve_us_per_iter": (S.total("linalg.solve") * 1e6 / iters if iters else 0.0,
                                     iters),
        "linalg.matvec_bytes_computed": (float(S.extra.get("solve.matvec_bytes", 0)),
                                         calls_solve),
        "field.projector_blocks_ms_per_step":
            (per_step(S.total("field.projector_blocks") * 1e3), n),
        "field.apply_blocks_ms_per_step": (per_step(S.total("field.apply_blocks") * 1e3), n),
        "field.apply_blocks_calls_per_step": (per_step(S.calls("field.apply_blocks")), n),
        "field.normalize_diag_ms_per_step":
            (per_step((S.total("field.normalize") + S.total("field.diagnostics")) * 1e3), n),
        "grid.energy_ms_per_step": (per_step(S.total("grid.discrete_energy") * 1e3), n),
        "grid.energy_calls_per_step": (per_step(S.calls("grid.discrete_energy")), n),
        "integrators.step_ms_p50": (_pct([d * 1e3 for d in step_spans], 50), len(step_spans)),
        "integrators.self_ms_per_step":
            (per_step(S.spans["integrators.step"].self_s * 1e3)
             if "integrators.step" in S.spans else 0.0, n),
        "integrators.record_gap_ms": (_pct(gaps, 50), len(gaps)),
        "trace.overhead_frac": (_pct(traced_ms, 50) / _pct(plain_ms, 50) - 1.0, len(traced_ms)),
    }
    absent = [k for k, (_unit, spans) in LAYERS.items()
              if spans and not any(s in m.present_spans for s in spans)]
    if "linalg.solve" in m.hook_errors:
        absent += ["linalg.iters_per_solve", "linalg.solve_us_per_iter",
                   "linalg.matvec_bytes_computed"]
    out = {}
    for k, (v, cnt) in values.items():
        if k in absent or v != v:        # absent, or nothing to average over
            v = 0.0
        out[k] = (v, LAYERS[k][0], cnt)
    return out, sorted(set(absent))


def layer_shares(m):
    """Share of the traced step time spent in each span (total time, per step)."""
    ok = [x for x in m.runs if x.failure is None]
    S = _merge(x.step_trace for x in ok)
    step = S.total("integrators.step")
    if not step:
        return {}
    shares = {k: v.total_s / step for k, v in S.spans.items() if k != "integrators.step"}
    shares["integrators.self"] = S.spans["integrators.step"].self_s / step
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
