"""Experiment presets, convergence/robustness/work-precision drivers, emitters.

Presets generate fully explicit configurations (no hidden defaults); every
numeric CSV value is printed with 17 significant digits so emitted files
round-trip bit-for-bit and reruns are bit-identical.

The three drivers share one sweep.  It checks every checkpoint time against
every step size before any step, builds the grid, the initial field and one
reference trajectory per beta of the schemes' params once, and makes one
run per (scheme, tau), observed at every checkpoint (error and wall time
since t = 0).  The drivers only format its cells as rows.  Every run read at
checkpoint times (the sweep's, the reference's and ``prkflow run``'s) is a
``snapshot_run``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .field import VectorField, ProjectionParams, normalize
from .grid import Grid, NEUMANN, inner_product
from .integrators import TRACE_COLUMNS, SchemeParams, _step_count, run
from .linalg import SolverConfig

__all__ = [
    "ExperimentConfig",
    "PRESET_NAMES",
    "preset",
    "build_grid",
    "build_initial",
    "scheme_params",
    "l2_error",
    "convergence_driver",
    "robustness_driver",
    "work_precision_driver",
    "emit_field_vtk",
    "emit_trace_csv",
    "reference_snapshots",
    "snapshot_run",
    "checkpoint_steps",
    "config_to_json",
    "config_from_json",
]

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


# ---------------------------------------------------------------------------
# boundary-value and initial-field providers, referenced by name so configs
# stay serializable

def _point_defect_boundary(x):
    v = np.asarray(x, dtype=float) - 0.5
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _x_anchor(x):
    return np.tile([1.0, 0.0, 0.0], (len(x), 1))


def _y_anchor(x):
    return np.tile([0.0, 1.0, 0.0], (len(x), 1))


BOUNDARY_PROVIDERS = {
    "point_defect": _point_defect_boundary,
    "x_anchor": _x_anchor,
    "y_anchor": _y_anchor,
}


def _initial_convergence41(coords, _seed):
    x, y = coords[:, 0], coords[:, 1]
    m1 = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    m2 = 0.3 * np.sin(3 * np.pi * x) * np.sin(np.pi * y)
    m3 = 1.0 + 0.2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return np.vstack([m1, m2, m3]), True


def _initial_llg_bubble(coords, _seed):
    x, y = coords[:, 0], coords[:, 1]
    r = np.sqrt(x * x + y * y)
    a = (1.0 - 2.0 * r) ** 4
    out = np.zeros((3, coords.shape[0]))
    out[2] = -1.0
    inside = r < 0.5
    denom = a ** 2 + r ** 2
    out[0, inside] = (2.0 * x * a)[inside] / denom[inside]
    out[1, inside] = (2.0 * y * a)[inside] / denom[inside]
    out[2, inside] = (a ** 2 - r ** 2)[inside] / denom[inside]
    return out, False


def _initial_point_defect(coords, _seed):
    x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
    m1 = np.sin(2 * np.pi * x) + 2.0 + 0.5 * np.sin(6 * np.pi * y) + 0.2 * np.sin(4 * np.pi * z)
    m2 = np.cos(2 * np.pi * x) + 2.0 + 0.5 * np.cos(6 * np.pi * y) + 0.2 * np.cos(4 * np.pi * z)
    m3 = np.sin(2 * np.pi * x) + 6.0 * np.cos(6 * np.pi * y) + np.cos(4 * np.pi * z)
    return np.vstack([m1, m2, m3]), True


def _initial_random_unit(coords, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, coords.shape[0])), True


def _initial_constant_z(coords, _seed):
    out = np.zeros((3, coords.shape[0]))
    out[2] = 1.0
    return out, False


INITIAL_PROVIDERS = {
    "convergence41": _initial_convergence41,
    "llg_bubble42": _initial_llg_bubble,
    "point_defect43": _initial_point_defect,
    "random_unit": _initial_random_unit,
    "constant_z": _initial_constant_z,
}


def _finite(value):
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    dim: int
    k: int                     # cells per axis; nodes = k + 1
    length: float
    origin: tuple
    faces: tuple               # per-face: "neumann" or a BOUNDARY_PROVIDERS key
    initial: str               # an INITIAL_PROVIDERS key
    alpha: float
    beta: float
    tau: float
    T: float
    scheme: str = "prk"
    snapshot_times: tuple = ()
    output_dir: str = "."
    reference: str = "bdf4"    # bdf4 | self
    ref_tau: float = 1e-6
    seed: int = 20240817

    def __post_init__(self):
        for key in ("dim", "k", "seed"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{key!r} must be an integer, got {value!r}")
        if not self.k >= 1:
            raise ValueError(f"'k' (cells per axis) must be at least 1, got {self.k!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"'dim' must be 1, 2 or 3, got {self.dim!r}")
        if len(self.faces) != 2 * self.dim:
            raise ValueError(f"'faces' must have {2 * self.dim} entries at dim {self.dim}, "
                             f"got {self.faces!r}")
        for face in self.faces:
            if face != NEUMANN and face not in BOUNDARY_PROVIDERS:
                raise ValueError(f"unknown face {face!r}; know {(NEUMANN, *BOUNDARY_PROVIDERS)}")
        if self.initial not in INITIAL_PROVIDERS:
            raise ValueError(f"unknown initial {self.initial!r}; know {tuple(INITIAL_PROVIDERS)}")
        for key in ("length", "alpha", "tau", "ref_tau", "T", "beta"):
            value = getattr(self, key)
            if not _finite(value):
                raise ValueError(f"{key!r} must be a finite number, got {value!r}")
        for key in ("length", "alpha", "tau", "ref_tau"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key!r} must be positive, got {getattr(self, key)!r}")
        if self.T < 0:
            raise ValueError(f"'T' must not be negative, got {self.T!r}")
        if len(self.origin) != self.dim or not all(map(_finite, self.origin)):
            raise ValueError(f"'origin' must have {self.dim} finite entries at dim {self.dim}, "
                             f"got {self.origin!r}")
        if not all(_finite(t) and t >= 0 for t in self.snapshot_times):
            raise ValueError(f"'snapshot_times' must be finite and not negative, "
                             f"got {self.snapshot_times!r}")
        if self.reference not in ("bdf4", "self"):
            raise ValueError(f"'reference' must be 'bdf4' or 'self', got {self.reference!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"'output_dir' must be a string, got {self.output_dir!r}")

    @property
    def h(self):
        return self.length / self.k


_PRESETS = {cfg.preset: cfg for cfg in (
    ExperimentConfig(
        preset="convergence41", dim=2, k=64, length=1.0, origin=(-0.5, -0.5),
        faces=(NEUMANN,) * 4, initial="convergence41",
        alpha=1.0, beta=1.0, tau=3.2e-4, T=0.01024,
        reference="bdf4", ref_tau=1e-6),
    ExperimentConfig(
        preset="llg_blowup42", dim=2, k=24, length=1.0, origin=(-0.5, -0.5),
        faces=(NEUMANN,) * 4, initial="llg_bubble42",
        alpha=1.0, beta=1.0, tau=1e-4, T=0.1,
        snapshot_times=(0.02, 0.04, 0.048, 0.049, 0.1),
        reference="self", ref_tau=5e-5),
    ExperimentConfig(
        preset="point_defect43", dim=3, k=24, length=1.0, origin=(0.0, 0.0, 0.0),
        faces=("point_defect",) * 6, initial="point_defect43",
        alpha=1.0, beta=0.0, tau=1e-3, T=0.6,
        reference="self", ref_tau=1e-4),
    ExperimentConfig(
        preset="twisted_nematic44", dim=3, k=24, length=1.0, origin=(0.0, 0.0, 0.0),
        faces=(NEUMANN, NEUMANN, NEUMANN, NEUMANN, "x_anchor", "y_anchor"),
        initial="random_unit",
        alpha=1.0, beta=0.0, tau=5e-3, T=0.5,
        reference="self", ref_tau=1e-3),
    ExperimentConfig(
        preset="custom", dim=2, k=8, length=1.0, origin=(0.0, 0.0),
        faces=(NEUMANN,) * 4, initial="constant_z",
        alpha=1.0, beta=0.0, tau=1e-3, T=1e-2),
)}
PRESET_NAMES = tuple(_PRESETS)


def preset(name, **overrides):
    """Fully specified configuration for a named experiment."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; know {PRESET_NAMES}")
    return dataclasses.replace(_PRESETS[name], **overrides)


def build_grid(cfg):
    faces = tuple(NEUMANN if f == NEUMANN else BOUNDARY_PROVIDERS[f] for f in cfg.faces)
    return Grid(cfg.dim, cfg.k + 1, cfg.h, origin=cfg.origin, faces=faces)


def build_initial(cfg, grid=None):
    """Initial on-sphere field: provider values, normalized if needed, with
    Dirichlet nodes overwritten by their cached boundary values."""
    if grid is None:
        grid = build_grid(cfg)
    provider = INITIAL_PROVIDERS[cfg.initial]
    comps, needs_normalize = provider(grid.coords, cfg.seed)
    m = VectorField(np.asarray(comps, dtype=float), grid)
    if needs_normalize:
        m = normalize(m)
    fixed = grid.dirichlet_mask
    if fixed.any():
        comps = m.components.copy()
        comps[:, fixed] = grid.dirichlet_values[:, fixed]
        m = VectorField(comps, grid, on_sphere=True)
    return m


def scheme_params(cfg, scheme=None, tau=None):
    """SchemeParams of cfg, or of another scheme or tau; lm2 takes beta = 0."""
    scheme = scheme or cfg.scheme
    tau = tau if tau is not None else cfg.tau
    proj = ProjectionParams(alpha=cfg.alpha, beta=0.0 if scheme == "lm2" else cfg.beta)
    return SchemeParams(scheme=scheme, tau=tau, projection=proj)


def l2_error(a, b, grid=None):
    """Discrete L2 distance over all three components (trapezoidal rule)."""
    grid = grid or a.grid
    d = a.components - b.components
    return math.sqrt(inner_product(d, d, grid))


def checkpoint_steps(times, tau):
    """{time: step index} for checkpoint times; raises ValueError for a time
    that is not a whole number of steps of size tau."""
    return {t: _step_count(t, tau) for t in times}


def reference_snapshots(cfg, initial, times, beta=None):
    """Reference fields at several times from a single small-step trajectory.

    The trajectory starts from ``initial`` (on its grid).  The scheme is BDF4
    when cfg.reference == "bdf4" and PRK2 otherwise, at step ref_tau; a
    failed reference run raises RuntimeError.
    """
    proj = ProjectionParams(alpha=cfg.alpha, beta=cfg.beta if beta is None else beta)
    # reference trajectories run at a tightened tolerance so that accumulated
    # solver residuals stay below the Richardson qualification bound
    solver = SolverConfig(rel_tol=1e-12)
    scheme = "bdf4_ref" if cfg.reference == "bdf4" else "prk"
    p = SchemeParams(scheme=scheme, tau=cfg.ref_tau, projection=proj, solver=solver)
    _final, snaps, trace = snapshot_run(initial, p, max(times), times)
    if trace.failure is not None:
        raise RuntimeError(f"reference run failed: {trace.failure}")
    return {t: snaps[t][0] for t in times}


def snapshot_run(initial, p, T, times):
    """Run to T, keeping the field at each of ``times``.

    Every time must be a whole number of steps (ValueError before any step).
    Returns (final field, {time: (field, wall seconds since the run began)}
    for the times reached, trace); time 0 holds the initial field at 0 s and
    a time past T is not reached.
    """
    wanted = {}
    for t, i in checkpoint_steps(times, p.tau).items():
        wanted.setdefault(i, []).append(t)
    snaps = {t: (initial.copy(), 0.0) for t in wanted.get(0, ())}
    t0 = time.perf_counter()

    def observe(i, _t, m):
        for t in wanted.get(i, ()):
            snaps[t] = (m.copy(), time.perf_counter() - t0)

    final, trace = run(initial, p, T, observers=[observe])
    return final, snaps, trace


def _sweep(cfg, schemes, taus, times):
    """One run per (scheme, tau), compared with the reference at every time.

    There must be a scheme and a tau, every (scheme, tau) must make valid
    ``scheme_params`` and every time must be a whole number of steps of
    every tau (ValueError before any step).  The grid, the initial field and
    one reference per beta of the params are shared by all runs.  Yields
    (scheme, tau, cells) with cells = [(T, error, wall seconds from t = 0 to
    T), ...] in time order; error and wall are None for a time the run did
    not reach.
    """
    if not schemes or not taus:
        raise ValueError(f"a sweep needs a scheme and a tau, got schemes {list(schemes)} "
                         f"and taus {list(taus)}")
    params = {(scheme, tau): scheme_params(cfg, scheme=scheme, tau=tau)
              for scheme in schemes for tau in taus}
    times = sorted(times)
    for tau in taus:
        checkpoint_steps(times, tau)
    grid = build_grid(cfg)
    initial = build_initial(cfg, grid)
    refs = {}
    for scheme in schemes:
        beta = params[scheme, taus[0]].projection.beta
        if beta not in refs:
            refs[beta] = reference_snapshots(cfg, initial, times, beta=beta)
        for tau in taus:
            _final, snaps, _trace = snapshot_run(initial, params[scheme, tau], times[-1], times)
            cells = []
            for T in times:
                field, wall = snaps.get(T, (None, None))
                err = None if field is None else l2_error(field, refs[beta][T], grid)
                cells.append((T, err, wall))
            yield scheme, tau, cells


def convergence_driver(cfg, schemes, tau0=None, n_halvings=5, out_csv=None):
    """Dyadic temporal refinement; errors against the reference at T.

    Returns rows (scheme, tau, error, order); failed cells carry error = nan
    and the driver continues (matching the robustness-table convention).
    A negative ``n_halvings`` is a ValueError, before any step.
    """
    if n_halvings < 0:
        raise ValueError(f"n_halvings must be nonnegative, got {n_halvings}")
    tau0 = tau0 if tau0 is not None else cfg.tau
    taus = [tau0 / 2 ** j for j in range(n_halvings + 1)]
    nan = float("nan")
    rows = []
    prev_err = None
    for scheme, tau, [(_T, err, _wall)] in _sweep(cfg, schemes, taus, [cfg.T]):
        if tau == tau0:          # the first cell of a scheme has no order
            prev_err = None
        if err is None:
            rows.append((scheme, tau, nan, nan))
        else:
            order = nan if prev_err is None else float(np.log2(prev_err / err))
            rows.append((scheme, tau, err, order))
        prev_err = err
    if out_csv:
        write_csv(out_csv, ("scheme", "tau", "l2_error", "observed_order"), rows)
    return rows


def robustness_driver(cfg, schemes, taus, checkpoints, out_csv=None):
    """Errors at checkpoint times per (scheme, tau); one run per cell.

    Every checkpoint must be a whole number of steps of every tau (ValueError
    otherwise, before any step).  A failure marks the first checkpoint not
    reached as "NAN" and every later checkpoint as "--", reproducing the
    staircase table shape.  Returns {(scheme, tau): [(T, value-string), ...]}.
    """
    table = {}
    for scheme, tau, cells in _sweep(cfg, schemes, taus, checkpoints):
        row, reached = [], True
        for T, err, _wall in cells:
            if err is None:
                row.append((T, "NAN" if reached else "--"))
                reached = False
            else:
                row.append((T, _fmt(err)))
        table[(scheme, tau)] = row
    if out_csv:
        rows = []
        for (scheme, tau), cells in table.items():
            for T, val in cells:
                rows.append((scheme, tau, T, val))
        write_csv(out_csv, ("scheme", "tau", "T", "l2_error"), rows)
    return table


def work_precision_driver(cfg, schemes, taus, T_list, out_dir=None):
    """Timed runs; one row per (scheme, tau) per terminal time.

    One run per (scheme, tau) reaches every terminal time; a row's
    wall_seconds is that run's time from t = 0 to T.  Returns
    {T: [(scheme, tau, wall_seconds, error), ...]}; a time the run did not
    reach carries nan entries.  One CSV per terminal time in out_dir, made
    after the runs, when it is given.
    """
    nan = float("nan")
    out = {T: [] for T in T_list}
    for scheme, tau, cells in _sweep(cfg, schemes, taus, T_list):
        for T, err, wall in cells:
            out[T].append((scheme, tau, nan if wall is None else wall,
                           nan if err is None else err))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for T, rows in out.items():
            path = os.path.join(out_dir, f"work_precision_T{_fmt(T)}.csv")
            write_csv(path, ("scheme", "tau", "wall_seconds", "l2_error"), rows)
    return out


def emit_field_vtk(field, grid, path):
    """Legacy ASCII VTK structured-points file with one 3-vector attribute, m."""
    n = grid.n_per_axis
    dims = [1, 1, 1]
    for a in range(grid.dim):
        dims[a] = n
    origin = [0.0, 0.0, 0.0]
    for a in range(grid.dim):
        origin[a] = grid.origin[a]
    comps = field.components
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("prkflow field snapshot\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        f.write(f"ORIGIN {_fmt(origin[0])} {_fmt(origin[1])} {_fmt(origin[2])}\n")
        f.write(f"SPACING {_fmt(grid.h)} {_fmt(grid.h)} {_fmt(grid.h)}\n")
        f.write(f"POINT_DATA {grid.n_nodes}\n")
        f.write("VECTORS m double\n")
        for i in range(grid.n_nodes):
            f.write(f"{_fmt(comps[0, i])} {_fmt(comps[1, i])} {_fmt(comps[2, i])}\n")


def emit_trace_csv(trace, path):
    write_csv(path, TRACE_COLUMNS, list(trace.rows()))


def config_to_json(cfg):
    doc = dataclasses.asdict(cfg)
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text):
    """ExperimentConfig from JSON; ValueError naming any unknown or missing keys,
    an ``origin``, ``faces`` or ``snapshot_times`` that is not a list, a face,
    initial field, reference, ``output_dir``, non-integer count or seed,
    origin, snapshot time or other number (JSON's ``true`` is none) that
    ExperimentConfig rejects, or a scheme that SchemeParams rejects.
    """
    doc = json.loads(text)
    fields = dataclasses.fields(ExperimentConfig)
    unknown = sorted(set(doc) - {f.name for f in fields})
    missing = [f.name for f in fields if f.name not in doc and f.default is dataclasses.MISSING]
    if unknown or missing:
        raise ValueError(f"configuration: unknown keys {unknown}, missing keys {missing}")
    for key in ("origin", "faces", "snapshot_times"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ValueError(f"{key!r} must be a list, got {doc[key]!r}")
            doc[key] = tuple(doc[key])
    cfg = ExperimentConfig(**doc)
    scheme_params(cfg)
    return cfg
