"""The three benchmark workloads.

Each workload has a ``setup`` that builds every input its pass needs (timed
as ``setup_s``) and a ``run_pass`` that makes the workload's calls one after
another from this process (a closed loop with one client) and returns a
``Pass``. ``run_pass`` calls ``between()`` before each run; the benchmark
takes a host-speed sample there and subtracts its time from the pass. Every
run inside a pass is checked by ``checks.Tally``.

- ``matrix_small``: the six built-in problems x {SGH, CCH-quadratic,
  CCH-acoustic} at N=100 with the default config, profiles and summaries
  written. Per-step Python overhead, the dt ramp and the audits dominate.
- ``array_large``: a seeded 64-region Riemann array at N=10^4 with all three
  solvers, a fixed dt (no ramp), and profile snapshots. Per-cell numpy work
  and the 10^4-row profile writer dominate.
- ``converge``: ``run_convergence`` on sedov (self-converged reference) and
  lax (exact reference) for SGH and CCH. The only workload that builds
  references.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from checks import Tally

SOLVERS = (
    ("sgh", {"method": "sgh"}),
    ("cch-quadratic", {"method": "cch", "cch_solver": "quadratic"}),
    ("cch-acoustic", {"method": "cch", "cch_solver": "acoustic"}),
)


@dataclass
class Pass:
    wall_s: float
    tally: Tally
    l1_rho: float
    faults: list[str] = field(default_factory=list)  # failed output checks
    fingerprint: str | None = None
    speed: float = 1.0  # host-speed factor (hostspeed.py) set by the benchmark


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def _initial_states(uh, configs):
    """Every initial state the runs start from; built in setup so that work
    moved into ``build_initial`` shows in ``setup_s``."""
    return [uh.build_initial(c.problem, c.n_cells, c.method) for c in configs]


# -- matrix_small ---------------------------------------------------------------

MATRIX_N = 100
EXACT_PROBLEMS = ("sod", "lax", "double_rarefaction", "leblanc")


def _matrix_setup(uh, seed, workdir):
    del seed  # the six problems are fixed; every seed runs the same matrix
    configs = [(label, uh.RunConfig(problem=uh.by_name(name), n_cells=MATRIX_N,
                                    out=os.path.join(workdir, "matrix", label), **kw))
               for name in uh.PROBLEM_NAMES for label, kw in SOLVERS]
    return {"configs": configs,
            "initial": _initial_states(uh, [c for _, c in configs])}


def behaviour_fingerprint(root: str) -> str:
    """sha256 over every output file under ``root`` (sorted by path), with
    the ``wall_time_s`` line of the summaries removed."""
    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            lines = [ln for ln in fh if not ln.startswith(b"wall_time_s=")]
        digest.update(rel.encode() + b"\0" + b"".join(lines) + b"\0")
    return digest.hexdigest()


def _profile_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _matrix_pass(uh, inputs, workdir, between):
    tally = Tally()
    l1 = []
    written = []
    started = time.perf_counter()
    for label, config in inputs["configs"]:
        name = config.problem.name
        between()
        result = tally.attempt(f"{name}/{label}", lambda: uh.run(config))
        if result is None:
            continue
        written.append((config, os.path.join(config.out,
                                             uh.cli._run_stem(config, config.problem))))
        if name in EXACT_PROBLEMS:
            mesh = result.mesh
            ref = uh.sample_reference(result.problem, mesh.cell_centers, result.t_final)
            l1.append(uh.diagnostics.l1_error(result.state.rho, ref["rho"], mesh.cell_volumes))
    wall = time.perf_counter() - started

    faults = []
    for config, stem in written:
        suffixes = (".csv", ".summary") + ((".nodes",) if config.method == "sgh" else ())
        missing = [s for s in suffixes if not os.path.isfile(stem + s)]
        if missing:
            faults.append(f"{stem}: missing {missing}")
        elif _profile_rows(stem + ".csv") != config.n_cells:
            faults.append(f"{stem}.csv: wrong row count")
    return Pass(wall, tally, _mean(l1), faults,
                behaviour_fingerprint(os.path.join(workdir, "matrix")))


# -- array_large ------------------------------------------------------------------

ARRAY_REGIONS = 64
ARRAY_N = 10_000
ARRAY_GAMMA = 1.4
# Fixed dt and step count, so there is no ramp and every seed costs the same.
# dt is at most half the initial CFL step on seeds 1-40. dt = 29 * 2^-24
# makes every partial sum k*dt exact, so the snapshot times are hit without
# an extra short step and a new dt ramp.
ARRAY_STEPS = 400
ARRAY_DT = 29 * 2.0 ** -24
ARRAY_T_END = ARRAY_STEPS * ARRAY_DT
# the end time stays below this share of the first wave-interaction time, so
# the numerically smeared fans stay apart too
ARRAY_T_SHARE = 0.75


def _stratified(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """k draws of U(lo, hi), one from each of k equal bins, in seeded order.

    Every seed gets nearly the same set of values in a different arrangement,
    so wave speeds (and hence run cost and error) vary little between seeds.
    """
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _fan_speeds(sol, gamma: float) -> tuple[float, float]:
    """Slowest and fastest wave speed of an exact Riemann solution."""
    left, right = sol.left, sol.right
    cl, cr = left.sound_speed(gamma), right.sound_speed(gamma)

    def shock_factor(p_side):
        return np.sqrt((gamma + 1.0) / (2.0 * gamma) * sol.p_star / p_side
                       + (gamma - 1.0) / (2.0 * gamma))

    lo = left.u - cl * (shock_factor(left.p) if not sol.vacuum and sol.p_star > left.p else 1.0)
    hi = right.u + cr * (shock_factor(right.p) if not sol.vacuum and sol.p_star > right.p else 1.0)
    return float(lo), float(hi)


def _draw_array(uh, rng):
    """One K-region draw: region states and, per interface, (x0, exact
    solution, slowest, fastest speed of the band it sweeps), and the time at
    which two bands (or a band and a moving boundary node) first meet."""
    k = ARRAY_REGIONS
    rho = _stratified(rng, 0.25, 4.0, k)
    u = _stratified(rng, -1.0, 1.0, k)
    p = _stratified(rng, 0.1, 10.0, k)
    edges = np.linspace(0.0, 1.0, k + 1)
    fans = []
    for i in range(k - 1):
        sol = uh.exact_riemann_star((rho[i], u[i], p[i]), (rho[i + 1], u[i + 1], p[i + 1]),
                                    ARRAY_GAMMA)
        lo, hi = _fan_speeds(sol, ARRAY_GAMMA)
        fans.append((float(edges[i + 1]), sol, min(lo, 0.0), max(hi, 0.0)))
    bands = ([(0.0, u[0], u[0])] + [(x0, lo, hi) for x0, _, lo, hi in fans]
             + [(1.0, u[-1], u[-1])])
    t_meet = min((xb - xa) / (ha - lb) for (xa, _, ha), (xb, lb, _)
                 in zip(bands[:-1], bands[1:]) if ha - lb > 0.0)
    return (edges, rho, u, p), fans, t_meet


def riemann_array(uh, seed: int):
    """A seeded K-region Riemann array on [0, 1] and its exact solution.

    Returns the ``ProblemSpec`` and the interface fans. Draws whose wave fans
    would meet before ``ARRAY_T_END / ARRAY_T_SHARE`` are redrawn from the same
    generator, so until the end time the exact solution is the union of the
    interface fans.
    """
    rng = np.random.default_rng(seed)
    while True:
        (edges, rho, u, p), fans, t_meet = _draw_array(uh, rng)
        if ARRAY_T_SHARE * t_meet >= ARRAY_T_END:
            break
    regions = tuple(uh.problems.Region(float(edges[i]), float(edges[i + 1]),
                                       rho=float(rho[i]), u=float(u[i]), p=float(p[i]))
                    for i in range(ARRAY_REGIONS))
    spec = uh.ProblemSpec(
        name=f"riemann_array_s{seed}", domain=(0.0, 1.0), t_end=ARRAY_T_END,
        gamma=ARRAY_GAMMA, regions=regions,
        bc_left=uh.BoundaryCondition.transmissive(),
        bc_right=uh.BoundaryCondition.transmissive(),
        reference="exact_riemann")
    return spec, fans


def _initial_density(spec, fans, x: np.ndarray) -> np.ndarray:
    """The piecewise-constant initial density at positions x."""
    rho = np.array([r.rho for r in spec.regions])
    return rho[np.searchsorted([x0 for x0, *_ in fans], x)]


def exact_array_density(spec, fans, x: np.ndarray, t: float) -> np.ndarray:
    """Exact density at positions x and time t of a ``riemann_array``."""
    rho = _initial_density(spec, fans, x)
    for x0, sol, lo, hi in fans:
        m = (x >= x0 + lo * t) & (x <= x0 + hi * t)
        if np.any(m):
            rho[m] = sol.sample((x[m] - x0) / t)[0]
    return rho


def _array_setup(uh, seed, workdir):
    spec, fans = riemann_array(uh, seed)
    snapshots = (ARRAY_T_END / 4.0, ARRAY_T_END / 2.0)  # exact multiples of dt
    configs = [(label, uh.RunConfig(problem=spec, n_cells=ARRAY_N, dt_init=ARRAY_DT,
                                    dt_max=ARRAY_DT, snapshot_times=snapshots,
                                    out=os.path.join(workdir, "array", label), **kw))
               for label, kw in SOLVERS]
    return {"spec": spec, "fans": fans, "configs": configs,
            "initial": _initial_states(uh, [c for _, c in configs])}


def _array_pass(uh, inputs, workdir, between):
    del workdir  # the configs carry their output directories
    tally = Tally()
    l1 = []
    started = time.perf_counter()
    for label, config in inputs["configs"]:
        between()
        result = tally.attempt(label, lambda: uh.run(config))
        if result is None:
            continue
        # the error relative to how far the exact solution moved from the
        # initial data: the jump sizes, and with them the absolute error,
        # vary with the seed's arrangement
        x, vols = result.mesh.cell_centers, result.mesh.cell_volumes
        spec, fans = inputs["spec"], inputs["fans"]
        exact = exact_array_density(spec, fans, x, result.t_final)
        l1.append(uh.diagnostics.l1_error(result.state.rho, exact, vols)
                  / uh.diagnostics.l1_error(_initial_density(spec, fans, x), exact, vols))
    wall = time.perf_counter() - started
    return Pass(wall, tally, _mean(l1))


# -- converge -----------------------------------------------------------------------

CONVERGE_STUDIES = (
    ("sedov", "sgh", (50, 100, 200)),
    ("sedov", "cch", (50, 100, 200)),
    ("lax", "sgh", (100, 200, 400)),
    ("lax", "cch", (100, 200, 400)),
)
CONVERGE_N_REFERENCE = 800
LAX_MIN_ORDER = 0.5   # first-order schemes at a contact and a shock


def _converge_setup(uh, seed, workdir):
    del seed, workdir  # fixed studies; every seed runs the same set
    configs = [(uh.RunConfig(problem=uh.by_name(name), method=method), ns)
               for name, method, ns in CONVERGE_STUDIES]
    runs = [uh.RunConfig(problem=c.problem, method=c.method, n_cells=n)
            for c, ns in configs for n in ns]
    return {"configs": configs, "initial": _initial_states(uh, runs)}


def _converge_pass(uh, inputs, workdir, between):
    """The driver runs inside ``run_convergence`` (reference runs included)
    are counted through a pass-through on ``cli.run`` that records each
    returned result and calls ``between()`` before each run."""
    del workdir
    tally = Tally()
    cli = uh.cli
    inner = cli.run

    def recording_run(config):
        between()
        tally.attempted += 1
        try:
            result = inner(config)
        except Exception as exc:
            tally.fail(f"{config.problem.name}/{config.method}/N{config.n_cells}",
                       f"{type(exc).__name__}: {exc}")
            raise
        tally.add(f"{result.problem.name}/{config.method}/N{config.n_cells}", result)
        return result

    tables = []
    faults = []
    cli.run = recording_run
    started = time.perf_counter()
    try:
        for config, ns in inputs["configs"]:
            try:
                tables.append(uh.run_convergence(config, list(ns),
                                                 n_reference=CONVERGE_N_REFERENCE))
            except Exception as exc:  # counted as a failed run by recording_run
                faults.append(f"{config.problem.name}/{config.method}: "
                                f"{type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - started
        cli.run = inner

    l1 = []
    for table in tables:
        errors = [errs["rho"] for _, errs in table.rows]
        if len(errors) != 3 or not all(np.isfinite(e) and e > 0.0 for e in errors):
            faults.append(f"{table.problem}/{table.method}: bad errors {errors}")
        if table.problem == "lax":
            l1.append(errors[-1])
            if not table.orders["rho"] >= LAX_MIN_ORDER:
                faults.append(f"lax/{table.method}: density order "
                                f"{table.orders['rho']} < {LAX_MIN_ORDER}")
    return Pass(wall, tally, _mean(l1), faults)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object      # (uh, seed, workdir) -> inputs
    run_pass: object   # (uh, inputs, workdir, between) -> Pass


WORKLOADS = {w.name: w for w in (
    Workload("matrix_small", _matrix_setup, _matrix_pass),
    Workload("array_large", _array_setup, _array_pass),
    Workload("converge", _converge_setup, _converge_pass),
)}
