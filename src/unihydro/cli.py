"""Run driver: configuration, CFL time-step control, the time loop, output
files, and the mesh-convergence orchestrator. Also the command-line entry
point (``run``, ``converge``, ``reference`` subcommands)."""

from __future__ import annotations

import argparse
import os
import sys
import time as _time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import cch as cch_mod
from . import diagnostics as diag
from . import problems as problems_mod
from . import sgh as sgh_mod
from .errors import ConfigError, MeshTangled, SolverFailure
from .eos import IdealGas
from .mesh import CchState, SghState, _least
from .problems import ProblemSpec

__all__ = ["RunConfig", "RunResult", "compute_dt", "run",
           "run_convergence", "ConvergenceTable", "main", "console_main"]

FIELDS = ("rho", "u", "p", "eps")
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class RunConfig:
    problem: str | ProblemSpec
    method: str = "sgh"
    n_cells: int = 100
    sgh_mode: str = "predictor_only"
    cch_solver: str = "quadratic"
    cfl: float = 0.3
    dt_init: float | None = None      # default: 1e-4 x first CFL candidate
    dt_max: float = float("inf")
    dt_growth: float = 1.01
    t_end: float | None = None        # default: the problem's end time
    out: str | None = None
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.method not in ("sgh", "cch"):
            raise ConfigError(f"method must be sgh or cch, got {self.method!r}")
        if self.sgh_mode not in sgh_mod.MODES:
            raise ConfigError(f"unknown sgh_mode {self.sgh_mode!r}")
        if self.cch_solver not in cch_mod.SOLVERS:
            raise ConfigError(f"unknown cch_solver {self.cch_solver!r}")
        if not 0.0 < self.cfl <= 0.9:
            raise ConfigError(f"cfl must be in (0, 0.9], got {self.cfl}")
        if self.n_cells < 2:
            raise ConfigError(f"n_cells must be >= 2, got {self.n_cells}")
        if not (self.dt_init is None or 0.0 < self.dt_init < float("inf")):
            raise ConfigError(f"dt_init must be finite and > 0, got {self.dt_init}")
        if not self.dt_max > 0.0:
            raise ConfigError(f"dt_max must be > 0, got {self.dt_max}")
        if not self.dt_growth >= 1.0:
            raise ConfigError(f"dt_growth must be >= 1, got {self.dt_growth}")
        if not (self.t_end is None or 0.0 <= self.t_end < float("inf")):
            raise ConfigError(f"t_end must be finite and >= 0, got {self.t_end}")


@dataclass
class RunResult:
    problem: ProblemSpec
    config: RunConfig
    mesh: object
    state: object
    ledger: diag.ConservationLedger
    monitor: diag.EntropyMonitor
    steps: int
    t_final: float
    wall_time: float


def _cfl_candidate(state, mesh, cfl: float) -> float:
    return cfl * float(_least(mesh.cell_volumes / (state.c + state.velocity_jumps())))


def compute_dt(state, mesh, cfl: float, dt_prev: float | None,
               dt_max: float, dt_growth: float, time_remaining: float) -> float:
    """CFL-limited step, clamped by growth rate, dt_max, and remaining time."""
    dt = _cfl_candidate(state, mesh, cfl)
    if dt_prev is not None:
        dt = min(dt, dt_growth * dt_prev)
    dt = min(dt, dt_max, time_remaining)
    if not dt > 0.0:
        raise SolverFailure(f"nonpositive time step {dt}")
    return dt


def resolve_problem(problem: str | ProblemSpec) -> ProblemSpec:
    if isinstance(problem, ProblemSpec):
        return problem
    if isinstance(problem, str):
        try:
            if problem.startswith("@"):
                with open(problem[1:], "r", encoding="utf-8") as fh:
                    return ProblemSpec.from_json(fh.read())
            return problems_mod.by_name(problem)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"cannot resolve problem from {problem!r}")


def _positivity_floors(state) -> tuple[float, float]:
    # (eps, rho) blow-up detector: well below any physically reachable value
    return 1e-14 * float(np.min(state.eps)), 1e-14 * float(np.min(state.rho))


def run(config: RunConfig) -> RunResult:
    """Time-march a problem to its end time with per-step audits.

    Raises SolverFailure (with step and time context) if the scheme breaks
    down; mesh tangling is reported through the MeshTangled subclass.
    """
    problem = resolve_problem(config.problem)
    t_end = problem.t_end if config.t_end is None else float(config.t_end)
    if not all(0.0 < t <= t_end for t in config.snapshot_times):
        raise ConfigError(f"snapshot_times must be in (0, t_end = {t_end}], "
                          f"got {config.snapshot_times}")
    gas = IdealGas(problem.gamma)
    try:
        mesh, state = problems_mod.build_initial(problem, config.n_cells, config.method)
    except ValueError as exc:
        raise ConfigError(f"initial state of {problem.name}: {exc}") from exc
    floors = _positivity_floors(state)
    step = (partial(sgh_mod.step, mode=config.sgh_mode, floors=floors) if config.method == "sgh"
            else partial(cch_mod.step, solver=config.cch_solver, floors=floors))

    ledger = diag.ConservationLedger.open(mesh, state)
    monitor = diag.EntropyMonitor()
    # a time equal to t_end is the final profile
    snapshots = sorted(t for t in config.snapshot_times if t < t_end)

    t = 0.0
    steps = budget_check = 0
    dt_prev: float | None = None
    started = _time.perf_counter()
    time_scale = max(t_end, 1.0)
    try:
        while t_end - t > 1e-14 * time_scale:
            if steps >= budget_check:   # every 1,024 steps: can the CFL step reach t_end?
                left, budget_check = _MAX_STEPS - steps, min(steps + 1024, _MAX_STEPS)
                if not t_end - t <= left * _cfl_candidate(state, mesh, config.cfl):
                    raise SolverFailure(f"t_end needs more than the {left} steps left at CFL")
            dt = compute_dt(state, mesh, config.cfl, dt_prev, config.dt_max,
                            config.dt_growth, t_end - t)
            if dt_prev is None:
                dt = min(dt, (config.dt_init if config.dt_init is not None
                              else 1e-4 * dt))
            # the growth limit follows the rule's step, not the output clamp
            dt_prev = dt
            if snapshots:
                dt = min(dt, snapshots[0] - t)

            mesh, state, report = step(state, mesh, gas, dt,
                                       problem.bc_left, problem.bc_right)
            t += dt
            steps += 1
            diag.audit_step(ledger, mesh, state, report.boundary)
            monitor.update(report.entropy_production, report.entropy_scale,
                           report.expansion)
            if snapshots and t >= snapshots[0] * (1.0 - 1e-14):
                snapshots.pop(0)
                if config.out:
                    _write_outputs(config, problem, mesh, state, tag=f"_t{t:.9g}")
    except SolverFailure as failure:
        raise failure.with_context(step=steps + 1, time=t) from None

    wall = _time.perf_counter() - started
    result = RunResult(problem, config, mesh, state, ledger, monitor,
                       steps, t, wall)
    if config.out:
        _write_outputs(config, problem, mesh, state)
        _write_summary(config, result)
    return result


# -- output files --------------------------------------------------------------

def _run_stem(config: RunConfig, problem: ProblemSpec) -> str:
    return f"{problem.name}_{config.method}_N{config.n_cells}"


def _write_outputs(config: RunConfig, problem: ProblemSpec, mesh, state, tag=""):
    os.makedirs(config.out, exist_ok=True)
    stem = os.path.join(config.out, _run_stem(config, problem) + tag)
    u_cell = state.cell_u
    e_total = state.E if isinstance(state, CchState) else state.eps + 0.5 * u_cell ** 2
    with open(stem + ".csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,rho,u,p,eps,e_total\n")
        _write_rows(fh, (mesh.cell_centers, state.rho, u_cell, state.p, state.eps, e_total))
    if isinstance(state, SghState):
        with open(stem + ".nodes", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,u\n")
            _write_rows(fh, (mesh.node_x, state.node_u))


def _write_rows(fh, columns, chunk: int = 256):
    """One comma-separated row of ``%.17g`` values per index of the equal-length
    columns, formatted ``chunk`` rows at a time to bound the memory held."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), chunk):
        block = zip(*(c[start:start + chunk].tolist() for c in columns))
        fh.write("".join([row % values for values in block]))


def _write_summary(config: RunConfig, result: RunResult):
    stem = os.path.join(config.out, _run_stem(config, result.problem))
    led = result.ledger
    lines = {
        "status": "success",
        "problem": result.problem.name,
        "method": config.method,
        "n_cells": config.n_cells,
        "steps": result.steps,
        "t_final": f"{result.t_final:.17g}",
        "wall_time_s": f"{result.wall_time:.6f}",
        "mass_initial": f"{led.mass0:.17g}",
        "mass_final": f"{led.mass:.17g}",
        "mass_drift": f"{led.mass_drift:.17g}",
        "momentum_drift": f"{led.momentum - led.momentum0:.17g}",
        "boundary_impulse": f"{led.boundary_impulse:.17g}",
        "momentum_residual_rel": f"{led.momentum_residual_rel:.6e}",
        "energy_drift": f"{led.energy - led.energy0:.17g}",
        "boundary_work": f"{led.boundary_work:.17g}",
        "energy_residual_rel": f"{led.energy_residual_rel:.6e}",
        "entropy_worst_normalized": f"{result.monitor.worst_normalized:.6e}",
        "entropy_violations": result.monitor.violations,
        "audit_violations": len(led.violations),
    }
    with open(stem + ".summary", "w", encoding="utf-8", newline="\n") as fh:
        for k, v in lines.items():
            fh.write(f"{k}={v}\n")


# -- convergence studies --------------------------------------------------------

@dataclass
class ConvergenceTable:
    problem: str
    method: str
    rows: list = field(default_factory=list)   # (N, {field: error})
    orders: dict = field(default_factory=dict)

    def format(self) -> str:
        header = "N," + ",".join(f"l1_{f}" for f in FIELDS)
        out = [header]
        for n, errs in self.rows:
            out.append(f"{n}," + ",".join(f"{errs[f]:.8e}" for f in FIELDS))
        if any(v is not None for v in self.orders.values()):
            out.append("order," + ",".join(
                "" if self.orders.get(f) is None else f"{self.orders[f]:.4f}"
                for f in FIELDS))
        return "\n".join(out) + "\n"


def run_convergence(config: RunConfig, n_list, n_reference: int = 3200) -> ConvergenceTable:
    """Independent runs over a list of resolutions, with L1 errors against the
    problem's reference solution and the fitted convergence order."""
    problem = resolve_problem(config.problem)
    t_end = problem.t_end if config.t_end is None else float(config.t_end)
    table = ConvergenceTable(problem.name, config.method)

    reference_cache = None
    if problem.reference == "self_converged":
        reference_cache = problems_mod._self_reference_run(problem, t_end, n_reference)

    for n in n_list:
        cfg = replace(config, n_cells=int(n), out=None)
        try:
            result = run(cfg)
        except SolverFailure as failure:
            raise SolverFailure(
                f"convergence run N={n} failed: {failure.reason}",
                step=failure.step, time=failure.time, cell=failure.cell) from failure
        centers = result.mesh.cell_centers
        if reference_cache is None:
            ref = problems_mod.sample_reference(problem, centers, result.t_final)
        else:
            rx, rfields = reference_cache
            ref = {f: np.interp(centers, rx, rfields[f]) for f in FIELDS}
        num = {"rho": result.state.rho, "u": result.state.cell_u,
               "p": result.state.p, "eps": result.state.eps}
        vols = result.mesh.cell_volumes
        errs = {f: diag.l1_error(num[f], ref[f], vols) for f in FIELDS}
        table.rows.append((int(n), errs))

    ns = [r[0] for r in table.rows]
    for f in FIELDS:
        try:
            table.orders[f] = diag.convergence_order(ns, [r[1][f] for r in table.rows])
        except ValueError:   # fewer than two distinct resolutions, or a zero error
            table.orders[f] = None
    return table


# -- command line ----------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error (a malformed or unknown flag) as a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _load_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc.strerror}") from exc
    with fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _number_list(text: str, kind=float) -> tuple:
    """Comma-separated numbers; ConfigError on anything else."""
    try:
        return tuple(kind(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


# Every RunConfig field once: field -> (flag, parser, help). The parser reads the
# flag's value and the field's value in a --config file alike; a dict parser
# maps each allowed value, and --help lists them.
_OPTIONS = {
    "problem": ("--problem", str, "problem name or @spec.json"),
    "method": ("--method", {"sgh": "sgh", "cch": "cch"}, "staggered-grid or cell-centered"),
    "n_cells": ("--cells", int, "number of cells"),
    "sgh_mode": ("--mode", {"predictor": "predictor_only", "pc": "predictor_corrector",
                            **{mode: mode for mode in sgh_mod.MODES}},
                 "time integration mode for the staggered method"),
    "cch_solver": ("--solver", {solver: solver for solver in cch_mod.SOLVERS},
                   "nodal solver for the cell-centered method"),
    "cfl": ("--cfl", float, None),
    "dt_init": ("--dt-init", float, None),
    "dt_max": ("--dt-max", float, None),
    "dt_growth": ("--dt-growth", float, None),
    "t_end": ("--t-end", float, None),
    "out": ("--out", str, "output directory"),
    "snapshot_times": ("--snapshots", _number_list, "comma-separated snapshot times"),
}
_RUN_ONLY = ("n_cells", "snapshot_times")   # converge takes a list of resolutions


def _option_value(field: str, text: str):
    flag, parse, _ = _OPTIONS[field]
    try:
        return parse[text] if isinstance(parse, dict) else parse(text)
    except (KeyError, ValueError):
        allowed = f"; expected one of {', '.join(parse)}" if isinstance(parse, dict) else ""
        raise ConfigError(f"bad value for {field} ({flag}): {text!r}{allowed}") from None


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The fields of the ``--config`` file, overridden by the flags given."""
    texts = _load_config_file(args.config) if args.config else {}
    texts.update((key, text) for key, text in vars(args).items() if key in _OPTIONS)
    values = {}
    for key, text in texts.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _option_value(key, text)
    if "problem" not in values:
        raise ConfigError("no problem specified (flag --problem or config file)")
    return RunConfig(**values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="unihydro",
        description="1D Lagrangian compressible-flow solver (staggered-grid "
                    "and cell-centered methods)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single simulation")
    p_conv = sub.add_parser("converge", help="mesh-convergence study")
    p_conv.add_argument("--cells", required=True,
                        help="comma-separated resolutions, e.g. 50,100,200")
    for p in (p_run, p_conv):
        p.add_argument("--config", help="key=value file of RunConfig fields, with the "
                                        "values the flags take; flags override it")
        for field, (flag, parse, about) in _OPTIONS.items():
            if p is p_run or field not in _RUN_ONLY:
                p.add_argument(flag, dest=field, default=argparse.SUPPRESS, help=about,
                               metavar="{%s}" % ",".join(parse) if isinstance(parse, dict)
                               else None)

    p_ref = sub.add_parser("reference", help="write a reference profile")
    p_ref.add_argument("--problem", required=True)
    p_ref.add_argument("--t", type=float, required=True)
    p_ref.add_argument("--points", type=int, required=True)
    p_ref.add_argument("--out", required=True, help="output csv file")
    return parser


def _write_reference(args):
    """The ``reference`` command: the reference profile at ``--points``
    uniform positions at time ``--t`` in [0, t_end], written to ``--out``."""
    problem = resolve_problem(args.problem)
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if not 0.0 <= args.t <= problem.t_end:
        raise ConfigError(f"--t must be in [0, t_end = {problem.t_end}], got {args.t}")
    x = np.linspace(problem.domain[0], problem.domain[1], args.points)
    ref = problems_mod.sample_reference(problem, x, args.t)
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {args.out!r}: {exc.strerror}") from exc
    with fh:
        fh.write("x,rho,u,p,eps\n")
        _write_rows(fh, (x, ref["rho"], ref["u"], ref["p"], ref["eps"]))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            config = _run_config(args)
            result = run(config)
            led = result.ledger
            print(f"{result.problem.name} {config.method} N={config.n_cells}: "
                  f"{result.steps} steps to t={result.t_final:.9g} "
                  f"in {result.wall_time:.3f}s; "
                  f"momentum residual {led.momentum_residual_rel:.2e}, "
                  f"energy residual {led.energy_residual_rel:.2e}")
            return 0
        if args.command == "converge":
            config = _run_config(args)
            table = run_convergence(config, _number_list(args.cells, int))
            text = table.format()
            print(text, end="")
            if config.out:
                os.makedirs(config.out, exist_ok=True)
                path = os.path.join(config.out,
                                    f"{table.problem}_{table.method}_convergence.csv")
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            return 0
        _write_reference(args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except MeshTangled as exc:
        print(f"mesh tangling: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())
