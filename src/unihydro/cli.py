"""Run driver: configuration, CFL time-step control, the time loop, output
files, and the mesh-convergence orchestrator. Also the command-line entry
point (``run``, ``converge``, ``reference`` subcommands)."""

from __future__ import annotations

import argparse
import math
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
from .mesh import CchState, SghState, Workspace, _least
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


def _cfl_candidate(state, mesh, cfl: float, workspace) -> float:
    """cfl x min(volume / (c + velocity jump)); the jumps, their sum with c and
    the ratio go into the buffers of ``workspace``, a ``mesh.Workspace``."""
    ratio = state.velocity_jumps(workspace)
    np.add(state.c, ratio, ratio)
    return cfl * float(_least(np.divide(mesh.cell_volumes, ratio, ratio)))


def compute_dt(state, mesh, cfl: float, dt_prev: float | None,
               dt_max: float, dt_growth: float, time_remaining: float,
               workspace) -> float:
    """CFL-limited step, clamped by growth rate, dt_max, and remaining time."""
    dt = _cfl_candidate(state, mesh, cfl, workspace)
    if dt_prev is not None:
        dt = min(dt, dt_growth * dt_prev)
    dt = min(dt, dt_max, time_remaining)
    if not dt > 0.0:
        raise SolverFailure(f"nonpositive time step {dt}")
    return dt


def resolve_problem(problem: str | ProblemSpec) -> ProblemSpec:
    if isinstance(problem, ProblemSpec):
        return problem
    if isinstance(problem, str) and problem.startswith("@"):
        return ProblemSpec.from_json(_read_text("--problem", problem[1:]))
    return problems_mod.by_name(problem)


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
    # a time equal to t_end is the final profile; a repeated time is one snapshot,
    # and each other one needs its own file tag
    snapshots = sorted({t for t in config.snapshot_times if t < t_end})
    if (not all(0.0 < t <= t_end for t in config.snapshot_times)
            or len({f"{t:.9g}" for t in snapshots}) < len(snapshots)):
        raise ConfigError(f"snapshot_times must be in (0, t_end = {t_end}] with distinct "
                          f"tags at 9 digits, got {config.snapshot_times}")
    gas = IdealGas(problem.gamma)
    mesh, state = problems_mod.build_initial(problem, config.n_cells, config.method)
    _make_out_dir(config.out)
    workspace = Workspace(config.n_cells)   # the steps' and the CFL candidate's
    bound = {"floors": _positivity_floors(state), "workspace": workspace}
    step = (partial(sgh_mod.step, mode=config.sgh_mode, **bound) if config.method == "sgh"
            else partial(cch_mod.step, solver=config.cch_solver, **bound))

    ledger = diag.ConservationLedger.open(mesh, state)
    monitor = diag.EntropyMonitor()

    t = 0.0
    steps = budget_check = 0
    dt_prev: float | None = None
    started = _time.perf_counter()
    try:
        while t_end - t > 1e-14 * t_end:
            dt = compute_dt(state, mesh, config.cfl, dt_prev, config.dt_max,
                            config.dt_growth, t_end - t, workspace)
            if dt_prev is None:
                dt = min(dt, (config.dt_init if config.dt_init is not None
                              else 1e-4 * dt))
            # the growth limit follows the rule's step, not the output clamp
            dt_prev = dt
            if steps >= budget_check:   # every 1,024 steps: can the dt rule reach t_end?
                left, budget_check = _MAX_STEPS - steps, min(steps + 1024, _MAX_STEPS)
                # later steps stay under the CFL step, dt_max and dt grown each step (1,024+)
                ramp = math.exp(min(max(left, 1024) * math.log(config.dt_growth), 700.0))
                reach = min(_cfl_candidate(state, mesh, config.cfl, workspace),
                            config.dt_max, dt * ramp)
                if not t_end - t <= left * reach:
                    raise SolverFailure(f"t_end needs more than the {left} steps left")
            if snapshots:
                dt = min(dt, snapshots[0] - t)

            mesh, state, report = step(state, mesh, gas, dt,
                                       problem.bc_left, problem.bc_right)
            t += dt
            steps += 1
            diag.audit_step(ledger, mesh, state, report.boundary)
            monitor.update(report)
            if snapshots and t >= snapshots[0] * (1.0 - 1e-14):
                t_snap = snapshots.pop(0)   # the tag is the requested time
                if config.out:
                    _write_outputs(config, problem, mesh, state, tag=f"_t{t_snap:.9g}")
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

def _make_out_dir(path: str | None):
    try:
        if path:
            os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make directory {path!r}: {exc.strerror}") from exc


def _open_output(path: str):
    """``path`` opened to write text; one that cannot be written is a ConfigError."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path!r}: {exc.strerror}") from exc


def _run_stem(config: RunConfig, problem: ProblemSpec) -> str:
    return f"{problem.name}_{config.method}_N{config.n_cells}"


def _write_outputs(config: RunConfig, problem: ProblemSpec, mesh, state, tag=""):
    stem = os.path.join(config.out, _run_stem(config, problem) + tag)
    u_cell = state.cell_u
    e_total = state.E if isinstance(state, CchState) else state.eps + 0.5 * u_cell ** 2
    with _open_output(stem + ".csv") as fh:
        fh.write("x,rho,u,p,eps,e_total\n")
        _write_rows(fh, (mesh.cell_centers, state.rho, u_cell, state.p, state.eps, e_total))
    if isinstance(state, SghState):
        with _open_output(stem + ".nodes") as fh:
            fh.write("x,u\n")
            _write_rows(fh, (mesh.node_x, state.node_u))


def _write_rows(fh, columns, chunk: int = 1024):
    """One comma-separated row of ``%.17g`` values per index of the equal-length
    columns, formatted ``chunk`` rows at a time to bound the memory held.

    A value costs about 0.45 us to format, and a Lagrangian profile repeats
    many (a cell keeps its state until a wave reaches it). So each run of equal
    bits down a column (-0.0 and 0.0, or NaNs of other payloads, stay apart)
    is formatted once and its text repeated, when at least one value in six
    of the chunk repeats; below that, the bookkeeping costs more than it saves,
    and the chunk is formatted value by value in one call."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    # each head's text carries its separator; NUL ends it for the split
    head = ["%.17g,\0"] * (len(columns) - 1) + ["%.17g\n\0"]
    for start in range(0, len(columns[0]), chunk):
        block = np.array([c[start:start + chunk] for c in columns], dtype=float)
        bits = block.view(np.int64)
        new = np.empty(block.shape, dtype=bool)   # a run starts here
        new[:, 0] = True
        np.not_equal(bits[:, 1:], bits[:, :-1], out=new[:, 1:])
        heads = np.count_nonzero(new, axis=1)
        if 6 * (block.size - heads.sum()) < block.size:
            fh.write((row * block.shape[1]) % tuple(block.T.ravel().tolist()))
            continue
        form = "".join([f * n for f, n in zip(head, heads.tolist())])
        texts = np.array((form % tuple(block[new].tolist())).split("\0"), dtype=object)
        cells = texts[np.cumsum(new) - 1].reshape(block.shape)   # each cell's run head
        fh.write("".join(cells.T.ravel().tolist()))


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
    with _open_output(stem + ".summary") as fh:
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
    reference = problems_mod.reference(problem, t_end, n_reference)

    for n in n_list:
        cfg = replace(config, problem=problem, n_cells=int(n), out=None)
        try:
            result = run(cfg)
        except SolverFailure as failure:
            raise type(failure)(
                f"convergence run N={n} failed: {failure.reason}",
                step=failure.step, time=failure.time, cell=failure.cell) from failure
        ref = reference(result.mesh.cell_centers)
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


def _read_text(flag: str, path: str) -> str:
    """The text of the UTF-8 file ``path``; a ConfigError naming ``flag`` if none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:   # an OSError's strerror omits the path
        raise ConfigError(f"{flag}: cannot read {path!r}: "
                          f"{getattr(exc, 'strerror', exc)}") from exc


def _load_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text("--config", path).split("\n"), 1):
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
    with _open_output(args.out) as fh:
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
            n_list = _number_list(args.cells, int)
            if not n_list:
                raise ConfigError(f"--cells: expected at least one resolution, got {args.cells!r}")
            _make_out_dir(config.out)
            table = run_convergence(config, n_list)
            text = table.format()
            print(text, end="")
            if config.out:
                path = os.path.join(config.out,
                                    f"{table.problem}_{table.method}_convergence.csv")
                with _open_output(path) as fh:
                    fh.write(text)
            return 0
        _write_reference(args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        kind = "mesh tangling" if isinstance(exc, MeshTangled) else "solver failure"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())
