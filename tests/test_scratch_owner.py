"""Step scratch has one owner: the run's ``mesh.Workspace``.

Below the steppers every buffer parameter is required, so no library path
makes its own scratch for a caller that passes none. Three functions keep a
default: ``closure.star_pressure``, which ``cch._boundary_node`` calls on
scalars, and ``sgh.step`` and ``cch.step``, which build the same Workspace for
a caller that steps a mesh by hand.
"""

import inspect

from unihydro import cch, cli, closure, diagnostics, mesh, sgh

MODULES = (closure, cch, sgh, mesh, cli, diagnostics)
BUFFER_NAMES = {"out", "scratch", "workspace", "work", "t"}
KEEP_DEFAULTS = {"closure.star_pressure", "sgh.step", "cch.step"}
NOT_BUFFERS = {"cli.RunConfig.__init__"}   # its ``out`` is the output directory


def _functions():
    """{"module.name" or "module.Class.name": function} of every function and
    method a module of ``MODULES`` defines."""
    found = {}
    for module in MODULES:
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{prefix}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)   # class/static methods
                    if inspect.isfunction(member):
                        found[f"{prefix}.{name}.{attr}"] = member
    return found


def _defaulted_buffers(function):
    return [p.name for p in inspect.signature(function).parameters.values()
            if p.name in BUFFER_NAMES and p.default is not inspect.Parameter.empty]


def test_buffer_parameters_are_required():
    functions = _functions()
    # the walk reaches the layers whose buffers it pins
    assert {"closure.solve_nodes", "closure._quadratic_kernel", "cch.solve_all_nodes",
            "mesh.CchState.velocity_jumps", "mesh.SghState.totals",
            "cli.compute_dt", "diagnostics.EntropyMonitor.update",
            "diagnostics.ConservationLedger.__init__"} <= functions.keys()
    defaulted = {name: params for name, fn in functions.items()
                 if name not in KEEP_DEFAULTS | NOT_BUFFERS
                 and (params := _defaulted_buffers(fn))}
    assert defaulted == {}


def test_kept_defaults_still_exist():
    """Each kept default is still there, so the exception list stays current."""
    functions = _functions()
    for name in KEEP_DEFAULTS:
        assert _defaulted_buffers(functions[name]), name
