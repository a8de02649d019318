"""The package's import surface: no stale imports, no dangling exports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracheat

SRC = Path(fracheat.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _module_imports(tree: ast.Module):
    # (bound name, line) of every module-level import but __future__'s,
    # looking into if/try blocks but not into functions or classes
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exports(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _exports(tree)
    stale = [f"{bound} (line {line})"
             for bound, line in _module_imports(tree)
             if bound not in used and bound not in exported]
    assert not stale, f"fracheat.{name} imports but never uses: {stale}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = fracheat if name == "__init__" else \
        importlib.import_module(f"fracheat.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing: {missing}"


# The readers outside grid.py of the cached whole-lattice
# TorusGrid.frequencies: each needs every mode. A windowed reader takes its
# modes through frequencies_at, so that it never builds the whole lattice.
WHOLE_SPECTRUM_READERS = {"dyadic.sobolev_norm", "experiments._run_semigroup"}


def _attribute_readers(node, attr, scope):
    # (qualified name of the enclosing function or class, line) of every
    # .attr under node
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Attribute) and child.attr == attr:
            yield scope, child.lineno
        yield from _attribute_readers(child, attr, inner)


def test_only_whole_spectrum_readers_take_the_cached_frequencies():
    readers = [(scope, line) for name in MODULES if name != "grid"
               for scope, line in _attribute_readers(
                   ast.parse((SRC / f"{name}.py").read_text()),
                   "frequencies", name)]
    stray = [f"{scope} (line {line})" for scope, line in readers
             if scope not in WHOLE_SPECTRUM_READERS]
    assert not stray, f".frequencies read outside the allowlist: {stray}"
    assert {scope for scope, _ in readers} == WHOLE_SPECTRUM_READERS


def test_one_kernel_sums_the_window_masses():
    # every modulation norm, whole field or rfft half, sums its window
    # masses in the one kernel, so its window count and order are shared
    sites = [(scope, line) for name in MODULES
             for scope, line in _attribute_readers(
                 ast.parse((SRC / f"{name}.py").read_text()), "bincount",
                 name)]
    assert [scope for scope, _ in sites] == [
        "dyadic._ModulationNorm.__call__"], sites


def _call_sites(node, names, scope):
    # (qualified name of the enclosing function or class, called name) of
    # every call under node to a bare name in names
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
              and child.func.id in names):
            yield scope, child.func.id
        yield from _call_sites(child, names, inner)


def test_one_octave_split_evaluates_the_bump_in_dyadic():
    # every block value dyadic reads comes from one eta per mode in the
    # octave split; phi_profile's own definition is the other caller
    sites = sorted(_call_sites(ast.parse((SRC / "dyadic.py").read_text()),
                               {"eta", "phi_profile"}, "dyadic"))
    assert sites == [("dyadic._octave_split", "eta"),
                     ("dyadic.phi_profile", "eta"),
                     ("dyadic.phi_profile", "eta")], sites


def _raised_names(func: ast.FunctionDef):
    # (name, line) of every exception func raises by name, called or bare
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id, node.lineno


def test_no_runner_raises_a_config_error():
    # validate_config is the one config gate: every rule a runner would
    # enforce is declared on its experiment and checked before it runs
    tree = ast.parse((SRC / "experiments.py").read_text())
    runners = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_run_")]
    assert len(runners) == 9
    raised = [f"{func.name} raises {name} (line {line})"
              for func in runners for name, line in _raised_names(func)
              if name in ("ConfigError", "BudgetError")]
    assert not raised, raised


def _fft_references(tree: ast.Module):
    # (what, line) of every import of scipy or numpy.fft, every np.fft or
    # numpy.fft attribute and every name scipy
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy" or \
                        alias.name.startswith("numpy.fft"):
                    yield f"import {alias.name}", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "scipy" or \
                    node.module.startswith("numpy.fft") or \
                    (node.module == "numpy"
                     and any(a.name == "fft" for a in node.names)):
                yield f"from {node.module} import ...", node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            yield f"{node.value.id}.fft", node.lineno
        elif isinstance(node, ast.Name) and node.id == "scipy":
            yield "scipy", node.lineno


_COMPLEX_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}


def _complex_transforms(tree: ast.Module):
    # (what, line) of every np.fft.<complex transform> or its numpy.fft
    # spelling
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in _COMPLEX_TRANSFORMS
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "fft"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            yield f"{node.value.value.id}.fft.{node.attr}", node.lineno


_BASES = ("HalfBasis", "CosineBasis")


def _outside_basis_methods(tree: ast.Module):
    # every top-level statement of a module but the two bases, and every
    # statement of a basis's body that is not a method
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in _BASES:
            yield from (item for item in node.body
                        if not isinstance(item, ast.FunctionDef))
        else:
            yield node


def test_only_grid_calls_an_fft():
    # every transform goes through the two bases in grid, so one module
    # holds the package's FFTs: the semigroup check's noise, say, goes
    # through to_spectral, not through an FFT of its own
    stray = [f"fracheat.{name}: {what} (line {line})"
             for name in MODULES if name != "grid"
             for what, line in _fft_references(
                 ast.parse((SRC / f"{name}.py").read_text()))]
    assert not stray, stray
    grid_tree = ast.parse((SRC / "grid.py").read_text())
    assert list(_fft_references(grid_tree))
    # every field is real, so no module runs a complex transform
    complex_ = [f"fracheat.{name}: {what} (line {line})" for name in MODULES
                for what, line in _complex_transforms(
                    ast.parse((SRC / f"{name}.py").read_text()))]
    assert not complex_, complex_
    # inside grid only the bases' methods reach np.fft
    loose = [f"fracheat.grid.{getattr(node, 'name', '<statement>')}: {what} "
             f"(line {line})"
             for node in _outside_basis_methods(grid_tree)
             for what, line in _fft_references(
                 ast.Module(body=[node], type_ignores=[]))]
    assert not loose, loose


def _partition_parameters(node, scope):
    # (qualified name, line) of every function or lambda under node that
    # has a parameter named partition
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                p for p in (a.vararg, a.kwarg) if p is not None]
            if any(p.arg == "partition" for p in params):
                yield inner, child.lineno
        yield from _partition_parameters(child, inner)


def test_only_dyadic_takes_a_partition():
    # the dyadic partition is fixed by the grid, and dyadic works it out
    # from the grid wherever it reads one. build_phi_NR keeps the argument
    # its callers outside the package pass, and reads only its grid.
    takers = [(scope, line) for name in MODULES if name != "dyadic"
              for scope, line in _partition_parameters(
                  ast.parse((SRC / f"{name}.py").read_text()), name)]
    stray = [f"fracheat.{scope} (line {line})" for scope, line in takers
             if scope != "families.build_phi_NR"]
    assert not stray, stray
    assert [scope for scope, _ in takers] == ["families.build_phi_NR"]


# the experiments of perfbench's desk-suite workload, run at their defaults
DESK_SUITE = ("semigroup-check", "besov-scaling", "smoothing-check", "solve",
              "wellposed-scaling", "cascade", "endpoint-cascade",
              "dilation-check")


def test_desk_suite_never_imports_numpy_ma():
    # numpy.ma adds about 1 MB of resident memory and 10 ms of cold start
    # to every process that loads it (np.unique loads it on numpy 2.4). A
    # fresh process is asked, since pytest may have imported it here.
    code = ("import sys\n"
            "from fracheat.experiments import run_experiment\n"
            f"for name in {DESK_SUITE!r}:\n"
            "    assert run_experiment(name).passed, name\n"
            "    assert 'numpy.ma' not in sys.modules, name\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
