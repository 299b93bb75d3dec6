"""Every name a package module imports is used by that module, every
private module-level name of the package is read somewhere in it, every
parameter of a package function is read in its body, every
Sphinx cross-reference in a package docstring names something that exists,
the command line neither imports scipy or mpmath nor needs them, a call
that opens no pool loads no pool machinery, importing it reads no threshold
table, every
program name the benchmark's tracer reaches into and every output field its
harness reads exist, and every Python file of the repository parses as the oldest
supported Python (``requires-python``).

No linter ships with the toolchain, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must occur as a name
somewhere else in the module.  ``__init__.py`` re-exports names it never
reads, and ``from __future__`` imports bind nothing, so both are skipped.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvdenoise
from mvdenoise.cli import main

MODULES = sorted(p for p in Path(mvdenoise.__file__).parent.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = tuple(
    int(v) for v in re.search(r'requires-python = ">=(\d+)\.(\d+)"', (REPO / "pyproject.toml").read_text(encoding="utf-8")).groups()
)
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench", "tools") for p in (REPO / d).rglob("*.py"))


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported_names(tree) - used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "denoiser.py", "gofstat.py", "robustcov.py", "siggen.py", "wavelet.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_detector_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom math import pi, tau\nx = np.zeros(1) * pi + os.sep\n"
    assert unused_imports(source) == {"tau"}


def defined_names(tree: ast.Module) -> set:
    # the names a module binds at its top level by def, class or assignment
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return names


def private_names(tree: ast.Module) -> set:
    # the private names a module binds at its top level; dunders are not private
    return {n for n in defined_names(tree) if n.startswith("_") and not n.startswith("__")}


def unread_private_names(sources) -> set:
    # a name counts as read where it is loaded, or looked up as an attribute
    # (module._name) in any of the sources
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return set().union(*(private_names(tree) for tree in trees)) - read


def test_every_private_module_name_is_read():
    package = sorted(Path(mvdenoise.__file__).parent.glob("*.py"))
    assert unread_private_names([p.read_text(encoding="utf-8") for p in package]) == set()


def test_detector_flags_an_unread_private_name():
    module = "_USED = 1\n_UNREAD, _TOO = 2, 3\n__all__ = []\nPUBLIC = 4\ndef _helper():\n    return _USED\nclass _Kept:\n    pass\n_Kept.x = 5\n"
    caller = "import module\nmodule._helper()\n_LOCAL: int = 6\n_LOCAL = 7\n"
    assert unread_private_names([module, caller]) == {"_UNREAD", "_TOO", "_LOCAL"}
    assert unread_private_names([module]) == {"_UNREAD", "_TOO", "_helper"}


# (module file, function, parameter) -> why a parameter its function never reads stays
UNREAD_PARAMETERS_KEPT = {
    ("robustcov.py", "mcd_estimate", "rng"): "perfbench/tracing.py still passes a generator positionally",
}


def unread_parameters(source: str) -> set:
    """(function, parameter) of every parameter that its function's body never
    loads, nested functions included; a lambda is named ``<lambda>``."""
    unread = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.update((getattr(node, "name", "<lambda>"), a.arg) for a in params if a.arg not in read)
    return unread


def test_every_parameter_is_read():
    package = sorted(Path(mvdenoise.__file__).parent.glob("*.py"))
    unread = {(p.name, *pair) for p in package for pair in unread_parameters(p.read_text(encoding="utf-8"))}
    assert unread == set(UNREAD_PARAMETERS_KEPT)


def test_detector_flags_an_unread_parameter():
    source = (
        "def f(a, /, b, *rest, c=1, **opts):\n"
        "    def inner():\n"
        "        return b + len(rest)\n"
        "    a = 2\n"
        "    return inner()\n"
        "g = lambda x, y: x\n"
    )
    assert unread_parameters(source) == {("f", "a"), ("f", "c"), ("f", "opts"), ("<lambda>", "y")}


CROSS_REFERENCE = re.compile(r":(?:func|class|meth|mod):`([^`]+)`")


def _importable(path: str) -> bool:
    # a module, or a name reached from the longest importable module prefix
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def unresolved_references(source: str) -> set:
    """The targets of the :func:, :class:, :meth: and :mod: references in a
    module's docstrings that name nothing: neither a name the module binds
    at its top level, nor a method of one of its classes (alone or as
    ``Class.method``), nor an importable dotted path.  A leading ``~`` or
    ``.`` is dropped."""
    tree = ast.parse(source)
    local = defined_names(tree) | imported_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            local.update(methods + [f"{node.name}.{name}" for name in methods])
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(tree) if isinstance(node, documented)]
    targets = {target.lstrip("~.") for doc in docs for target in CROSS_REFERENCE.findall(doc)}
    return {t for t in targets if t not in local and not _importable(t)}


@pytest.mark.parametrize("path", sorted(Path(mvdenoise.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_docstring_cross_references_resolve(path):
    assert unresolved_references(path.read_text(encoding="utf-8")) == set()


def test_detector_flags_an_unresolved_reference():
    source = (
        '"""Uses :func:`_helper`, :meth:`run`, :class:`~json.JSONDecoder`, :mod:`os.path` and\n'
        ':func:`os.path.join`, but not :func:`_made_up`."""\n'
        "import json\n"
        "def _helper():\n"
        '    """Calls :meth:`Runner.run`, :meth:`Runner.stop` and :func:`.helper_too`."""\n'
        "class Runner:\n"
        "    def run(self):\n"
        "        pass\n"
    )
    assert unresolved_references(source) == {"_made_up", "Runner.stop", "helper_too"}


# imports the CLI, runs argv[1:] through it when given, and prints the loaded
# modules that a call opening no pool never needs
_LOADED_BY_CALL = """
import sys

from mvdenoise.cli import main

if len(sys.argv) > 1 and main(sys.argv[1:]) != 0:
    sys.exit("the call failed")
unneeded = ("multiprocessing", "concurrent.futures", "scipy.stats")
print(sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in unneeded)))
"""


@pytest.mark.parametrize("command", [None, "denoise", "gof"], ids=["import", "denoise", "gof"])
def test_cli_loads_neither_scipy_stats_nor_the_pool_machinery(tmp_path, command):
    # scipy.stats costs every CLI process about 0.3 s and 40 MB at import; the
    # pool machinery (concurrent.futures, multiprocessing, and the logging,
    # socket and queue modules under them) loads only when a pool opens, so
    # a one-worker denoise or gof never loads it
    argv = []
    if command is not None:
        shape = (2048, 3) if command == "denoise" else (512, 4)
        np.savetxt(tmp_path / "x.csv", np.random.default_rng(0).standard_normal(shape), delimiter=",")
        argv = [command, str(tmp_path / "x.csv")] + (["--out", str(tmp_path)] if command == "denoise" else ["--json"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), MVDENOISE_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_CALL, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


# imports the CLI and prints whether the threshold table was read or opened
_IMPORT_ONLY = """
import sys

opened = []
sys.addaudithook(lambda event, args: opened.append(str(args[0])) if event == "open" else None)
import mvdenoise.cli
from mvdenoise import denoiser

print(denoiser._THRESHOLD_TABLE is None, [p for p in opened if p.endswith("thresholds.json")])
"""


def test_importing_the_cli_reads_no_threshold_table():
    # the table is read on the first memo miss, never at import: `--help`
    # and every import-bound call pay nothing for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


# runs the CLI in a process that refuses every import of the tests' oracles,
# scipy and mpmath, then prints the oracle modules loaded; argv[1] is the
# output directory
_ORACLE_FREE_RUN = """
import sys


def is_oracle(name):
    return name.split(".")[0] in ("scipy", "mpmath")


class RefuseOracles:
    def find_spec(self, name, path=None, target=None):
        if is_oracle(name):
            raise ImportError(f"refused: {name}")
        return None


sys.meta_path.insert(0, RefuseOracles())
from mvdenoise.cli import main

out = sys.argv[1]
runs = [
    ["generate", "heavydoppler3", "--n", "512", "--out", out],
    ["denoise", f"{out}/noisy.csv", "--clean", f"{out}/clean.csv", "--out", f"{out}/den", "--calib-reps", "100"],
    ["gof", f"{out}/noisy.csv", "--json", "--calib-reps", "100"],
    ["benchmark", "--signals", "heavydoppler3", "--snrs", "0", "--rhos", "0", "--methods", "mgwd", "--seeds", "1",
     "--n", "512", "--calib-reps", "100", "--out", f"{out}/bench"],
]
for argv in runs:
    rc = main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
print(sorted(m for m in sys.modules if is_oracle(m)))
"""


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: every subcommand runs with scipy and
    # mpmath refused, and nothing of either is loaded at the end
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _ORACLE_FREE_RUN, str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "[]"
    assert json.loads(next(line for line in lines if line.startswith("{")))["decision"] in ("H0_noise", "H1_signal")
    for name in ("clean.csv", "noisy.csv", "noise.csv", "den/denoised.csv", "den/report.json", "bench/results.csv"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_names_the_benchmark_tracer_uses_exist():
    # perfbench/tracing.py wraps and calls these by name; read, never imported
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets)
    )
    needed = [(attr, module) for attr, modules in layers.values() for module in modules]
    needed += [("_benchmark_cell", "cli"), ("read_csv", "cli"), ("write_csv", "cli"), ("calibrate_thresholds", "denoiser"),
               ("make_reference", "gofstat"), ("reference_cdf", "gofstat")]
    missing = [f"{module}.{attr}" for attr, module in needed if not hasattr(importlib.import_module(f"mvdenoise.{module}"), attr)]
    assert missing == []


@pytest.mark.filterwarnings("ignore:calibration_reps")
def test_outputs_the_benchmark_harness_reads_exist(tmp_path, capsys):
    # perfbench/run.py and tracing.py make these library calls, and read these
    # fields of a DenoiseReport, of report.json and of gof --json; a rename or
    # a removed argument must fail here before it breaks the harness
    clean = np.outer(np.sin(np.linspace(0.0, 12.0, 256)), [1.0, 2.0, 3.0])
    x = clean + np.random.default_rng(0).standard_normal(clean.shape)
    np.savetxt(tmp_path / "clean.csv", clean, delimiter=",")
    np.savetxt(tmp_path / "noisy.csv", x, delimiter=",")
    noisy = str(tmp_path / "noisy.csv")

    # in the harness's form: a config with a seed, positional configs, and a
    # generator passed to mcd_estimate positionally
    cfg = mvdenoise.DenoiseConfig(calibration_reps=150, seed=0)
    assert mvdenoise.DenoiseConfig(seed=0).seed == 0
    _, report = mvdenoise.denoise(x, cfg)
    for name in ("thresholds", "null_retention_sd", "keep_masks", "tau"):
        assert len(getattr(report, name)) == 5
    assert report.sigma.sigma.shape == (3, 3) and report.retained_fraction().shape == (5,)
    # the traced run whitens every detail block by the report's estimate
    dec = mvdenoise.dwt_forward(x, mvdenoise.get_filter(cfg.filter_name), cfg.levels)
    for d in dec.details:
        y = report.sigma.quadratic_form(d)
        assert y.shape == (d.shape[0],) and np.isfinite(y).all()
    assert mvdenoise.baseline_universal(x, cfg).shape == x.shape
    fit = mvdenoise.mcd_estimate(x, np.random.default_rng(0))
    assert np.array_equal(fit.sigma, mvdenoise.mcd_estimate(x).sigma)

    assert main(["denoise", noisy, "--clean", str(tmp_path / "clean.csv"), "--out", str(tmp_path / "den"), "--calib-reps", "150"]) == 0
    written = json.loads((tmp_path / "den" / "report.json").read_text())
    assert {"thresholds", "keep_masks", "sigma", "tau_summary", "snr_average_db"} <= written.keys()
    assert all({"min", "median", "max"} <= summary.keys() for summary in written["tau_summary"])

    capsys.readouterr()
    assert main(["gof", noisy, "--json", "--calib-reps", "150"]) == 0
    assert {"tau", "threshold", "decision"} <= json.loads(capsys.readouterr().out.strip().splitlines()[-1]).keys()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_source_parses_as_oldest_python(path):
    # only the newest Python may be installed; the grammar of the oldest is checked here
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_oldest_python_parse_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)
