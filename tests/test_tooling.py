"""The benchmark's span tracer still fits the program it wraps, no module
imports a name it does not use, and nothing is defined that nothing names.

``perfbench/tracer.py`` patches rivkit functions at every module that
imported them. The first test installs it, unchanged, around a small
``bench`` and checks that each import site exists, that it sees one sampling
span per trial, and that the traced EMI readings are the trials' own
readings, one per trial, in order. The second runs every command under the
tracer and checks that each wrapper is called but those at the two import
sites that the tracer alone reads. The third parses every module of
``src``, ``tests`` and ``demos`` but ``src/rivkit/__init__.py`` and finds
each imported name that the module never reads; only those two import
sites may be among them. The fourth finds each
definition in ``src/rivkit`` whose name appears nowhere else in ``src``,
``tests`` or ``demos``. The fifth checks that ``main`` is the only code in
``cli`` that writes to stdout, the sixth that ``cli`` maps a refused
setting and an unreadable file to their errors in one helper each, and the
seventh that it parses every CSV row in one function.
"""

import ast
import importlib.util
import io
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from helpers import SCHEDULE
from rivkit import SystemSpec, cli, detector, emi, estimator, eta_values, pipeline, samples
from rivkit.detector import trial_seed
from rivkit.partition import CHUNK
from rivkit.systems import residual_source

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "rivkit"
MODULES = {"cli": cli, "pipeline": pipeline, "estimator": estimator, "detector": detector,
           "samples": samples}
# imported only so that the tracer can patch them at these modules
TRACER_ONLY_IMPORTS = {("estimator", "prune_tree"), ("detector", "eta_values")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve_and_see_one_emi_reading_per_trial():
    tracer_module = load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer_module._import_sites(MODULES)
               if attr not in vars(owner)]
    assert not missing

    trials, n, seed = CHUNK + 2, 300, 5
    tracer = tracer_module.Tracer(MODULES)
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()):
            code = cli.main(["bench", "narx", "--truth", "H0", "--trials", str(trials),
                             "--n", str(n), "--seed", str(seed)])
    finally:
        tracer.uninstall()
    assert code == 0

    layer_name = [(span[tracer_module.LAYER], span[tracer_module.NAME]) for span in tracer.spans]
    assert layer_name.count(("systems", "sample")) == trials

    readings = [span[tracer_module.EXTRA] for span in tracer.spans
                if (span[tracer_module.LAYER], span[tracer_module.NAME]) == ("estimator", "emi")]
    system = SystemSpec("narx", seed=seed)
    expected = []
    for t in range(trials):
        report = emi(residual_source(replace(system, seed=trial_seed(seed, t)))(n), SCHEDULE)
        expected.append((report.emi, report.leaf_count))
    assert readings == expected


def test_every_tracer_wrapper_is_called_but_at_the_tracer_only_imports(tmp_path):
    """A refactor that moves a stage away from the site the tracer wraps makes
    that layer read 0 in the benchmark; here it leaves a wrapper uncalled."""
    tracer = load_tracer().Tracer(MODULES)
    calls = {}

    def counted(key, fn):
        def counter(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counter

    data, pred = tmp_path / "data.csv", tmp_path / "pred.csv"
    columns = ("--x-cols", "x1,x2", "--y-cols", "y")
    runs = [("synth", "linear", "--n", "50", "--out", str(tmp_path / "s.csv")),
            ("estimate", "--data", str(data), *columns, "--predictions", str(pred), "--rif"),
            ("estimate", "--data", str(data), *columns, "--fit", "linear"),
            ("monitor", "--data", str(data), *columns, "--fit", "linear",
             "--window-size", "300", "--window-stride", "150"),
            ("bench", "narx", "--truth", "H0", "--trials", "3", "--n", "300")]
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "linear", "--delta", "0.15,0.15", "--n", "600",
                         "--out", str(data)]) == 0
    x = np.loadtxt(data, delimiter=",", skiprows=1)[:, :2]
    np.savetxt(pred, np.column_stack((x, eta_values(SystemSpec("linear"), x))),
               delimiter=",", header="x_1,x_2,yhat_1", comments="")
    tracer.install()
    try:
        for owner, attr, *_ in tracer._sites:
            key = (owner.__name__.rsplit(".", 1)[-1], attr)
            calls[key] = 0
            setattr(owner, attr, counted(key, vars(owner)[attr]))
        with redirect_stdout(io.StringIO()):
            codes = [cli.main(list(argv)) for argv in runs]
    finally:
        tracer.uninstall()
    assert all(code in (0, 2) for code in codes), codes
    assert {key for key, count in calls.items() if not count} == TRACER_ONLY_IMPORTS


def test_every_imported_name_is_used_but_the_tracer_only_imports():
    unused = set()
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    for path in sorted(paths):
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == TRACER_ONLY_IMPORTS


def definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and constant of a module,
    and of each method of its classes whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((target.id, node) for target in targets if isinstance(target, ast.Name))


def names_in(node: ast.AST):
    """Every name that a node reads, binds, imports or reaches as an attribute."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.alias):
            yield inner.name.split(".")[-1]


def test_every_definition_is_named_somewhere_else():
    """argparse calls ``_Parser.error``, and ``__version__`` is read by readers
    of the package; nothing else may be defined and never named."""
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    named = Counter(name for tree in trees.values() for name in names_in(tree))
    unnamed = set()
    for path in sorted(SRC.glob("*.py")):
        for qualified, node in definitions(trees[path]):
            name = qualified.rsplit(".", 1)[-1]
            # a constant's assignment names it once; a body may name itself
            if named[name] <= Counter(names_in(node))[name]:
                unnamed.add(qualified)
    assert unnamed == {"__version__", "_Parser.error"}


def test_main_is_the_only_stdout_writer_of_the_cli():
    """A command that printed its own lines would escape the exit code that
    ``main`` keeps and its stop when the reader has gone."""
    tree = ast.parse((SRC / "cli.py").read_text())
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    in_main = {id(node) for node in ast.walk(main)}
    writers = []
    for node in ast.walk(tree):
        if id(node) in in_main:
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
            if not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords):
                writers.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
            writers.append((node.lineno, ast.unparse(node)))
    assert writers == []


def boundary_raises(tree: ast.Module):
    """Each ``raise`` in a function of ``cli`` that maps a refused setting
    (``UsageError(str(...))``) or an unreadable file (a ``DataError`` whose
    message starts with "cannot "), with the function's name."""
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            raised = ast.unparse(node.exc) if isinstance(node, ast.Raise) and node.exc else ""
            if raised.startswith("UsageError(str("):
                yield "refused setting", function.name
            elif raised.startswith(("DataError('cannot ", "DataError(f'cannot ")):
                yield "unreadable file", function.name


def test_the_cli_writes_each_error_mapping_once():
    """A copy of either mapping could drift from the other copies, as the
    copies that named no file for an undecodable byte had."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert list(boundary_raises(tree)) == [("refused setting", "_refused_as_usage"),
                                           ("unreadable file", "_naming")]


def test_every_csv_row_is_parsed_by_the_row_function():
    """The reader and the monitor reach cells only through ``_row_cells``: their
    own copies of the row rule drifted apart more than once."""
    tree = ast.parse((SRC / "cli.py").read_text())
    readers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("_scan_columns", "_cmd_monitor")]
    parses = [(reader.name, ast.unparse(node)) for reader in readers
              for node in ast.walk(reader) if isinstance(node, ast.Call)
              and (ast.unparse(node.func) == "float"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "split")]
    assert len(readers) == 2 and parses == []
    assert all("_row_cells" in names_in(reader) for reader in readers)
