"""The benchmark's span tracer still fits the program it wraps, and no module
imports a name it does not use.

``perfbench/tracer.py`` patches rivkit functions at every module that
imported them. The first test installs it, unchanged, around a small
``bench`` and checks that each import site exists, that it sees one sampling
span per trial, and that the traced EMI readings are the trials' own
readings, one per trial, in order. The second parses every module but
``__init__.py`` and finds each imported name that the module never reads;
only the two import sites that the tracer alone reads may be among them.
"""

import ast
import importlib.util
import io
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

from helpers import SCHEDULE
from rivkit import SystemSpec, cli, detector, emi, estimator, pipeline, samples
from rivkit.detector import trial_seed
from rivkit.partition import CHUNK
from rivkit.systems import residual_source

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "rivkit"
# imported only so that the tracer can patch them at these modules
TRACER_ONLY_IMPORTS = {("estimator", "prune_tree"), ("detector", "eta_values")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve_and_see_one_emi_reading_per_trial():
    tracer_module = load_tracer()
    modules = {"cli": cli, "pipeline": pipeline, "estimator": estimator,
               "detector": detector, "samples": samples}
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer_module._import_sites(modules)
               if attr not in vars(owner)]
    assert not missing

    trials, n, seed = CHUNK + 2, 300, 5
    tracer = tracer_module.Tracer(modules)
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


def test_every_imported_name_is_used_but_the_tracer_only_imports():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
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
