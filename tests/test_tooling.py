"""The benchmark's span tracer still fits the program it wraps.

``perfbench/tracer.py`` patches rivkit functions at every module that
imported them. This test installs it, unchanged, around a small ``bench``
and checks that each import site exists, that it sees one sampling span per
trial, and that the traced EMI readings are the trials' own readings, one
per trial, in order.
"""

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
