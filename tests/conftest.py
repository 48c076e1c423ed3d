"""Loaded by pytest before any test module.

On a failing example, hypothesis' pytest plugin imports
``hypothesis.extra._patching`` inside its ``pytest_runtest_makereport`` hook.
That import reaches ``mypy_extensions.TypedDict``, which warns that it is
deprecated; the warning filters of ``pyproject.toml`` make the warning an
error, and an error raised inside a hook ends the whole run. Imported here
once, with the warning ignored, the module is already loaded when the hook
asks for it, and a failing property fails as one test.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")
