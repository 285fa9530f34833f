"""perfbench/tracer.py wraps library functions by name; each of them must still exist.

A target that is renamed or deleted makes every traced benchmark command fail
with an AttributeError, so the check runs here, in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"inflowcast.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"inflowcast.{module_name}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps names the package no longer has: {missing}"
