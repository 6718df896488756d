"""The benchmark's span tracer wraps package functions by name; keep them resolvable."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import PACKAGE, TRACED  # noqa: E402


def test_every_traced_name_is_a_callable_of_the_package():
    missing = []
    for name in TRACED:
        module, func = name.split(".", 1)
        if not callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), func, None)):
            missing.append(name)
    assert missing == []
