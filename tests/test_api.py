import importlib
import re
import runpy
from pathlib import Path

import cvrelay

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_oracle_uses_is_exported():
    # the oracle reaches the library only through ``cv.<name>``, and the
    # tracer wraps the names it lists per module; an API trim that drops one
    # of those names would break the benchmark, not the tests
    names = set(re.findall(r"\bcv\.(\w+)", (PERFBENCH / "oracle.py").read_text(encoding="utf-8")))
    assert names
    assert sorted(name for name in names if not hasattr(cvrelay, name)) == []
    traced = runpy.run_path(str(PERFBENCH / "tracer.py"))["TRACED"]
    missing = [f"{layer}.{name}" for layer, (classes, functions) in traced.items()
               for name in (*classes, *(functions or ()))
               if not hasattr(importlib.import_module(f"cvrelay.{layer}"), name)]
    assert missing == [], "names perfbench/tracer.py traces but cvrelay no longer defines"
