import re
from pathlib import Path

import cvrelay

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def test_every_name_the_benchmark_oracle_uses_is_exported():
    # the oracle reaches the library only through ``cv.<name>``; an API trim
    # that drops one of those names would break the benchmark, not the tests
    names = set(re.findall(r"\bcv\.(\w+)", ORACLE.read_text(encoding="utf-8")))
    assert names
    assert sorted(name for name in names if not hasattr(cvrelay, name)) == []
