"""The benchmark's span targets name su2lab functions, so a renamed one must
fail here and not only in a traced benchmark run."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    # run_path compiles the file in memory: nothing is written next to it
    targets = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TARGETS"]
    missing = [f"{t.module}.{attr}" for t in targets for attr in t.attrs
               if not callable(getattr(importlib.import_module(t.module), attr, None))]
    assert targets
    assert missing == []
