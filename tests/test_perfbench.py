"""The benchmark's span targets name su2lab functions, so a renamed one must
fail here and not only in a traced benchmark run."""

import importlib
import importlib.util
import runpy
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYER_TABLE = Path(__file__).resolve().parents[1] / "scripts" / "layer_table.py"


def test_every_span_target_resolves():
    # run_path compiles the file in memory: nothing is written next to it
    targets = runpy.run_path(str(SPANS), run_name="perfbench_spans")["TARGETS"]
    missing = [f"{t.module}.{attr}" for t in targets for attr in t.attrs
               if not callable(getattr(importlib.import_module(t.module), attr, None))]
    assert targets
    assert missing == []


def test_layer_table_runs(monkeypatch, capsys):
    # the script calls private kernels by name; on a 32-row block, timed
    # once, a renamed one fails here.  Its thread pins and its src/ path
    # are undone after the test, and no bytecode is written next to it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layer_table", LAYER_TABLE)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    monkeypatch.setattr(table, "BLOCK", 32)
    monkeypatch.setattr(table, "REPEAT", 1)
    table.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Per 32-row block")
    rows = [line for line in lines if line.startswith("| ") and "Layer" not in line]
    assert len(rows) == 10
    assert rows[-1].startswith("| max-modulus frequency block ")
    assert all(cell.strip() for row in rows for cell in row.split("|")[1:-1])
    # each timed cell carries its call's minor page faults
    assert all(cell.strip() == "—" or cell.strip().endswith(")")
               for row in rows for cell in row.split("|")[2:-1])
