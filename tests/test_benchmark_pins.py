"""The benchmark's pinned output digests, checked in Tier-1.

Runs one cycle of every workload in ``perfbench/workloads.py`` at the
default workload seed and compares each output digest with
``perfbench/pins.json``, so a broken library call from a workload, or an
output that moved, fails here before the benchmark runs.  The perfbench
files are only read: no bytecode is cached beside them.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_workload_matches_its_pins(tmp_path):
    workloads = _load_workloads()
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workdir = tmp_path / name
        workdir.mkdir()
        workload.setup(workdir, workloads.DEFAULT_SEED)
        digests[name] = []
        for i in range(workload.cycle):
            args = workload.args(i, i)
            try:
                digests[name].append(workload.check(i, workload.op(*args), args)[0])
            finally:
                workload.cleanup(args)
    assert digests == json.loads((PERFBENCH / "pins.json").read_text())
