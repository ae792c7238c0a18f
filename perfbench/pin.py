"""Rewrite pins.json: the output digest of every input of every workload at
the default workload seed.  Run from the repository root:

    python3 perfbench/pin.py

Only rewrite the pins for a change whose purpose is to alter outputs; a
change meant to keep them bit-identical must pass against the old pins.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    pins = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workdir = HERE / "_run" / f"pin-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workload.setup(workdir, workloads.DEFAULT_SEED)
            digests = []
            for i in range(workload.cycle):
                args = workload.args(i, i)
                try:
                    digests.append(workload.check(i, workload.op(*args), args)[0])
                finally:
                    workload.cleanup(args)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        pins[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
