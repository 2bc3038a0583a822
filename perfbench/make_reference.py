"""Write the reference outputs the correctness gate compares against.

Run once from the root of a checkout, at the commit whose outputs become the
reference (the outputs of the program at that commit are taken as correct)::

    python3 perfbench/make_reference.py

It takes a few minutes.  The files record the workload
parameters they were made for; a workload refuses a reference made for
other parameters.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import warnings

import run


def make_references(size="full", out_dir=None):
    import workloads

    out_dir = out_dir or workloads.REFERENCE_DIR
    os.makedirs(out_dir, exist_ok=True)
    for wl in workloads.all_workloads(size, out_dir):
        with tempfile.TemporaryDirectory(dir=out_dir) as work:
            ref = {"params": wl.params, **wl.reference(wl.setup(work))}
        path = os.path.join(out_dir, f"{wl.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


def main():
    run.cap_blas_threads()
    run.import_program()
    warnings.filterwarnings("ignore", message=r".*cannot resolve FAR")
    make_references()
    return 0


if __name__ == "__main__":
    sys.exit(main())
