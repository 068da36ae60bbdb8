"""Regenerate reference.npz: final layers of the default-seed workloads.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose scheme is known to be right.  Each
stored layer is the end of one run_simulation call over a workload's config;
run.py compares its runs against these within workloads.REFERENCE_RTOL.
"""

import numpy as np

import run
import workloads


def main() -> None:
    cli = run.import_polygas()
    arrays = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        if wl.reference != name:
            continue
        result = cli.run_simulation(cli.resolve_config(wl.raw))
        if result.exit_code != 0 or result.steps != wl.steps:
            raise SystemExit(f"{name}: exit code {result.exit_code} after {result.steps} steps")
        for field, values in run.fields(result.final_layer).items():
            arrays[f"{name}/{field}"] = values
    np.savez_compressed(run.REFERENCE, **arrays)


if __name__ == "__main__":
    main()
