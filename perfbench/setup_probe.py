"""One benchmark set-up, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py '<raw config JSON>' [<snapshot dir>]

Times ``import polygas``, ``polygas.cli.resolve_config`` and the initial
layer; with a snapshot directory it also runs the config there, writing the
snapshot set and ledger a replay reads.  Prints one JSON object of seconds
(plus the run's step count and exit code when it wrote a set).
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import polygas  # noqa: F401  (the import is what is timed)
    from polygas import cli
    t1 = time.perf_counter()
    cfg = cli.resolve_config(json.loads(argv[0]))
    t2 = time.perf_counter()
    cli.make_initial_layer(cfg.profile, cfg.params.n)
    t3 = time.perf_counter()
    out = {"import_s": t1 - t0, "resolve_config_s": t2 - t1, "initial_layer_s": t3 - t2}
    if len(argv) > 1:
        result = cli.run_simulation(cfg, out_dir=argv[1])
        out.update(write_set_s=time.perf_counter() - t3, steps=result.steps,
                   exit_code=result.exit_code)
    out["total_s"] = time.perf_counter() - t0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
