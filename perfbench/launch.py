"""Child-process entry point for one benchmark step.

    python3 perfbench/launch.py <filterbounds arguments...>
        run the CLI exactly as the `filterbounds` console script does
    python3 perfbench/launch.py --trace <spans file> <op id> <step> <arguments...>
        the same, with the tracer installed; spans are written at exit
    python3 perfbench/launch.py --setup <workload> <work dir>
        import filterbounds and build the workload's configs and models

The parent puts `src/` on PYTHONPATH and starts one child at a time.
"""

from __future__ import annotations

import json
import os
import sys


def setup(workload: str, workdir: str) -> int:
    from filterbounds.harness import (
        config_from_dict,
        default_fp_config,
        default_verify_config,
        negative_control_config,
    )
    from filterbounds.reduction import PairedStaticFilter
    from filterbounds.witness import witness_transform

    # the models are built only so that their construction is timed
    if workload == "certify":
        configs = [config_from_dict({"seed_bits": 10}, default_verify_config()), negative_control_config()]
        models = [witness_transform(spec.build()) for cfg in configs for spec in cfg.models]
        path = os.path.join(workdir, "negative_control.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(configs[1].resolved_dict(), fh, sort_keys=True)
    elif workload == "montecarlo":
        models = [spec.build() for spec in default_fp_config().models]
    elif workload == "coding":
        cfg = config_from_dict({"seed_bits": 6}, default_verify_config())
        models = [PairedStaticFilter(witness_transform(cfg.models[0].build()))]
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    del models
    return 0


def traced(spans_path: str, op_id: str, step: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        from filterbounds import cli

        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, {"op": int(op_id), "step": step})


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        return setup(*argv[1:3])
    if argv[:1] == ["--trace"]:
        return traced(*argv[1:4], argv[4:])
    from filterbounds.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
