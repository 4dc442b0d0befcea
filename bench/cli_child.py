"""Run one ssiforge command the way the ``ssiforge`` entry point does.

Usage: python bench/cli_child.py RESULT_JSON TRACE ARGS...

Prints what ``ssiforge ARGS...`` prints and exits with its exit code.
Afterwards it runs the calibration kernel, so that the benchmark can scale
this process's time to reference speed, and writes to RESULT_JSON the
import time, the kernel's time and how long the kernel step took.  With
TRACE 1 it also records a span around each stage function the command
calls, plus the simulator's credential and propagation calls, and writes
them too.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import ssiforge.cli as cli  # noqa: E402

import_s = time.perf_counter() - start
result_path, traced, args = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]

STAGES = (
    (cli, "parse_model", "pistar.parse"),
    (cli, "validate_model", "model.validate"),
    (cli, "infer_roles", "overlay.infer_roles"),
    (cli, "derive_flows", "overlay.derive_flows"),
    (cli, "lint_ssi", "overlay.lint_ssi"),
    (cli, "generate_keypair", "credentials.keygen"),
    (cli, "build_trust_registry", "overlay.build_trust_registry"),
    (cli, "derive_bootstrap", "simulator.derive_bootstrap"),
    (cli, "compile_agents", "simulator.compile"),
    (cli, "run", "simulator.run"),
    (cli, "write_trace", "simulator.trace_text"),
    (cli, "export_dot", "pistar.export_dot"),
)


def main() -> int:
    try:
        cli.main(args, prog_name="ssiforge")
    except SystemExit as exc:
        return exc.code or 0
    return 0


spans = []
if traced:
    from tracing import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer, STAGES):
        code = main()
    spans = tracer.spans
else:
    code = main()
sys.stdout.flush()

kernel_start = time.perf_counter()
import calibrate  # noqa: E402

kernel_s = calibrate.kernel_seconds()
result_path.write_text(
    json.dumps(
        {
            "import_s": import_s,
            "kernel_s": kernel_s,
            "kernel_step_s": time.perf_counter() - kernel_start,
            "spans": spans,
        }
    ),
    encoding="utf-8",
)
sys.exit(code)
