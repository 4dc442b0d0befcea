"""The three workloads, their output checks and their metrics.

All three are closed loops with one client: the next operation starts when
the previous one has finished, in this process (``scale``, ``lossy``) or in
one child interpreter at a time (``cli``).  Operation ``j`` of a run uses
the simulation seed ``op_seed(seed, j)``, so a workload seed fixes every
input.  With tracing off a run reports the end-to-end metrics; with tracing
on it spends half its time untraced and half traced, then times the stages
at two model sizes and the CLI commands, and reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import pipeline
from scaled import scaled_bytes
from ssiforge.pistar import export_dot
from tracing import KEY_LOAD, SIGN_SPANS, NullTracer, Tracer, instrument, median_over_ops, per_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURE = Path("fixtures") / "birth_registration.json"
WORK = Path(".bench_work")
SPANS = Path(".bench_spans")

SCALE_K = 128
LOSSY_K = 8
LOSSY_DROP = 0.3
GROWTH_K = (64, 128)
STAGE_REPEATS = 3  # growth runs per size, and traced set-ups of lossy
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 120
GOLDEN_SEED = 42
GOLDEN_SHA256 = "3afdd5da3b90ba2501d0878d8c7870295bbed5285e842f57d316da5ed7e5ac2e"
# Operations whose traces make up a run's trace_sha256 (cli: cycles of its
# four commands); every run does at least these.
DIGEST_OPS = {"cli": 4, "scale": 2, "lossy": 8}
CLI_PROBE_CYCLES = 2
# Copies of a scaled fixture whose names are prefixes of other copies' names
# ("Registrar 1", "Registrar 12") are misread by substring name matching.
NAME_PREFIX_DEFECT = "copy names matched as substrings"

STAGE_SPANS = (
    "pistar.parse",
    "model.validate",
    "overlay.infer_roles",
    "overlay.derive_flows",
    "overlay.lint_ssi",
    "overlay.build_trust_registry",
    "credentials.keygen",
    "credentials.issue",
    "credentials.present",
    "credentials.verify",
    "simulator.derive_bootstrap",
    "simulator.compile",
    "simulator.run",
    "simulator.trace_text",
    "propagation.evaluate_goals",
)
CALL_SPANS = ("credentials.issue", "credentials.present", "credentials.verify")
GROWTH_STAGES = (
    "pistar.parse",
    "model.validate",
    "overlay.infer_roles",
    "overlay.derive_flows",
    "simulator.compile",
    "simulator.run",
    "simulator.trace_text",
)
CLI_COMMANDS = ("validate", "roles", "simulate", "export")

# Lines the README shows for the fixture.
README_LINES = {
    "validate": ["0 error(s), 0 warning(s)"],
    "roles": [
        "Roles:",
        "  ID Agency: Issuer of Mother's ID",
        "  Midwife: Issuer of Birth Notification Document",
        "  Midwife: Verifier of Mother's ID",
        "Flows:",
        "  dep-id-midwife: Presentation of Mother's ID from Mother to Midwife [Verb]",
        "  dep-bnd-mother: Issuance of Birth Notification Document from Midwife to Mother [Verb]",
    ],
    "simulate": [
        "Root goals:",
        "  Mother: Get Birth Certificate for new baby: Satisfied",
        "  Midwife: Issue Valid BNDs: Satisfied",
        "  Registrar: Issue Birth Cerificates: Satisfied",
        "Checks:",
        "  integrity: 3 pass, 0 fail",
        "  issuerSignature: 3 pass, 0 fail",
        "  subjectBinding: 3 pass, 0 fail",
        "  issuerTrusted: 3 pass, 0 fail",
        "Termination: quiescence at tick 11",
    ],
    "export": [],
}


def op_seed(seed: int, j: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}/{j}".encode()).digest()[:4], "big")


class Checks:
    """Output checks against the number attempted.

    A failed check whose cause is a known program defect is counted in
    ``failed`` but leaves ``correct`` true; any other failure makes the run
    incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.broken: list[str] = []
        self.known: dict[str, int] = {}

    def record(self, what: str, ok: bool, known_defect: str | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known_defect is None:
            self.broken.append(what)
        else:
            self.known[known_defect] = self.known.get(known_defect, 0) + 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["SSIFORGE_NO_COLOR"] = "1"
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops"


class Workload:
    name = ""
    min_ops = 1

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.checks = Checks()
        self.texts: dict[int, str] = {}  # the first traces, for the digest
        self.fingerprint: dict = {}
        self.notes: list[str] = []
        self.rates: list[float] = []  # trace events per second, one per op that simulates
        self.factors: dict = {}  # op -> reference seconds per measured second

    # -- subclass hooks ---------------------------------------------------

    def setup(self) -> None:
        """One-time work before the first operation."""

    def op(self, j: int, tracer) -> tuple[float, float, int]:
        """Run operation j and check its outputs.

        Returns its seconds at reference speed, its measured seconds and
        the number of trace events it produced.
        """
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run."""

    def instrumented(self, tracer):
        return instrument(tracer)

    def traced_setup(self, tracer) -> None:
        """Set-up again under the tracer, for stages that run only there."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- runs -------------------------------------------------------------

    def loop(self, seconds: float, tracer) -> list[float]:
        """Closed loop until ``seconds`` passed and ``min_ops`` ran; reference seconds per op.

        A collection before each op starts every one with the same heap.
        """
        durations: list[float] = []
        self.rates = []
        deadline = time.perf_counter() + seconds
        while len(durations) < self.min_ops or time.perf_counter() < deadline:
            j = len(durations)
            tracer.op = j
            gc.collect()
            at_reference, measured, events = self.op(j, tracer)
            self.factors[j] = at_reference / measured
            durations.append(at_reference)
            if events:
                self.rates.append(events / at_reference)
        return durations

    def setup_seconds(self) -> float:
        """Median set-up time, at reference speed, over fresh interpreters.

        The first interpreter only warms the bytecode and file caches.
        """
        samples = []
        for _ in range(SETUP_REPEATS + 1):
            out = run_child([sys.executable, str(BENCH / "setup_probe.py"), self.name, str(LOSSY_K)])
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
            seconds, kernel = (float(x) for x in out.stdout.split())
            samples.append(calibrate.at_reference(seconds, kernel, kernel))
        return statistics.median(samples[1:])

    def run_untraced(self) -> dict:
        self.setup()
        durations = self.loop(self.seconds, NullTracer())
        self.finish()
        setup_s = self.setup_seconds()
        value, how = tail(durations)
        self.notes.append(f"op_tail_ms is the {how}")
        return {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(durations) * 1000, "ms"),
            "op_tail_ms": (value * 1000, "ms"),
            "events_per_s": (statistics.median(self.rates), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
        }

    def run_traced(self) -> dict:
        self.setup()
        untraced = statistics.median(self.loop(self.seconds / 2, NullTracer()))
        tracer = Tracer()
        with self.instrumented(tracer):
            self.traced_setup(tracer)
            traced = statistics.median(self.loop(self.seconds / 2, tracer))
        self.finish()
        spans = SPANS / f"{self.name}-{self.seed}.jsonl"
        tracer.write(spans)
        self.notes.append(f"spans of the traced operations written to {spans}")
        metrics = self.layer_metrics(per_op(tracer.spans))
        metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
        metrics.update(growth(self.seed))
        if self.name != "cli":
            metrics.update(Cli(self.seed, 0).probe(self.checks))
        metrics["checks.failed_frac"] = (self.checks.failed / self.checks.attempted, "ratio")
        return metrics

    def keep(self, j: int, text: str, ov, trace) -> None:
        """Keep the first traces of a run for its digest, and op 0's counts."""
        if j < DIGEST_OPS[self.name] and j not in self.texts:
            self.texts[j] = text
            if j == 0:
                self.fingerprint = checks.fingerprint(ov, ov.model, trace)

    def trace_sha256(self) -> str:
        return hashlib.sha256("".join(self.texts[j] for j in sorted(self.texts)).encode("utf-8")).hexdigest()

    def layer_metrics(self, groups: dict) -> dict:
        return span_metrics(groups, self.factors, groups[0], self.fingerprint)


def span_metrics(groups: dict, factors: dict, first: dict, fingerprint: dict) -> dict:
    """Per-layer metrics from per-operation span totals; counts come from ``first``.

    Times are scaled to reference speed with each operation's own factor.
    """
    for op, group in groups.items():
        for field in ("ms", "self_ms"):
            group[field] = {name: ms * factors[op] for name, ms in group[field].items()}
    metrics = {f"{name}_ms": (median_over_ops(groups, "ms", name), "ms") for name in STAGE_SPANS}
    metrics["simulator.run_self_ms"] = (median_over_ops(groups, "self_ms", "simulator.run"), "ms")
    for name in CALL_SPANS:
        metrics[f"{name}_calls"] = (first["calls"].get(name, 0), "count")
    signs = sum(first["calls"].get(name, 0) for name in SIGN_SPANS)
    metrics["credentials.key_loads"] = (first["calls"].get(KEY_LOAD, 0), "count")
    metrics["credentials.key_loads_per_sign"] = (first["signing_key_loads"] / signs if signs else 0.0, "ratio")
    for name, value in fingerprint.items():
        metrics[name] = (value, "ratio" if isinstance(value, float) else "count")
    return metrics


def growth(seed: int) -> dict:
    """Stage time at k = 128 over stage time at k = 64 (medians of a few runs)."""
    ms: dict[int, list[dict]] = {}
    for k in GROWTH_K:
        data = scaled_bytes(k)
        for r in range(STAGE_REPEATS):
            gc.collect()
            clock = calibrate.StageClock(NullTracer())
            pipeline.simulate(pipeline.overlay(data, clock), op_seed(seed, r), 0.0, clock)
            ms.setdefault(k, []).append(clock.stages)
    small, large = GROWTH_K
    return {
        f"{stage}.growth": (
            statistics.median(m[stage] for m in ms[large]) / statistics.median(m[stage] for m in ms[small]),
            "ratio",
        )
        for stage in GROWTH_STAGES
    }


class InProcess(Workload):
    k = 1
    drop = 0.0

    def setup(self) -> None:
        self.data = scaled_bytes(self.k)

    def check(self, j: int, ov, trace, text: str) -> None:
        self.checks.record("model validates", ov.errors == 0)
        for what, ok in checks.trace_checks(ov.model, trace).items():
            self.checks.record(what, ok)
        self.keep(j, text, ov, trace)


class Scale(InProcess):
    """The whole in-process pipeline on the fixture copied 128 times."""

    name = "scale"
    k = SCALE_K
    min_ops = DIGEST_OPS["scale"]

    def op(self, j: int, tracer) -> tuple[float, float, int]:
        clock = calibrate.StageClock(tracer)
        ov = pipeline.overlay(self.data, clock)
        trace, text = pipeline.simulate(ov, op_seed(self.seed, j), self.drop, clock)
        self.check(j, ov, trace, text)
        outcomes = checks.copy_checks(ov.model, trace)
        for i in range(1, self.k + 1):
            self.checks.record(f"copy {i} satisfied", outcomes.get(i, False), NAME_PREFIX_DEFECT)
        return clock.seconds, clock.measured, len(trace.events)


class Lossy(InProcess):
    """A seed sweep at drop 0.3 on the fixture copied 8 times; the overlay is set-up."""

    name = "lossy"
    k = LOSSY_K
    drop = LOSSY_DROP
    min_ops = DIGEST_OPS["lossy"]

    def setup(self) -> None:
        super().setup()
        self.ov = pipeline.overlay(self.data, NullTracer())

    def traced_setup(self, tracer) -> None:
        for r in range(STAGE_REPEATS):
            tracer.op = f"setup-{r}"
            clock = calibrate.StageClock(tracer)
            pipeline.overlay(self.data, clock)
            self.factors[tracer.op] = clock.seconds / clock.measured

    def op(self, j: int, tracer) -> tuple[float, float, int]:
        clock = calibrate.StageClock(tracer)
        trace, text = pipeline.simulate(self.ov, op_seed(self.seed, j), self.drop, clock)
        self.check(j, self.ov, trace, text)
        return clock.seconds, clock.measured, len(trace.events)

    def finish(self) -> None:
        _, again = pipeline.simulate(self.ov, op_seed(self.seed, 0), self.drop, NullTracer())
        self.checks.record("same-seed rerun is byte-identical", again == self.texts[0])


class Cli(Workload):
    """The ``ssiforge`` command on the fixture, one child interpreter at a time.

    The child (``cli_child.py``) imports ``ssiforge.cli`` and calls ``main``
    as the installed entry point does.  Operation j is command ``CLI_COMMANDS[j % 4]`` of cycle ``j // 4``; the
    cycle's simulate uses the seed ``op_seed(seed, cycle)``.
    """

    name = "cli"
    min_ops = DIGEST_OPS["cli"] * len(CLI_COMMANDS)

    def setup(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.ov = pipeline.overlay(FIXTURE.read_bytes(), NullTracer())
        self.dot = export_dot(self.ov.model, "sd")
        self.tracer: Tracer | None = None
        self.import_s: list[float] = []
        self.kernel = calibrate.kernel_seconds()
        # An untimed cycle at the README's seed warms the caches and pins the golden trace.
        for command in CLI_COMMANDS:
            self.invoke(command, GOLDEN_SEED, "golden")
        golden = hashlib.sha256((WORK / "trace-golden.jsonl").read_bytes()).hexdigest()
        self.checks.record("seed-42 trace matches the golden sha256", golden == GOLDEN_SHA256)
        self.import_s = []

    def instrumented(self, tracer):
        return contextlib.nullcontext()  # each traced child instruments itself

    def loop(self, seconds: float, tracer) -> list[float]:
        self.tracer = tracer if isinstance(tracer, Tracer) else None
        durations = super().loop(seconds, tracer)
        if self.tracer is None:
            self.untraced = list(durations)
        return durations

    def op(self, j: int, tracer) -> tuple[float, float, int]:
        cycle, command = divmod(j, len(CLI_COMMANDS))
        return self.invoke(CLI_COMMANDS[command], op_seed(self.seed, cycle), j)

    def invoke(self, command: str, seed: int, j) -> tuple[float, float, int]:
        """Run one command in a child, between two calibration kernels, and check it."""
        trace_path = WORK / f"trace-{j}.jsonl"
        result_path = WORK / f"result-{j}.json"
        args = {
            "validate": ["validate", str(FIXTURE)],
            "roles": ["roles", str(FIXTURE)],
            "simulate": ["simulate", str(FIXTURE), "--seed", str(seed), "--trace", str(trace_path)],
            "export": ["export", str(FIXTURE), "--view", "sd"],
        }[command]
        traced = "0" if self.tracer is None else "1"
        start = time.perf_counter()
        out = run_child([sys.executable, str(BENCH / "cli_child.py"), str(result_path), traced, *args])
        measured = time.perf_counter() - start
        after = calibrate.kernel_seconds()
        child = json.loads(result_path.read_text(encoding="utf-8"))
        # The child's own kernel step is not part of the command.
        measured -= child["kernel_step_s"]
        # The kernel in this process before and after, and the one in the
        # child, weigh equally: the child may run on the other core.
        at_reference = calibrate.at_reference(measured, (self.kernel + after) / 2, child["kernel_s"])
        self.kernel = after
        factor = at_reference / measured
        self.import_s.append(child["import_s"] * factor)
        if self.tracer is not None:
            self.adopt_spans(child["spans"], j)
        lines = out.stdout.splitlines()
        ok = out.returncode == 0 and all(line in lines for line in README_LINES[command])
        if command == "export":
            ok = ok and out.stdout == self.dot
        self.checks.record(f"{command} exit code and output", ok)
        if command != "simulate":
            return at_reference, measured, 0
        text = trace_path.read_text(encoding="utf-8")
        trace, expected = pipeline.simulate(self.ov, seed, 0.0, NullTracer())
        self.checks.record("simulate trace equals the library's trace", text == expected)
        if isinstance(j, int):
            self.keep(j // len(CLI_COMMANDS), text, self.ov, trace)
        return at_reference, measured, len(trace.events)

    def adopt_spans(self, spans: list, op) -> None:
        """Append a child's spans to this run's tracer, under operation ``op``."""
        base = len(self.tracer.spans)
        for name, start, end, parent, _ in spans:
            self.tracer.spans.append([name, start, end, None if parent is None else parent + base, op])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def setup_seconds(self) -> float:
        """The median fresh-interpreter ``import ssiforge.cli`` over this run's commands."""
        return statistics.median(self.import_s)

    def simulate_ops(self, groups: dict) -> dict:
        return {j: g for j, g in groups.items() if j % len(CLI_COMMANDS) == CLI_COMMANDS.index("simulate")}

    def layer_metrics(self, groups: dict) -> dict:
        # Only simulate runs every stage; all four commands count in cli.*.
        simulate = self.simulate_ops(groups)
        metrics = span_metrics(simulate, self.factors, simulate[min(simulate)], self.fingerprint)
        metrics.update(self.cli_metrics())
        return metrics

    def cli_metrics(self) -> dict:
        metrics = {"cli.import_ms": (statistics.median(self.import_s) * 1000, "ms")}
        for i, command in enumerate(CLI_COMMANDS):
            per_command = self.untraced[i :: len(CLI_COMMANDS)]
            metrics[f"cli.{command}_ms"] = (statistics.median(per_command) * 1000, "ms")
        return metrics

    def probe(self, shared: Checks) -> dict:
        """The CLI per-command metrics for another workload's traced run."""
        self.checks = shared
        self.min_ops = CLI_PROBE_CYCLES * len(CLI_COMMANDS)
        self.setup()
        self.loop(0, NullTracer())
        self.loop(0, Tracer())
        return self.cli_metrics()


WORKLOADS = {"cli": Cli, "scale": Scale, "lossy": Lossy}
