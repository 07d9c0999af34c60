#!/usr/bin/env python3
"""Benchmark of taxisect's build-and-certify path, script front end and CLI.

Run from the root of a taxisect checkout:

    python3 bench/run.py --workload segment-certify --seed 1 --seconds 25 --trace 0

One process, one closed-loop client: each operation starts when the last
one has been checked.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics, and writes
every span to ``.bench_out/``.  ``--smoke`` runs one round of every
workload, untraced and traced, with all checks.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from tracing import CallCounter, Clock, NullTracer, Reference, Tracer, p50, p90

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_PROBES = 5
FRESH_PROBES = 5
PROBE_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextmanager
def scratch_dir(root: Path):
    """A private directory under the checkout for files the program writes."""
    base = root / OUT_DIR
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def prepare(name: str, seed: int, root: Path, scratch: Path, tracer):
    """Everything between a fresh process and the first timed operation,
    apart from starting Python: importing taxisect, making inputs, warming up."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, root, scratch, tracer)
    workload.warm_up()
    return workload


def _run_probe(argv: list[str], root: Path, env=None) -> tuple[float, str]:
    """Start a fresh Python process; return seconds until its first line of
    output, and that line.  Waits for the process to end."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline().decode("utf-8")
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} exited {proc.returncode}")
    return elapsed, line.strip()


def measure_setup(name: str, seed: int, root: Path, probes: int) -> tuple[float, float]:
    """Median time from starting a fresh process to its first timed
    operation, at full machine speed and as measured."""
    reference = Reference()
    scaled, raw = [], []
    before = reference.time()
    for _ in range(probes):
        elapsed, line = _run_probe(
            [str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)], root)
        if line != "ready":
            raise RuntimeError(f"setup probe printed {line!r}")
        after = reference.time()
        scaled.append(elapsed * reference.scale(before, after))
        raw.append(elapsed)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def fresh_process_ms(root: Path, probes: int) -> tuple[float, float]:
    """Medians of ``import taxisect.cli`` in a fresh process, and of a whole
    ``python -c pass`` run, in milliseconds."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timed_import = ("import time; t = time.perf_counter(); import taxisect.cli; "
                    "print(time.perf_counter() - t)")
    imports, passes = [], []
    for _ in range(probes):
        _, line = _run_probe(["-c", timed_import], root, env)
        imports.append(float(line) * 1e3)
        elapsed, _ = _run_probe(["-c", "pass"], root, env)
        passes.append(elapsed * 1e3)
    return statistics.median(imports), statistics.median(passes)


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.reference: list[float] = []  # loop times before the first and after each operation
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def scaled_latencies(self) -> list[float]:
        """Each latency brought to full machine speed by the reference
        loop timed just before and just after it."""
        scale = Reference.scale
        return [latency * scale(before, after)
                for latency, before, after in zip(self.latencies, self.reference, self.reference[1:])]


def measure(workload, seconds: float, min_ops: int, after_op=None) -> Tally:
    """Run whole rounds until ``seconds`` have passed and ``min_ops``
    operations were attempted."""
    from workloads import CheckError

    tally = Tally()
    reference = Reference()
    tally.reference.append(reference.time())
    deadline = time.perf_counter() + seconds
    for items in workload.rounds():
        for item in items:
            clock = Clock()
            tally.attempted += 1
            try:
                tally.failed += workload.op(item, clock)
            except CheckError as exc:
                tally.wrong.append(str(exc))
            tally.latencies.append(clock.seconds)
            tally.reference.append(reference.time())
            if after_op is not None:
                try:
                    after_op(item, tally.attempted)
                except CheckError as exc:
                    tally.wrong.append(str(exc))
        if time.perf_counter() >= deadline and tally.attempted >= min_ops:
            return tally


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _result(tally: Tally, metrics: dict) -> dict:
    for message in tally.wrong[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def _report_verdicts(workload) -> None:
    for name, outcomes in sorted(workload.verdicts.items()):
        print(f"tampered trace {name}: {', '.join(sorted(outcomes))}", file=sys.stderr)


def run_untraced(name: str, seed: int, seconds: float, root: Path, scratch: Path,
                 min_ops: int, setup_probes: int) -> dict:
    setup_s, setup_raw_s = measure_setup(name, seed, root, setup_probes)
    workload = prepare(name, seed, root, scratch, NullTracer())
    tally = measure(workload, seconds, min_ops)
    _report_verdicts(workload)
    if name == "cli-cold":
        peak_kb = max(workload.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = tally.latencies
    print(f"as measured: ops_per_s {len(raw) / sum(raw):.4f}, op_ms_p50 {p50(raw) * 1e3:.4f}, "
          f"op_ms_p90 {p90(raw) * 1e3:.4f}, setup_s {setup_raw_s:.4f}; reference loop "
          f"{p50(tally.reference) * 1e3:.4f} ms (full speed {Reference.FULL_SPEED_S * 1e3} ms)",
          file=sys.stderr)
    latencies = tally.scaled_latencies()
    return _result(tally, {
        "ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": _metric(p50(latencies) * 1e3, "ms"),
        "op_ms_p90": _metric(p90(latencies) * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    })


def _install_spans(tracer) -> None:
    import taxisect
    from taxisect import angles, cli, constructions, export, figures, kernel, script

    modules = (taxisect, angles, cli, constructions, export, figures, kernel, script)
    for home, attr, name, capture in (
        (constructions, "nsect_segment", "constructions.nsect_segment", True),
        (constructions, "section_angle", "constructions.section_angle", True),
        (constructions, "verify_trace", "constructions.verify_trace", False),
        (script, "parse", "script.parse", False),
        (script, "execute", "script.execute", False),
        (export, "scene_from_trace", "export.scene_from_trace", False),
        (export, "emit_svg", "export.emit_svg", False),
        (export, "emit_json", "export.emit_json", False),
        (cli, "main", "cli.main", False),
    ):
        tracer.wrap(home, attr, name, modules, capture=capture)


def count_calls(workload, tracer) -> dict:
    """Python calls, trace steps and rational sizes per operation over the
    fixed count round, after running that round once to warm up."""
    from workloads import trace_bits

    items = workload.count_round()
    for item in items:
        workload.in_process(item, Clock())
    tracer.reset()
    counter = CallCounter()
    for item in items:
        workload.in_process(item, Clock(counter))
    traces = list(tracer.captured)
    tracer.reset()
    calls = counter.program_calls()
    ops = len(items)
    return {
        "constructions.steps_per_op": sum(len(t.steps) for t in traces) / ops,
        "constructions.max_bits": max(trace_bits(t) for t in traces),
        "kernel.calls_per_op": calls["kernel"] / ops,
        "fractions.calls_per_op": calls["fractions"] / ops,
        "py.calls_per_op": calls["py"] / ops,
    }


def run_traced(name: str, seed: int, seconds: float, root: Path, scratch: Path) -> dict:
    from taxisect import constructions
    from workloads import expect, replay_kernel

    import_ms, interpreter_ms = fresh_process_ms(root, FRESH_PROBES)
    tracer = Tracer()
    workload = prepare(name, seed, root, scratch, tracer)
    _install_spans(tracer)
    try:
        counts = count_calls(workload, tracer)

        def after_op(item, index: int) -> None:
            traces = list(tracer.captured)
            for trace in traces:
                if not workload.verifies:
                    report = constructions.verify_trace(trace)
                    expect(report.ok, f"genuine trace failed verification: {report}")
                replay_kernel(trace, tracer)
            if traces and not workload.tampers:
                workload.tamper_check(traces[0], Clock(), index)
            workload.probe(item, index)
            tracer.captured.clear()

        tally = measure(workload, seconds, 1, after_op)
    finally:
        tracer.unwrap_all()
    _report_verdicts(workload)
    scaled = tally.scaled_latencies()
    print(f"traced operations: {tally.attempted}; at full speed op_ms_p50 {p50(scaled) * 1e3:.4f}, "
          f"ops_per_s {len(scaled) / sum(scaled):.4f}; as measured op_ms_p50 "
          f"{p50(tally.latencies) * 1e3:.4f}", file=sys.stderr)
    tracer.write(root / OUT_DIR / f"spans-{name}-seed{seed}.json", {"workload": name, "seed": seed})
    durations = tracer.durations()

    def median_of(unit: str, *names: str) -> dict:
        values = [d for span in names for d in durations.get(span, ())]
        if not values:
            raise RuntimeError(f"{name}: no {' or '.join(names)} span was recorded")
        return _metric(p50(values) * (1e6 if unit == "us" else 1e3), unit)

    metrics = {
        "constructions.build_ms_p50": median_of("ms", "constructions.nsect_segment",
                                                "constructions.section_angle"),
        "constructions.verify_ms_p50": median_of("ms", "constructions.verify_trace"),
        "constructions.verify_tampered_ms_p50": median_of("ms", "constructions.verify_tampered"),
        "kernel.intersect_line_circle_us_p50": median_of("us", "kernel.intersect_line_circle"),
        "kernel.intersect_lines_us_p50": median_of("us", "kernel.intersect_lines"),
        "kernel.line_through_us_p50": median_of("us", "kernel.line_through"),
        "script.parse_ms_p50": median_of("ms", "script.parse"),
        "script.execute_ms_p50": median_of("ms", "script.execute"),
        "export.emit_svg_ms_p50": median_of("ms", "export.emit_svg"),
        "export.emit_json_ms_p50": median_of("ms", "export.emit_json"),
        "cli.main_ms_p50": median_of("ms", "cli.main"),
        "cli.import_ms_p50": _metric(import_ms, "ms"),
        "cli.interpreter_ms_p50": _metric(interpreter_ms, "ms"),
    }
    metrics.update({key: _metric(value, "count") for key, value in counts.items()})
    return _result(tally, metrics)


def run_once(name: str, seed: int, seconds: float, traced: bool, root: Path,
             min_ops: int = MIN_OPS, setup_probes: int = SETUP_PROBES) -> dict:
    with scratch_dir(root) as scratch:
        if traced:
            return run_traced(name, seed, seconds, root, scratch)
        return run_untraced(name, seed, seconds, root, scratch, min_ops, setup_probes)


def smoke(root: Path) -> int:
    """One round of every workload, untraced and traced; checks that each
    run is correct and prints exactly the metrics BENCHMARK.json names."""
    import tamper
    from workloads import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: {m["name"] for m in spec["end_to_end"]}, True: {m["name"] for m in spec["per_layer"]}}
    ok = all(w["name"] in WORKLOADS for w in spec["workloads"])
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_once(name, 1, 0, traced, root, min_ops=2, setup_probes=1)
            good = result["correct"] and set(result["metrics"]) == wanted[traced]
            if name == "segment-certify":
                rounds = result["attempted"] / WORKLOADS[name].round_size
                good = good and result["failed"] == rounds * len(tamper.KNOWN_FAULTS)
            else:
                good = good and result["failed"] == 0
            ok = ok and good
            print(f"{name} trace={int(traced)}: attempted {result['attempted']}, "
                  f"failed {result['failed']}: {'ok' if good else 'WRONG'}")
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="segment-certify, angle-chord, script-corpus or cli-cold")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=25, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true", help="run one round of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "taxisect" / "__init__.py").is_file() or not (root / "corpus").is_dir():
        return fail("run from the root of a taxisect checkout: src/taxisect and corpus/ are missing")
    sys.path.insert(0, str(root / "src"))
    import taxisect

    if Path(taxisect.__file__).resolve().parent != (root / "src" / "taxisect").resolve():
        return fail(f"imported taxisect from {taxisect.__file__}, not from this checkout")
    if args.smoke:
        return smoke(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        with scratch_dir(root) as scratch:
            prepare(args.workload, args.seed, root, scratch, NullTracer())
            print("ready", flush=True)
        return 0
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
