"""Timing, spans and call counts for the taxisect benchmark.

Everything here measures the program from outside.  ``Clock`` times the
program work of one operation.  ``Tracer`` records a span around each call
into a module's public function: it wraps the function wherever a taxisect
module binds it, so a call made inside the program (``script.execute``
calling ``constructions.nsect_segment``) gets a child span too.
``CallCounter`` counts Python-level calls per source file with a profile
hook that runs only inside the clocked blocks.  ``Reference`` times a fixed
loop that never calls taxisect, to follow the machine's speed.
"""

from __future__ import annotations

import fractions
import json
import os
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
KERNEL_FILE = os.path.join("taxisect", "kernel.py")
FRACTIONS_FILE = fractions.__file__


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Reference:
    """A fixed loop of standard-library Fraction arithmetic.

    It calls no taxisect code, so no change to the program moves it, and
    its time follows the speed of the machine, which on a shared host can
    change by 2x for tens of seconds.  A time measured while one pass takes
    ``t`` seconds is brought to full speed by multiplying it with
    ``FULL_SPEED_S / t``.
    """

    # One pass at full speed on the machine the benchmark was written on
    # (Python 3.11, the fastest of 3000 passes took 1.14 ms).
    FULL_SPEED_S = 1.2e-3

    def __init__(self) -> None:
        rng = random.Random(0)
        big = 10**12
        self._pairs = [
            (fractions.Fraction(rng.randint(-big, big), rng.randint(1, big)),
             fractions.Fraction(rng.randint(-big, big), rng.randint(1, big)))
            for _ in range(150)
        ]

    def time(self) -> float:
        start = time.perf_counter()
        for a, b in self._pairs:
            a * b + a / b - b == a
        return time.perf_counter() - start

    @classmethod
    def scale(cls, before: float, after: float) -> float:
        """Factor for a time measured between two passes of the loop."""
        return cls.FULL_SPEED_S * 2 / (before + after)


class CallCounter:
    """Counts 'call' profile events per code file while started."""

    def __init__(self) -> None:
        self.by_file: Counter[str] = Counter()

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.by_file[frame.f_code.co_filename] += 1

    def start(self) -> None:
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)

    def program_calls(self) -> dict[str, int]:
        """Calls by layer; the benchmark's own files are left out."""
        totals = {"kernel": 0, "fractions": 0, "py": 0}
        for filename, calls in self.by_file.items():
            if filename.startswith(BENCH_DIR):
                continue
            totals["py"] += calls
            if filename.endswith(KERNEL_FILE):
                totals["kernel"] += calls
            elif filename == FRACTIONS_FILE:
                totals["fractions"] += calls
        return totals


class Clock:
    """Sums the wall time spent inside ``with clock:`` blocks.

    With a counter attached, the counter runs only inside the blocks, so the
    counts cover program work and nothing the benchmark does around it.
    """

    def __init__(self, counter: CallCounter | None = None) -> None:
        self.seconds = 0.0
        self._counter = counter
        self._start = 0.0

    def __enter__(self) -> Clock:
        if self._counter is not None:
            self._counter.start()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds += time.perf_counter() - self._start
        if self._counter is not None:
            self._counter.stop()
        return False


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self._index = len(tracer.spans)
        tracer.spans.append([self._name, parent, time.perf_counter(), 0.0])
        tracer._stack.append(self._index)

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        tracer.spans[self._index][3] = time.perf_counter()
        tracer._stack.pop()
        return False


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


NO_SPAN = _NoSpan()


class NullTracer:
    """Stands in for a tracer in untraced runs; records nothing."""

    active = False

    def span(self, name: str) -> _NoSpan:
        return NO_SPAN


class Tracer:
    """In-memory spans: [name, parent index, start, end] in perf_counter seconds."""

    active = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.captured: list = []  # traces returned by wrapped construction calls
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def reset(self) -> None:
        self.spans.clear()
        self.captured.clear()

    def wrap(self, home, attr: str, name: str, modules, capture: bool = False) -> None:
        """Replace ``home.attr`` in every module that binds it with a wrapper
        that records a span named ``name`` around each call."""
        original = getattr(home, attr)
        tracer = self

        def traced(*args, **kwargs):
            with _Span(tracer, name):
                result = original(*args, **kwargs)
            if capture and result[1] is not None:
                tracer.captured.append(result[1])
            return result

        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds by name; a tampered-trace verification
        is filed under its own name, not under the genuine one."""
        by_name: dict[str, list[float]] = defaultdict(list)
        for name, parent, start, end in self.spans:
            if name == "constructions.verify_trace" and parent >= 0 and (
                self.spans[parent][0] == "constructions.verify_tampered"
            ):
                continue
            by_name[name].append(end - start)
        return by_name

    def self_times(self) -> dict[str, list[float]]:
        """Span duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list[float]] = defaultdict(list)
        for index, (name, parent, start, end) in enumerate(self.spans):
            by_name[name].append(end - start - child_time[index])
        return by_name

    def write(self, path: Path, header: dict) -> None:
        """Write every span and the per-name self-time medians as JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        body = dict(header)
        body["self_ms_p50"] = {
            name: p50(values) * 1e3 for name, values in sorted(self.self_times().items())
        }
        body["spans"] = [
            {
                "id": index,
                "name": name,
                "parent": parent if parent >= 0 else None,
                "start_us": round((start - origin) * 1e6, 1),
                "end_us": round((end - origin) * 1e6, 1),
            }
            for index, (name, parent, start, end) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
