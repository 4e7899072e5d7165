"""Spans and clocks recorded from outside the program.

The benchmark never edits ``acrkit``.  It measures a layer by replacing,
for the length of one traced pass, the name through which the caller looks
that layer up (modules import functions by name, so the patch goes where
the caller's module holds it), and by wrapping the motion executor.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy import ndimage


class Tracer:
    """In-memory span recorder: name, start, end and parent of each call.

    ``sizes`` maps a span name to a function of the call's arguments and
    result (None when the call raised) that returns ``(items_in,
    items_out)``; the counts feed per-layer ratios such as inlier shares.
    """

    def __init__(self, sizes=None):
        self.spans = []
        self._stack = []
        self._sizes = sizes or {}
        self._paused = False

    @contextmanager
    def paused(self):
        """Record nothing inside: for work outside the measured calls."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name, fn):
        sizes = self._sizes.get(name)

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": perf_counter(),
                "end": None,
                "raised": False,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span["raised"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                if sizes is not None:
                    span["items_in"], span["items_out"] = sizes(args, kwargs, result)

        return traced

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": index, **span, "self": own}) + "\n")


@contextmanager
def patched(targets, wrap):
    """Replace ``owner.attr`` by ``wrap(name, original)`` for each target.

    ``targets`` holds ``(owner, attr, name)`` triples, where the owner is a
    module or a class.  Static methods are unwrapped and rewrapped, so
    ``PlaneGraph.from_mask`` stays callable on the class.  Every original
    is restored on exit, also when the pass raised.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(wrap(name, raw.__func__))
            else:
                replacement = wrap(name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


class SpeedProbe:
    """A fixed kernel that reads how fast the shared machine runs right now.

    Other tenants of the machine slow every program on it by up to half for
    stretches of seconds to minutes, so timings taken at different moments
    differ by more than any change worth detecting.  The probe is timed at
    the edges of the measured intervals (never inside one) and an interval
    is rescaled by how long the probe took around it, relative to
    ``REFERENCE_S``, its median time on the reference machine.  The kernel
    mixes what the program spends its time on: interpreted Python, small
    dense linear algebra and a morphology pass over a mask.  It depends on
    nothing in ``acrkit``, so no change to the program moves it.
    """

    REFERENCE_S = 0.0036
    # Kernel runs per sample; the sample is their median, since a single
    # run often differs from the next by a tenth.
    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = {i: float(i) for i in range(500)}
        self._points = rng.standard_normal((40, 3))
        self._mask = rng.random((240, 320)) > 0.3
        self.samples = []
        self._kernel()  # first calls pay for lazy set-up in numpy and scipy

    def run(self) -> None:
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))

    def _kernel(self) -> None:
        total = 0.0
        for key in range(500):
            total += self._table[key] * 0.5
        for k in range(40):
            block = self._points[(7 * k) % 36 : (7 * k) % 36 + 4]
            np.linalg.svd(block.T @ block)
        ndimage.binary_erosion(self._mask, iterations=2).sum()

    def to_reference(self, seconds: float, before: int) -> float:
        """``seconds`` measured between probe samples ``before`` and the
        next one, rescaled to the reference speed."""
        taken = (self.samples[before] + self.samples[before + 1]) / 2.0
        return seconds * self.REFERENCE_S / taken


class ObservationClock:
    """Times the computing between observations.

    Every wrapped call is an observation (the simulator, or on hardware a
    robot move plus a capture).  ``gaps`` holds the time from each
    observation returning to the next one being requested, or to
    :meth:`stop`: the time the robot waits for the next command.
    ``wall_s`` is the time from :meth:`start` to :meth:`stop`, less the
    probe's.

    With a :class:`SpeedProbe`, the probe runs at :meth:`start`, before each
    observation and at :meth:`stop`, outside every timed interval, and
    :meth:`stop` also gives each interval at the reference speed, scaled by
    the probe samples on either side of it (``gaps_ref``, ``wall_ref_s``).
    """

    def __init__(self, probe: SpeedProbe = None):
        self.probe = probe
        self.observations = 0
        self.gaps = []
        self.gaps_ref = []
        self.wall_s = 0.0
        self.wall_ref_s = 0.0
        self._intervals = []  # (seconds, is_gap, index of the probe sample before it)
        self._mark = None
        self._returned = False

    def _close(self, is_gap: bool) -> None:
        """End the interval open since the last mark; the next one starts
        where it ends."""
        now = perf_counter()
        before = len(self.probe.samples) - 1 if self.probe else None
        self._intervals.append((now - self._mark, is_gap, before))
        self._mark = now

    def _probe(self) -> None:
        """Run the probe; its time belongs to no interval."""
        if self.probe is not None:
            self.probe.run()
            self._mark = perf_counter()

    def start(self) -> None:
        self._mark = perf_counter()
        self._probe()

    def timed(self, fn):
        def timed_call(*args, **kwargs):
            self._close(is_gap=self._returned)
            self._probe()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(is_gap=False)
                self._returned = True
                self.observations += 1

        return timed_call

    def stop(self) -> None:
        self._close(is_gap=self._returned)
        self._probe()
        for seconds, is_gap, before in self._intervals:
            ref = seconds if before is None else self.probe.to_reference(seconds, before)
            self.wall_s += seconds
            self.wall_ref_s += ref
            if is_gap:
                self.gaps.append(seconds)
                self.gaps_ref.append(ref)
        self._intervals = []
        self._mark = None
        self._returned = False


class TimedExecutor:
    """Thin ``MotionExecutor`` around a ``SimulatedExecutor``.

    It forwards every call, counts commanded moves and lets the clock (and
    in a traced pass the tracer) time each observation.
    """

    def __init__(self, inner, clock: ObservationClock, tracer: Tracer = None):
        self.intrinsics = inner.intrinsics
        self.image_size = inner.image_size
        self.moves = 0
        observe, execute = inner.observe, inner.execute
        if tracer is not None:
            observe = tracer.wrap("executor.observe", observe)
            execute = tracer.wrap("executor.execute", execute)
        self._observe = clock.timed(observe)
        self._execute = clock.timed(execute)

    def observe(self):
        return self._observe()

    def execute(self, command):
        self.moves += 1
        return self._execute(command)
