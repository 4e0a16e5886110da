"""Timed passes over a workload's ops, the percentile rule, and failure accounting."""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from tracing import Tracer
from workloads import KNOWN_DEFECTS, Op, failed_checks

# A percentile is reported with at least this many samples beyond its rank.
MIN_BEYOND = 10


def percentile(samples, q: float) -> tuple[float, int]:
    """q-th percentile, and the number of samples ranked above it.

    The value is the smallest sample with more than q% of the samples at or
    below it (rank floor(q n / 100) + 1), so the p50 of two samples is the
    larger one.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = min(len(xs), math.floor(q / 100.0 * len(xs)) + 1)
    return xs[rank - 1], len(xs) - rank


@dataclass
class PassResult:
    seconds: float
    op_ms: list[float]
    fingerprints: list[bytes]  # one per op, compared bit for bit across passes
    failures: list[tuple[str, tuple[str, ...]]]  # (op class, failed checks) of each failed op


def run_pass(ops: list[Op], tracer: Optional[Tracer] = None) -> PassResult:
    op_ms, prints, failures = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            outcome = op.call()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            outcome, error = None, exc
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
        op_ms.append(1e3 * (t1 - t0))
        if outcome is None:
            prints.append(f"{type(error).__name__}: {error}".encode())
            failures.append((op.cls, (f"raised {type(error).__name__}",)))
            continue
        prints.append(np.asarray(outcome.values, dtype=float).tobytes())
        bad = failed_checks(outcome)
        if bad:
            failures.append((op.cls, tuple(bad)))
    return PassResult(time.perf_counter() - start, op_ms, prints, failures)


def run_passes(ops: list[Op], seconds: float, tracer: Optional[Tracer] = None,
               min_passes: int = 1) -> list[PassResult]:
    """Whole passes until `seconds` have gone by and at least `min_passes` have run."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tracer))
    return passes


@dataclass
class ClassTally:
    attempted: int = 0
    failed: int = 0
    checks: set = field(default_factory=set)

    @property
    def known(self) -> bool:
        return all(key in KNOWN_DEFECTS for key in self.checks)


def tally(ops: list[Op], passes: list[PassResult]) -> dict[str, ClassTally]:
    """Attempted and failed ops per op class, over all passes."""
    out: dict[str, ClassTally] = defaultdict(ClassTally)
    for p in passes:
        for op in ops:
            out[op.cls].attempted += 1
        for cls, checks in p.failures:
            out[cls].failed += 1
            out[cls].checks.update((cls, c) for c in checks)
    return dict(out)
