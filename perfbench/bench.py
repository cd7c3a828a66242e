"""The benchmark proper; ``run.py`` puts the checkout's dsim on the path first.

One process, one stream at a time, no threads: a closed loop.  Each run warms
up with a smaller pass, then repeats passes over the workload for about
``--seconds`` of wall time (at least ``quality_passes`` passes).  Throughput is
samples over timed seconds summed across the passes, which integrates over the
run where a per-pass median would follow whichever speed a shared machine
happened to have for most passes.  ``--trace 1`` instead runs each pass twice,
untraced and then with every layer wrapped, and prints the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import content
import spans
import workloads
from checkout import ROOT

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 9

# Per-layer time metrics: the self time of one span name, in seconds per pass.
# The self times of integer_codec.simulate and .desimulate stay in the span
# file only: density-1e6 has no 'int' stream, so there they would read
# exactly 0 on every run.
LAYER_TIMES = {
    "dyadic_codec.locate_batch_s": "dyadic_codec.locate_batch",
    "dyadic_codec.collect_triples_self_s": "dyadic_codec.collect_triples",
    "dyadic_codec.simulate_self_s": "dyadic_codec.simulate",
    "halfline_codec.simulate_self_s": "halfline_codec.simulate",
    "halfline_codec.restrict_to_bin_s": "halfline_codec.restrict_to_bin",
    "rng.child_s": "rng.child",
    "integer_codec.encode_multiset_s": "integer_codec.encode_multiset",
    "integer_codec.decode_multiset_s": "integer_codec.decode_multiset",
    "dyadic_codec.decode_triples_s": "dyadic_codec.decode_triples",
    "dyadic_codec.points_from_triples_s": "dyadic_codec.points_from_triples",
    "dyadic_codec.desimulate_self_s": "dyadic_codec.desimulate",
    "halfline_codec.desimulate_self_s": "halfline_codec.desimulate",
    "distributions.sample_s": "distributions.sample",
    "distributions.pdf_s": "distributions.pdf",
    "bitcodes.write_container_s": "bitcodes.write_container",
    "bitcodes.read_container_s": "bitcodes.read_container",
}
# Per-layer call counts, per pass.
LAYER_CALLS = {
    "dyadic_codec.locate_batch_calls": "dyadic_codec.locate_batch",
    "rng.child_calls": "rng.child",
    "distributions.pdf_calls": "distributions.pdf",
}
COUNTERS = ("dyadic_codec.points_located", "dyadic_codec.unresolved_points")


@dataclass
class PassResult:
    encode_ns: int = 0
    decode_ns: int = 0
    samples: int = 0
    decoded: int = 0  # samples over all decodes of the pass's containers
    payload_bits: int = 0
    located: int = 0  # samples of 'unit' and 'halfline' streams: points the locator must place
    containers: object = field(default_factory=hashlib.sha256)
    outputs: object = field(default_factory=hashlib.sha256)
    counts: dict = field(default_factory=lambda: dict.fromkeys(content.COUNTS, 0))
    stream_ids: list = field(default_factory=list)

    def digests(self) -> list[str]:
        return [self.containers.hexdigest(), self.outputs.hexdigest()]


class Runner:
    """Runs passes of one workload and keeps every failed check."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._next_stream = 0

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"perfbench: {text}", file=sys.stderr)

    def run_pass(self, index: int, label: int = workloads.MEASURED, parse: bool = False) -> PassResult:
        streams = self.workload.warmup if label == workloads.WARMUP else self.workload.streams
        res = PassResult()
        for pos, stream in enumerate(streams):
            enc, dec = workloads.stream_sources(self.seed, label, index, pos)
            sid = self._next_stream
            self._next_stream += 1
            res.stream_ids.append(sid)
            self.attempted += 1
            gc.collect()
            if self.tracer is not None:
                self.tracer.stream = sid
            try:
                data, multiset, samples, enc_ns, dec_ns = workloads.round_trip(
                    stream, enc, dec, time.perf_counter_ns, self.workload.decodes)
                error = workloads.check(stream, multiset, samples)
                counts = content.count(data) if parse and error is None else None
            except Exception:  # a failing stream is counted, and the run goes on
                error = traceback.format_exc()
            finally:
                if self.tracer is not None:
                    self.tracer.stream = -1
            if error is not None:
                self.failed += 1
                self.problem(f"{self.workload.name} seed {self.seed} pass {index} stream {pos} "
                             f"({stream.scheme}, {stream.dist.name}, n={stream.n}): {error}")
                continue
            res.encode_ns += enc_ns
            res.decode_ns += dec_ns
            res.samples += stream.n
            res.decoded += stream.n * self.workload.decodes
            res.located += stream.n if stream.scheme != "int" else 0
            res.payload_bits += content.header(data)[2]
            res.containers.update(len(data).to_bytes(8, "little") + data)
            res.outputs.update(np.ascontiguousarray(samples).tobytes())
            if counts is not None:
                for key, value in counts.items():
                    if key == "dyadic_codec.max_depth":
                        res.counts[key] = max(res.counts[key], value)
                    else:
                        res.counts[key] += value
        return res

    def measure(self, seconds: float, between=lambda done: None) -> list[PassResult]:
        """Passes 0, 1, ... for about ``seconds`` of wall time, and at least the quality passes.

        Another pass starts only if it is expected to end nearer the deadline
        than stopping now would.  After each pass, ``between`` gets the share
        of ``seconds`` spent so far; its own time does not count.
        """
        passes = []
        busy = 0.0
        while True:
            if len(passes) >= self.workload.quality_passes and busy + busy / len(passes) / 2 >= seconds:
                return passes
            start = time.perf_counter()
            passes.append(self.run_pass(len(passes)))
            busy += time.perf_counter() - start
            between(min(busy / seconds, 1.0))


def _rate(passes, samples, ns) -> float:
    """Samples per second of timed work, summed over the passes."""
    total_ns = sum(getattr(p, ns) for p in passes)
    return sum(getattr(p, samples) for p in passes) / total_ns * 1e9 if total_ns else 0.0


def _setup_seconds(runner: Runner) -> float:
    """One fresh interpreter's set-up time, from ``setup_probe.py``."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), runner.workload.name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode:
        runner.problem(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def check_golden(runner: Runner, golden: dict) -> None:
    """Canary: pass 0 at the reference seed must keep its bytes.

    Replays the canary workloads (every codec at small n, and the dyadic
    codec at depths up to ~34) and the run's own workload, so density-1e6
    runs also check streams of n = 10^6.  The digests cover the last decode
    only, so one decode per container suffices.
    """
    for name in dict.fromkeys(golden["canary"] + [runner.workload.name]):
        canary = Runner(replace(workloads.build(name), decodes=1), golden["seed"])
        got = canary.run_pass(0).digests()
        runner.attempted += canary.attempted
        runner.failed += canary.failed
        runner.problems += canary.problems
        if got != golden["digests"][name]:
            runner.problem(f"containers or samples of {name} at seed {golden['seed']} changed: {got}")


def record_golden() -> None:
    golden = {"seed": 1, "canary": ["ceiling-sweep", "deep-levels"], "digests": {}}
    for name in workloads.WORKLOADS:
        runner = Runner(workloads.build(name), golden["seed"])
        golden["digests"][name] = runner.run_pass(0).digests()
        if runner.problems:
            raise SystemExit(f"{name} fails at the reference seed; nothing recorded")
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


def _print_metric(name, value, unit, note=""):
    print(f"{name} {value:.6g} {unit}{'  (' + note + ')' if note else ''}")


def untraced_run(runner: Runner, seconds: float, golden: dict) -> dict:
    # The set-up probes are spread over the measured passes, so that their
    # median, like the throughput, covers the whole run and not one moment
    # of a shared machine's changing speed.
    setup = []

    def probe(done: float) -> None:
        while len(setup) < round(SETUP_PROBES * done):
            setup.append(_setup_seconds(runner))

    runner.run_pass(0, workloads.WARMUP)
    passes = runner.measure(seconds, probe)
    probe(1.0)
    # Read before the canaries, whose streams may need more memory than the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_golden(runner, golden)

    quality = passes[:runner.workload.quality_passes]
    samples = sum(p.samples for p in quality)
    timed = f"{len(passes)} passes, per-pass median {{:.4g}}, range {{:.4g}}..{{:.4g}}"
    enc = [p.samples / p.encode_ns * 1e9 for p in passes if p.encode_ns]
    dec = [p.decoded / p.decode_ns * 1e9 for p in passes if p.decode_ns]
    metrics = {
        "encode_samples_per_s": (_rate(passes, "samples", "encode_ns"), "1/s",
                                 timed.format(statistics.median(enc), min(enc), max(enc)) if enc else ""),
        "decode_samples_per_s": (_rate(passes, "decoded", "decode_ns"), "1/s",
                                 timed.format(statistics.median(dec), min(dec), max(dec)) if dec else ""),
        "payload_bits_per_sample": (sum(p.payload_bits for p in quality) / samples if samples else 0.0,
                                    "bit", f"passes 0..{len(quality) - 1}"),
        "peak_rss_mb": (peak_rss_mb, "MiB", ""),
        "setup_s": (statistics.median(setup), "s", "median of " + ", ".join(f"{s:.3f}" for s in setup)),
    }
    for name, (value, unit, note) in metrics.items():
        _print_metric(name, value, unit, note)
    _print_metric("error_rate", runner.failed / runner.attempted, "ratio",
                  f"{runner.failed} of {runner.attempted} streams")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def _layer_counts(tracer: spans.Tracer, passes) -> dict[str, float]:
    """Everything a traced pass counts: content counts, call counts, counters."""
    ids = [sid for p in passes for sid in p.stream_ids]
    own = tracer.self_times(ids)
    counters = tracer.counter_totals(ids)
    out = {name: sum(p.counts[name] for p in passes) for name in content.COUNTS}
    out["dyadic_codec.max_depth"] = max(p.counts["dyadic_codec.max_depth"] for p in passes)
    out.update({metric: own.get(span, (0, 0))[1] for metric, span in LAYER_CALLS.items()})
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    return out


def _traced_pass(runner: Runner, tracer: spans.Tracer, index: int) -> PassResult:
    """One pass with every layer wrapped; dsim must be left exactly as it was."""
    before = {(id(owner), attr): vars(owner).get(attr) for owner, attr, *_ in spans.TARGETS}
    runner.tracer = tracer
    try:
        with spans.patched(tracer):
            result = runner.run_pass(index, parse=True)
    finally:
        runner.tracer = None
    after = {(id(owner), attr): vars(owner).get(attr) for owner, attr, *_ in spans.TARGETS}
    if after != before or spans.leftover_wrappers(tracer):
        runner.problem(f"patched attributes not restored: {spans.leftover_wrappers(tracer)}")
    return result


def traced_run(runner: Runner, seconds: float, golden: dict) -> dict:
    """Untraced and traced runs of each pass back to back, so the overhead is paired."""
    runner.run_pass(0, workloads.WARMUP)
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if traced and elapsed + elapsed / len(traced) / 2 >= seconds:
            break
        untraced.append(runner.run_pass(len(traced)))
        traced.append(_traced_pass(runner, tracer, len(traced)))
        if untraced[-1].digests() != traced[-1].digests():
            runner.problem(f"traced pass {len(traced) - 1} differs from the untraced pass")
    # Counts taken from the same pass twice must agree exactly.
    repeat = _traced_pass(runner, tracer, 0)
    first, again = _layer_counts(tracer, traced[:1]), _layer_counts(tracer, [repeat])
    if first != again or traced[0].digests() != repeat.digests():
        runner.problem(f"a repeated traced pass counted differently: {first} vs {again}")
    check_golden(runner, golden)

    m = len(traced)
    ids = [sid for p in traced for sid in p.stream_ids]
    own = tracer.self_times(ids)
    metrics = {metric: own.get(span, (0, 0))[0] / 1e9 / m for metric, span in LAYER_TIMES.items()}
    for name, value in _layer_counts(tracer, traced).items():
        metrics[name] = value if name == "dyadic_codec.max_depth" else value / m
    located = metrics["dyadic_codec.points_located"]
    metrics["dyadic_codec.locate_useful_ratio"] = sum(p.located for p in traced) / m / located if located else 1.0
    plain = sum(p.encode_ns + p.decode_ns for p in untraced)
    metrics["trace.overhead_pct"] = 100.0 * (sum(p.encode_ns + p.decode_ns for p in traced) / plain - 1.0) if plain else 0.0

    units = {"bitcodes.payload_bits": "bit", "dyadic_codec.locate_useful_ratio": "ratio", "trace.overhead_pct": "%"}
    out = {}
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        _print_metric(name, metrics[name], unit)
        out[name] = {"value": metrics[name], "unit": unit}
    path = TRACE_DIR / f"trace-{runner.workload.name}-seed{runner.seed}.csv.gz"
    tracer.write(path)
    print(f"{len(tracer.names)} spans over {m} traced passes (+1 repeat) written to {path.relative_to(ROOT)}")
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    golden = json.loads(GOLDEN.read_text())
    # Everything imported so far lives for the whole run; freezing it keeps
    # the collections between streams from rescanning numpy and scipy.
    gc.collect()
    gc.freeze()
    runner = Runner(workloads.build(args.workload), args.seed)
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed {args.seed} {mode}, {args.seconds:g} s")
    metrics = (traced_run if args.trace else untraced_run)(runner, args.seconds, golden)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0
