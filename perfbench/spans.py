"""Per-layer spans of dsim, recorded from outside the library.

For a traced run, ``patched`` replaces each module or class attribute that
names a layer's public function with a timing wrapper, and puts the original
back afterwards.  The codecs import functions by name, so a wrapper goes
where the caller looks the name up: ``halfline_codec.collect_triples`` as
well as ``dyadic_codec.collect_triples``, each codec's ``write_container``,
and the methods ``RandomSource.child`` and ``MonotonePdf.pdf``.

A span holds its name, start, end, parent span and stream id.  Spans stay in
memory; ``write`` saves them when the run ends.  A layer's self time is its
spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from dsim import RandomSource, distributions, dyadic_codec, halfline_codec, integer_codec

def _located(args, kwargs, result, add):
    unresolved = result[2]
    add("dyadic_codec.points_located", int(np.asarray(args[0]).size))
    add("dyadic_codec.unresolved_points", int(np.count_nonzero(unresolved)))


# (owner, attribute, span name, counter hook).  One span name may sit on
# several owners: every module that imported the function by name.
TARGETS = [
    (integer_codec, "simulate", "integer_codec.simulate", None),
    (integer_codec, "desimulate", "integer_codec.desimulate", None),
    (dyadic_codec, "simulate", "dyadic_codec.simulate", None),
    (dyadic_codec, "desimulate", "dyadic_codec.desimulate", None),
    (halfline_codec, "simulate", "halfline_codec.simulate", None),
    (halfline_codec, "desimulate", "halfline_codec.desimulate", None),
    (halfline_codec, "restrict_to_bin", "halfline_codec.restrict_to_bin", None),
    (dyadic_codec, "locate_batch", "dyadic_codec.locate_batch", _located),
    (dyadic_codec, "collect_triples", "dyadic_codec.collect_triples", None),
    (halfline_codec, "collect_triples", "dyadic_codec.collect_triples", None),
    (dyadic_codec, "decode_triples", "dyadic_codec.decode_triples", None),
    (halfline_codec, "decode_triples", "dyadic_codec.decode_triples", None),
    (dyadic_codec, "points_from_triples", "dyadic_codec.points_from_triples", None),
    (halfline_codec, "points_from_triples", "dyadic_codec.points_from_triples", None),
    (integer_codec, "encode_multiset", "integer_codec.encode_multiset", None),
    (halfline_codec, "encode_multiset", "integer_codec.encode_multiset", None),
    (integer_codec, "decode_multiset", "integer_codec.decode_multiset", None),
    (halfline_codec, "decode_multiset", "integer_codec.decode_multiset", None),
    (integer_codec, "write_container", "bitcodes.write_container", None),
    (dyadic_codec, "write_container", "bitcodes.write_container", None),
    (halfline_codec, "write_container", "bitcodes.write_container", None),
    (integer_codec, "read_container", "bitcodes.read_container", None),
    (dyadic_codec, "read_container", "bitcodes.read_container", None),
    (halfline_codec, "read_container", "bitcodes.read_container", None),
    (RandomSource, "child", "rng.child", None),
    (distributions.MonotonePdf, "pdf", "distributions.pdf", None),
    (distributions.MonotonePdf, "sample", "distributions.sample", None),
    (distributions.IntegerDistribution, "sample", "distributions.sample", None),
]


class Tracer:
    """In-memory span store; ``stream`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.streams: list[int] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.stream = -1
        self.wrappers: list = []
        self._open = [-1]

    def wrap(self, name, fn, hook=None):
        names, starts, ends, parents, streams, stack = (
            self.names, self.starts, self.ends, self.parents, self.streams, self._open)
        clock = time.perf_counter_ns

        def add(counter, value):
            self.counters[self.stream, counter] += value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            streams.append(self.stream)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, add)
            return result

        self.wrappers.append(traced)
        return traced

    def self_times(self, stream_ids) -> dict[str, tuple[int, int]]:
        """{span name: (self ns, calls)} over the spans of the given streams."""
        if not self.names:
            return {}
        start = np.asarray(self.starts, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child.astype(np.int64)
        keep = np.isin(np.asarray(self.streams), list(stream_ids))
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for name, ns in zip(np.asarray(self.names, dtype=object)[keep], own[keep]):
            out[name][0] += int(ns)
            out[name][1] += 1
        return {name: (ns, calls) for name, (ns, calls) in out.items()}

    def counter_totals(self, stream_ids) -> dict[str, int]:
        wanted = set(stream_ids)
        out: dict[str, int] = defaultdict(int)
        for (stream, name), value in self.counters.items():
            if stream in wanted:
                out[name] += value
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,stream\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.streams):
                fh.write("%s,%d,%d,%d,%d\n" % row)


@contextmanager
def patched(tracer: Tracer):
    """Install the wrappers of every target that exists; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, hook in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                print(f"perfbench: {owner.__name__}.{attr} is gone; layer {name} is not traced",
                      file=sys.stderr)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def leftover_wrappers(tracer: Tracer) -> list[str]:
    """Attributes of the traced owners that still hold one of the tracer's wrappers."""
    wrappers = {id(w) for w in tracer.wrappers}
    owners = {id(owner): owner for owner, *_ in TARGETS}.values()
    return [f"{owner.__name__}.{attr}" for owner in owners
            for attr, value in vars(owner).items() if id(value) in wrappers]
