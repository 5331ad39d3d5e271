"""Per-layer spans recorded from outside the package.

The lesionkit modules import each other's functions by name
(``from .cluster import gs_lesion_maps``), so a function is wrapped at the
module attribute its caller looks up, not only where it is defined.
``LAYER_WRAPS`` lists every such (module, attribute) pair with the span key
it records and, where the layer has a work count, a counter.

Spans are kept in memory as (key, start, end, parent) and reduced to
self times when an operation ends.  A layer's self time is its span's
duration minus the durations of the spans it directly encloses.  The time
spent computing counters is recorded as its own span,
``trace.bookkeeping_s``, so it is charged neither to the layer nor to its
caller.  Within one operation the self times of all spans plus the
residual (operation time outside every top-level span) add up to the
operation's wall time.

Single-threaded use only: the span stack is not shared between threads,
which holds because every workload runs with ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping_s"


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _filter_counts(args, result):
    return {"cluster.filter_in": len(args[0]), "cluster.filter_kept": len(result)}


def _clusters_found(args, result):
    return {"cluster.clusters_found": len(result)}


# (module, attribute, span key, counter or None).  A counter maps the
# call's (positional args, result) to {count name: increment}; every caller
# passes the arguments a counter reads positionally.
LAYER_WRAPS = (
    ("lesionkit.evaluation", "read_volume", "volume.read_s",
     lambda a, r: {"volume.read_mb": r.values.nbytes / 1e6}),
    ("lesionkit.phantom", "write_volume", "volume.write_s",
     lambda a, r: {"volume.write_mb": a[0].values.nbytes / 1e6}),
    ("lesionkit.evaluation", "load_patient_eval", "evaluation.load_self_s", None),
    ("lesionkit.evaluation", "label_from_probs", "netmath.argmax_s",
     lambda a, r: {"netmath.argmax_mvox": r.values.size / 1e6}),
    ("lesionkit.evaluation", "gs_lesion_maps", "cluster.gs_maps_s", _clusters_found),
    ("lesionkit.evaluation", "cs_lesion_maps", "cluster.cs_maps_s", _clusters_found),
    ("lesionkit.evaluation", "filter_by_volume", "cluster.filter_s", _filter_counts),
    ("lesionkit.evaluation", "filter_by_zone", "cluster.filter_s", _filter_counts),
    ("lesionkit.metrics", "match_detections", "matching.match_s",
     lambda a, r: {"matching.match_calls": 1}),
    ("lesionkit.evaluation", "froc_curve", "metrics.froc_s", None),
    ("lesionkit.evaluation", "froc_by_grade", "metrics.froc_s", None),
    ("lesionkit.metrics", "froc_curve", "metrics.froc_s", None),
    ("lesionkit.metrics", "froc_from_matches", "metrics.froc_s",
     lambda a, r: {"metrics.froc_thresholds": len(r.points)}),
    # draws: records resampled, summed over iterations
    ("lesionkit.evaluation", "bootstrap_kappa", "metrics.bootstrap_s",
     lambda a, r: {"metrics.bootstrap_draws": r.n_iterations * len(a[0])}),
    ("lesionkit.evaluation", "dice_coefficient", "metrics.dice_s", None),
    ("lesionkit.evaluation", "stage_cohort", "evaluation.stage_self_s", None),
    ("lesionkit.evaluation", "aggregate_stages", "evaluation.aggregate_self_s", None),
    ("lesionkit.evaluation", "write_report_bundle", "evaluation.write_bundle_s",
     lambda a, r: {"evaluation.bundle_kb": _dir_bytes(a[1]) / 1e3}),
    ("lesionkit.phantom", "generate_cohort", "phantom.generate_s",
     lambda a, r: {"phantom.blobs_placed": sum(len(p.lesions) + len(p.fps)
                                                  for p in r[1].patients)}),
    ("lesionkit.phantom", "degrade_prediction", "phantom.render_s", None),
    ("lesionkit.phantom", "write_cohort", "phantom.write_self_s", None),
)

#: every self-time key a traced operation reports, zero when unused
SPAN_KEYS = tuple(dict.fromkeys([w[2] for w in LAYER_WRAPS] + [BOOKKEEPING]))

#: every count a traced operation reports, zero when unused
COUNT_KEYS = (
    "volume.read_mb", "volume.write_mb", "netmath.argmax_mvox",
    "cluster.clusters_found", "cluster.filter_in", "cluster.filter_kept",
    "matching.match_calls", "metrics.froc_thresholds", "metrics.bootstrap_draws",
    "evaluation.bundle_kb", "phantom.blobs_placed",
)


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self):
        self._spans = []  # [key, start, end, parent index or None]
        self._stack = []
        self._counts = defaultdict(float)
        self._originals = []

    def _wrap(self, fn, key, counter):
        spans, stack, counts = self._spans, self._stack, self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            span = [key, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                b0 = time.perf_counter()
                for name, inc in counter(args, result).items():
                    counts[name] += inc
                spans.append([BOOKKEEPING, b0, time.perf_counter(), parent])
            return result

        return wrapper

    def install(self) -> None:
        for mod_name, attr, key, counter in LAYER_WRAPS:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                raise AttributeError(f"{mod_name}.{attr} is gone; update LAYER_WRAPS")
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, key, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take_op(self, op_s: float) -> dict:
        """Reduce the spans recorded since the last call to one operation's
        self times, counts and residual, then clear them."""
        if self._stack:
            raise RuntimeError("operation ended inside an open span")
        n = len(self._spans)
        child = [0.0] * n
        covered = 0.0
        for key, start, end, parent in self._spans:
            if parent is None:
                covered += end - start
            else:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_KEYS, 0.0)
        for i, (key, start, end, _) in enumerate(self._spans):
            self_s[key] += (end - start) - child[i]
        counts = {k: self._counts.get(k, 0.0) for k in COUNT_KEYS}
        out = {"self_s": self_s, "counts": counts, "residual_s": op_s - covered, "spans": n}
        self._spans.clear()
        self._counts.clear()
        return out
