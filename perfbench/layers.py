"""Per-layer metrics from the spans of one traced CLI run.

A span is ``(id, name, start, end, parent, thread, attrs)`` as written by
``child.py``. A layer's self time is its spans' durations minus the part of
each that its child spans cover; children may run on other threads (the
statistics pass runs its chunks on a pool), so coverage is the union of the
child intervals, not their sum.
"""

import statistics
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("sampling.channel_realizations.self_s", "s", "lower"),
    ("sampling.channel_realizations.trials", "count", "lower"),
    ("linalg2.svd2.self_s", "s", "lower"),
    ("linalg2.svd2.matrices", "count", "lower"),
    ("linalg2.svd2.sampling.self_s", "s", "lower"),
    ("linalg2.svd2.sampling.matrices", "count", "lower"),
    ("linalg2.svd2.altopt.self_s", "s", "lower"),
    ("linalg2.svd2.altopt.matrices", "count", "lower"),
    ("sysmodel.mode_z_factors.self_s", "s", "lower"),
    ("altopt.optimize_batch.self_s", "s", "lower"),
    ("altopt.trial_cycles", "count", "lower"),
    ("montecarlo.channel_statistics.wall_s", "s", "lower"),
    ("montecarlo.chunk_busy_s", "s", "lower"),
    ("montecarlo.parallel_eff", "ratio", "higher"),
    ("montecarlo.stats_bytes", "computed_bytes", "lower"),
    ("montecarlo.reduce.calls", "count", "lower"),
    ("montecarlo.reduce.self_s", "s", "lower"),
    ("special.meijer_g.calls", "count", "lower"),
    ("special.meijer_g.self_s", "s", "lower"),
    ("special.weighted_bessel_integral.calls", "count", "lower"),
    ("special.weighted_bessel_integral.self_s", "s", "lower"),
    ("special.quad.calls", "count", "lower"),
    ("special.quad.evals", "count", "lower"),
    ("special.quad.self_s", "s", "lower"),
    ("special.quad.err_max", "abs", "lower"),
    ("analytic.outage_closed_form.self_s", "s", "lower"),
    ("analytic.outage_closed_form.p50_ms", "ms", "lower"),
    ("analytic.outage_closed_form.max_ms", "ms", "lower"),
    ("analytic.throughput.self_s", "s", "lower"),
    ("analytic.throughput.p50_ms", "ms", "lower"),
    ("analytic.throughput.max_ms", "ms", "lower"),
    ("analytic.outage_quadrature.self_s", "s", "lower"),
    *((f"acceptance.C{k}.s", "s", "lower") for k in range(1, 11)),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Counts that must repeat exactly across traced runs at one seed.
EXACT_COUNTS = [
    "sampling.channel_realizations.trials",
    "linalg2.svd2.matrices",
    "linalg2.svd2.sampling.matrices",
    "linalg2.svd2.altopt.matrices",
    "altopt.trial_cycles",
    "montecarlo.stats_bytes",
    "montecarlo.reduce.calls",
    "special.meijer_g.calls",
    "special.weighted_bessel_integral.calls",
    "special.quad.calls",
    "special.quad.evals",
]


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _tid, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    own = {}
    for sid, _name, start, end, *_ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[sid] = end - start - covered
    return own


def layer_metrics(spans, nproc):
    """Every PER_LAYER metric except the trace.* ones, which need the
    untraced run as well. Layers that did not run report 0."""
    own = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def spans_of(name, parent=None):
        return [s for s in by_name[name]
                if parent is None or name_of.get(s[4], "").startswith(parent)]

    def self_s(name, parent=None):
        return sum(own[s[0]] for s in spans_of(name, parent))

    def attr_sum(name, key, parent=None):
        return sum(s[6].get(key, 0) for s in spans_of(name, parent) if s[6])

    def durations_ms(name):
        return [1e3 * (s[3] - s[2]) for s in by_name[name]] or [0.0]

    m = {
        "sampling.channel_realizations.self_s": self_s("sampling.channel_realizations"),
        "sampling.channel_realizations.trials": attr_sum("sampling.channel_realizations", "trials"),
        "linalg2.svd2.self_s": self_s("linalg2.svd2"),
        "linalg2.svd2.matrices": attr_sum("linalg2.svd2", "matrices"),
        "sysmodel.mode_z_factors.self_s": self_s("sysmodel.mode_z_factors"),
        "altopt.optimize_batch.self_s": self_s("altopt.optimize_batch"),
        "altopt.trial_cycles": attr_sum("altopt.optimize_batch", "cycles"),
        "montecarlo.stats_bytes": attr_sum("montecarlo.channel_statistics", "bytes"),
        "montecarlo.reduce.calls": len(by_name["montecarlo.reduce"]),
        "montecarlo.reduce.self_s": self_s("montecarlo.reduce"),
        "special.quad.calls": len(by_name["special.quad"]),
        "special.quad.evals": attr_sum("special.quad", "evals"),
        "special.quad.self_s": self_s("special.quad"),
        "special.quad.err_max": max(
            (s[6]["err"] for s in by_name["special.quad"] if s[6]), default=0.0
        ),
        "analytic.outage_quadrature.self_s": self_s("analytic.outage_quadrature"),
        "cli.self_s": self_s("cli.main"),
    }
    for parent in ("sampling", "altopt"):
        m[f"linalg2.svd2.{parent}.self_s"] = self_s("linalg2.svd2", parent)
        m[f"linalg2.svd2.{parent}.matrices"] = attr_sum("linalg2.svd2", "matrices", parent)
    for fn in ("meijer_g", "weighted_bessel_integral"):
        m[f"special.{fn}.calls"] = len(by_name[f"special.{fn}"])
        m[f"special.{fn}.self_s"] = self_s(f"special.{fn}")
    for fn in ("outage_closed_form", "throughput"):
        name = f"analytic.{fn}"
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.p50_ms"] = statistics.median(durations_ms(name))
        m[f"{name}.max_ms"] = max(durations_ms(name))

    passes = {s[0]: s for s in by_name["montecarlo.channel_statistics"]}
    wall = sum(s[3] - s[2] for s in passes.values())
    busy = sum(s[3] - s[2] for s in spans if s[4] in passes)
    m["montecarlo.channel_statistics.wall_s"] = wall
    m["montecarlo.chunk_busy_s"] = busy
    m["montecarlo.parallel_eff"] = busy / (wall * nproc) if wall > 0 else 0.0

    for k in range(1, 11):
        m[f"acceptance.C{k}.s"] = attr_sum("acceptance.run_acceptance", f"C{k}")
    return m
