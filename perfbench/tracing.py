"""Spans recorded from the benchmark's side of each layer boundary.

:func:`install` replaces the package's public entry points, under the
module names their callers look them up by, with wrappers that record a
span (name, parent, start, end, attributes) per call.  Nothing in the
package changes; untraced runs never call :func:`install`.
:func:`layer_metrics` turns the spans into the per-layer figures.
"""

from __future__ import annotations

import math
import time

# Series with more terms than this go to the closed-form bin; the same
# threshold and term estimate the model documents for its two routes,
# worked out here from the inputs so the bins outlive a kernel rewrite.
SERIES_TERM_LIMIT = 5_000_000

# Entry point -> span name, wrapped wherever a module binds that name.
_ENTRY_POINTS = {
    "metrics": "model.metrics",
    "optimize_link_count": "planner.optimize",
    "plan_fixed_link": "planner.fixed_link",
    "direct_transmission_time": "planner.direct",
    "crossover_with_direct": "planner.crossover",
    "run_sweep": "planner.sweep",
    "simulate": "montecarlo.simulate",
    "parse_config": "cli.parse",
    "execute": "cli.execute",
}


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Call ``fn`` inside a span with the given attributes."""
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs or {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def annotate(self, **attrs) -> None:
        """Add attributes to the innermost open span."""
        self.spans[self._open[-1]]["attrs"].update(attrs)


def moments_route(hw, chain, ch, tol) -> str:
    """``series`` or ``closed``: the route the attempt moments need for
    these inputs, from the term estimate (ln max(n,2) + ln 1/tol) / lambda."""
    from repeaterchain.model import ec_prob

    p = ec_prob(hw, chain, ch)
    if not 0.0 < p <= 1.0:
        return "none"
    lam = -math.log1p(-p) if p < 1.0 else math.inf
    terms = (math.log(max(chain.link_count, 2)) + math.log(1.0 / tol)) / lam
    return "series" if terms <= SERIES_TERM_LIMIT else "closed"


def _wrap(tracer: Tracer, name: str, fn):
    if name == "model.metrics":
        from repeaterchain.model import DEFAULT_TOL

        def traced(hw, chain, ch, tol=DEFAULT_TOL):
            def run():
                tracer.annotate(route=moments_route(hw, chain, ch, tol))
                return fn(hw, chain, ch, tol)
            return tracer.call(name, run)
    elif name == "planner.sweep":
        def traced(spec, *args, **kwargs):
            return tracer.call(name, fn, (spec, *args), kwargs, {"points": len(spec.grid)})
    elif name == "montecarlo.simulate":
        def traced(cfg):
            def run():
                stats = fn(cfg)
                tracer.annotate(rounds=stats.rounds_total)
                return stats
            return tracer.call(name, run, attrs={"trials": cfg.trials})
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Trace every entry point under each module's own binding of it."""
    from repeaterchain import cli, montecarlo, planner

    for module in (planner, montecarlo, cli):
        for attr, name in _ENTRY_POINTS.items():
            fn = getattr(module, attr, None)
            if callable(fn) and not hasattr(fn, "__wrapped__"):
                setattr(module, attr, _wrap(tracer, name, fn))


def _self_times(spans: list[dict]) -> dict[int, float]:
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def layer_metrics(traces: list[list[dict]], passes: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``passes`` traced passes.

    ``traces`` holds one span list per process; ids are local to a list.
    Counts and times are per pass, except ``*_per_call``/``*_per_trial``
    ratios and the per-point sweep time.
    """
    rows = []  # (span, self seconds, parent name)
    for spans in traces:
        by_id = {s["id"]: s for s in spans}
        own = _self_times(spans)
        for s in spans:
            parent = by_id[s["parent"]]["name"] if s["parent"] is not None else None
            rows.append((s, own[s["id"]], parent))

    def select(name, parent=None, route=None):
        return [(s, own) for s, own, p in rows if s["name"] == name
                and (parent is None or p == parent)
                and (route is None or s["attrs"].get("route") == route)]

    def per_pass(xs):
        return len(xs) / passes

    def self_ms(xs):
        return 1e3 * sum(own for _, own in xs) / passes

    def wall(xs):
        return sum(s["end"] - s["start"] for s, _ in xs)

    def ratio(num, den):
        return num / den if den else 0.0

    model = select("model.metrics")
    series = select("model.metrics", route="series")
    closed = select("model.metrics", route="closed")
    optimize = select("planner.optimize")
    crossover = select("planner.crossover")
    sweeps = select("planner.sweep")
    sims = select("montecarlo.simulate")
    trials = sum(s["attrs"]["trials"] for s, _ in sims)
    return {
        "model.metrics.calls": per_pass(model),
        "model.metrics.self_ms": self_ms(model),
        "model.metrics.series_calls": per_pass(series),
        "model.metrics.series_ms": self_ms(series),
        "model.metrics.closed_calls": per_pass(closed),
        "model.metrics.closed_ms": self_ms(closed),
        "model.metrics.errors": per_pass([x for x in model if "error" in x[0]]),
        "planner.optimize.calls": per_pass(optimize),
        "planner.optimize.self_ms": self_ms(optimize),
        "planner.optimize.evals_per_call": ratio(
            len(select("model.metrics", parent="planner.optimize")), len(optimize)),
        "planner.crossover.optimize_calls": ratio(
            len(select("planner.optimize", parent="planner.crossover")), len(crossover)),
        "planner.crossover.self_ms": self_ms(crossover),
        "planner.sweep.point_ms": 1e3 * ratio(
            wall(sweeps), sum(s["attrs"]["points"] for s, _ in sweeps)),
        "montecarlo.simulate.ms": 1e3 * wall(sims) / passes,
        "montecarlo.us_per_trial": 1e6 * ratio(wall(sims), trials),
        "montecarlo.rounds_per_trial": ratio(
            sum(s["attrs"]["rounds"] for s, _ in sims if "rounds" in s["attrs"]), trials),
        "cli.parse_ms": 1e3 * ratio(wall(select("cli.parse")), len(select("cli.parse"))),
        "cli.execute_self_ms": 1e3 * ratio(
            sum(own for _, own in select("cli.execute")), len(select("cli.execute"))),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost in ms from ``python -X importtime`` output: numpy and
    mpmath cumulative, and the package's own modules' self time."""
    numpy_us = mpmath_us = own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the column header
        name = name.strip()
        if name == "numpy" and not numpy_us:
            numpy_us = int(cumulative_us)
        elif name == "mpmath" and not mpmath_us:
            mpmath_us = int(cumulative_us)
        elif name == "repeaterchain" or name.startswith("repeaterchain."):
            own_us += int(self_us)
    return {
        "cli.import.numpy_ms": numpy_us / 1e3,
        "cli.import.mpmath_ms": mpmath_us / 1e3,
        "cli.import.self_ms": own_us / 1e3,
    }
