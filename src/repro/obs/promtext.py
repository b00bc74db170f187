"""Prometheus text exposition of the metrics registry.

The ``METRICS`` wire op answers with this rendering, so any Prometheus-
compatible scraper (or a human with ``nc``) can read the server's
counters and latency distributions.  Counters become ``counter`` samples;
histograms become ``summary`` families with ``quantile`` labels
(p50/p95/p99 from the bucketed estimator) plus ``_sum``/``_count`` --
the exposition-format shape scrapers already know how to ingest.

Names are sanitised to the Prometheus grammar: the registry's dotted
names (``server.statement_ms``) turn into ``<prefix>_server_statement_ms``.
"""

from __future__ import annotations

import re

from repro.obs.metrics import (
    MetricsRegistry,
    dump_percentile,
    merge_histogram_dumps,
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles every histogram summary exposes.
QUANTILES = ((0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99"))


def metric_name(dotted: str, prefix: str = "mood") -> str:
    """``server.statement_ms`` -> ``mood_server_statement_ms``."""
    name = _NAME_OK.sub("_", f"{prefix}_{dotted}".replace(".", "_"))
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registry: MetricsRegistry,
    per_shard: dict[int, tuple[dict, dict]] | None = None,
    prefix: str = "mood",
) -> str:
    """``registry`` in Prometheus text exposition format 0.0.4: a single
    engine's METRICS answer, and with ``per_shard`` the merged cluster
    exposition a sharded router's METRICS answers.

    ``registry``'s samples carry no ``shard`` label; ``per_shard`` maps a
    shard index to its ``(counters, histogram_dumps)`` TELEMETRY payload,
    rendered with ``shard="<i>"`` labels.  Each metric family is declared
    once, then lists the unlabelled sample (if any) followed by one
    sample per shard -- plus, when a family has more than one sample, a
    cluster-wide ``quantile`` summary computed by merging the dumps
    (bucket sums, not averages of percentiles).
    """
    per_shard = per_shard or {}
    counter_families: dict[str, list[tuple[str | None, float]]] = {}
    for dotted, value in registry.counters().items():
        counter_families.setdefault(dotted, []).append((None, value))
    for shard in sorted(per_shard):
        counters, _ = per_shard[shard]
        for dotted, value in counters.items():
            counter_families.setdefault(dotted, []).append((str(shard), value))

    histogram_families: dict[str, list[tuple[str | None, dict]]] = {}
    for dotted, histogram in registry._histogram_items():
        histogram_families.setdefault(dotted, []).append(
            (None, histogram.dump())
        )
    for shard in sorted(per_shard):
        _, dumps = per_shard[shard]
        for dotted, dump in dumps.items():
            histogram_families.setdefault(dotted, []).append(
                (str(shard), dump)
            )

    lines: list[str] = []
    for dotted in sorted(counter_families):
        name = metric_name(dotted, prefix)
        lines.append(f"# TYPE {name} counter")
        for shard_label, value in counter_families[dotted]:
            lines.append(
                f"{name}{_labels(shard=shard_label)} {_format_value(value)}"
            )
    for dotted in sorted(histogram_families):
        name = metric_name(dotted, prefix)
        lines.append(f"# TYPE {name} summary")
        samples = histogram_families[dotted]
        for shard_label, dump in samples:
            for fraction, quantile in QUANTILES:
                lines.append(
                    f"{name}{_labels(shard=shard_label, quantile=quantile)} "
                    f"{_format_value(dump_percentile(dump, fraction))}"
                )
            lines.append(
                f"{name}_sum{_labels(shard=shard_label)} "
                f"{_format_value(dump.get('total', 0.0))}"
            )
            lines.append(
                f"{name}_count{_labels(shard=shard_label)} "
                f"{_format_value(dump.get('count', 0))}"
            )
        if len(samples) > 1:
            merged = merge_histogram_dumps([dump for _, dump in samples])
            if merged is not None:
                for fraction, quantile in QUANTILES:
                    lines.append(
                        f'{name}{{shard="cluster",quantile="{quantile}"}} '
                        f"{_format_value(dump_percentile(merged, fraction))}"
                    )
    return "\n".join(lines) + "\n"


def _labels(**labels: str | None) -> str:
    """``{shard="0",quantile="0.5"}`` from the non-None label values."""
    present = [
        f'{key}="{value}"'
        for key, value in labels.items() if value is not None
    ]
    return "{" + ",".join(present) + "}" if present else ""


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse an exposition back into ``{sample_name_with_labels: value}``.

    Round-trip helper for tests and the MoodView monitor panel; it
    understands exactly what :func:`render_prometheus` emits.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples
