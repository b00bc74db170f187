"""The database administration tool (abstract: "a database administration
tool ... are also implemented").

Reports on extents, indexes, named objects, buffer behaviour, simulated
I/O, the write-ahead log and the lock table -- the operational state an
administrator inspects.
"""

from __future__ import annotations

from repro.core.kernel import MoodKernel


class AdminTool:
    def __init__(self, kernel: MoodKernel):
        self.kernel = kernel

    def extent_report(self) -> str:
        lines = ["class | instances | pages"]
        for name in self.kernel.catalog.class_names():
            definition = self.kernel.catalog.class_def(name)
            if not definition.is_class:
                lines.append(f"{name} | (type) | -")
                continue
            extent = self.kernel.catalog.extent_file(name)
            lines.append(
                f"{name} | {extent.record_count()} | {extent.nbpages()}"
            )
        return "\n".join(lines)

    def index_report(self) -> str:
        lines = ["index | class | attribute | kind | unique"]
        for info in self.kernel.catalog.all_indexes():
            lines.append(
                f"{info.name} | {info.class_name} | {info.attribute} | "
                f"{info.kind} | {'yes' if info.unique else 'no'}"
            )
        if len(lines) == 1:
            lines.append("(no indexes)")
        return "\n".join(lines)

    def named_object_report(self) -> str:
        named = self.kernel.catalog.named_objects()
        if not named:
            return "(no named objects)"
        return "\n".join(f"{name} -> {oid}" for name, oid in sorted(named.items()))

    def buffer_report(self) -> str:
        value = self.kernel.storage.metrics.value
        hits, misses = int(value("buffer.hits")), int(value("buffer.misses"))
        return (
            f"capacity={self.kernel.storage.buffer.capacity} "
            f"hits={hits} misses={misses} "
            f"hit_ratio={hits / max(hits + misses, 1):.2f} "
            f"evictions={int(value('buffer.evictions'))} "
            f"flushes={int(value('buffer.flushes'))}"
        )

    def io_report(self) -> str:
        stats = self.kernel.storage.io_stats
        return (
            f"random_reads={stats.random_reads} "
            f"sequential_reads={stats.sequential_reads} "
            f"random_writes={stats.random_writes} "
            f"sequential_writes={stats.sequential_writes} "
            f"elapsed_ms={stats.elapsed_ms:.1f}"
        )

    def wal_report(self) -> str:
        wal = self.kernel.storage.wal
        return (
            f"records={len(wal)} last_lsn={wal.last_lsn} "
            f"forced_lsn={wal.forced_lsn} "
            f"checkpoint_lsn={wal.checkpoint_lsn}"
        )

    def statistics_report(self) -> str:
        if not self.kernel.has_statistics():
            return "(no statistics; run ANALYZE)"
        stats = self.kernel.stats
        lines = ["class | |C| | nbpages | size"]
        for name in sorted(stats.classes):
            lines.append(
                f"{name} | {stats.card(name)} | {stats.nbpages(name)} | "
                f"{stats.size(name)}"
            )
        return "\n".join(lines)

    def full_report(self) -> str:
        sections = [
            ("EXTENTS", self.extent_report()),
            ("INDEXES", self.index_report()),
            ("NAMED OBJECTS", self.named_object_report()),
            ("STATISTICS", self.statistics_report()),
            ("BUFFER", self.buffer_report()),
            ("I/O", self.io_report()),
            ("WAL", self.wal_report()),
        ]
        blocks = []
        for title, body in sections:
            blocks.append(f"== {title} ==\n{body}")
        return "\n\n".join(blocks)

    def checkpoint(self) -> None:
        self.kernel.storage.checkpoint()
