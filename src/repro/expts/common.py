"""Shared experiment infrastructure: points, results, statistics.

Everything here is JSON-serializable through paired ``to_json`` /
``from_json`` hooks, which is what lets the run store
(:mod:`repro.flow.store`) persist a whole :class:`ExperimentResult`
-- points, tables, notes, and the aggregated per-pass instrumentation
(:class:`PassTotals`) -- as one versioned record per commit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN/Infinity; encode non-finite floats as null."""
    return value if math.isfinite(value) else None


def sizing_meta(ctx) -> dict:
    """The per-point sizing outcome a driver persists in a figure
    point's ``meta``: the one definition of the timing-persistence
    schema that ``repro.flow.store.diff_runs`` reads back by key for
    the ``--max-delay-pct`` gate."""
    return {
        "critical_delay": ctx.timing.critical_delay,
        "met": ctx.sizing.met,
    }


def _none_or_nan(value: float | None) -> float:
    return float("nan") if value is None else float(value)


@dataclass(frozen=True)
class ExperimentPoint:
    """One measurement: an (x, y) pair in a named series."""

    series: str
    x: float
    y: float
    label: str = ""
    meta: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def ratio(self) -> float:
        """y / x -- for equal-area scatters, 1.0 means 'on the line'.

        A zero ``y`` (a fully-optimized-away design) is a legal ratio
        of 0.0; :meth:`RatioStats.of` excludes such points from the
        geometric statistics rather than crashing on ``log(0)``.
        """
        if self.x <= 0:
            raise ValueError(f"point {self.label!r} has non-positive x")
        if self.y < 0:
            raise ValueError(f"point {self.label!r} has negative y")
        return self.y / self.x

    def to_json(self) -> dict:
        """A plain-JSON form; ``meta`` must already be JSON-safe (the
        drivers only store numbers and strings there)."""
        return {
            "series": self.series,
            "x": self.x,
            "y": self.y,
            "label": self.label,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentPoint":
        """Rebuild a point from :meth:`to_json` output."""
        return cls(
            series=data["series"],
            x=float(data["x"]),
            y=float(data["y"]),
            label=data.get("label", ""),
            meta=dict(data.get("meta", {})),
        )


@dataclass(frozen=True)
class PassTotals:
    """Aggregated instrumentation for one pass name across a sweep.

    A figure run executes the same pass hundreds of times (once per
    compile job); what a cross-commit regression diff needs is the
    *total*: how often the pass ran, how long it took overall, and how
    much structure it moved.  ``failed``/``rejected``/``skipped``
    count the records carrying the corresponding flags, so a pipeline
    that starts rolling rounds back (or erroring) shows up in the
    stored run even when the final areas still match.
    """

    name: str
    calls: int = 0
    wall_time_s: float = 0.0
    delta_ands: int = 0
    failed: int = 0
    rejected: int = 0
    skipped: int = 0

    def absorb(self, record) -> "PassTotals":
        """A new totals object with ``record`` folded in."""
        delta = record.delta_ands
        return PassTotals(
            name=self.name,
            calls=self.calls + 1,
            wall_time_s=self.wall_time_s + record.wall_time_s,
            delta_ands=self.delta_ands + (0 if delta is None else delta),
            failed=self.failed + (1 if record.failed else 0),
            rejected=self.rejected + (1 if record.rejected else 0),
            skipped=self.skipped + (1 if record.skipped else 0),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall_time_s": self.wall_time_s,
            "delta_ands": self.delta_ands,
            "failed": self.failed,
            "rejected": self.rejected,
            "skipped": self.skipped,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PassTotals":
        return cls(
            name=data["name"],
            calls=int(data["calls"]),
            wall_time_s=float(data["wall_time_s"]),
            delta_ands=int(data["delta_ands"]),
            failed=int(data["failed"]),
            rejected=int(data["rejected"]),
            skipped=int(data["skipped"]),
        )


@dataclass
class ExperimentResult:
    """A completed experiment run.

    Beyond the figure payload (points, tables, notes), a result
    carries ``pass_totals`` -- per-pass instrumentation aggregated
    from every compile of the sweep via :meth:`absorb_flow` -- and a
    free-form JSON-safe ``meta`` dict (pipeline specs, scale) so the
    run store can diff two commits' runs pass-by-pass.
    """

    name: str
    description: str
    points: list[ExperimentPoint] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    pass_totals: dict[str, PassTotals] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def absorb_flow(self, contexts: Iterable) -> None:
        """Fold the :class:`~repro.flow.core.PassRecord` streams of
        completed flow contexts into ``pass_totals``.

        Cached compiles replay the records of the run that produced
        them, so a warm sweep aggregates the *same* totals as the cold
        run it hit on -- which is exactly what makes a re-recorded
        commit diff clean against itself.  The same holds for compiles
        resumed from a cached prefix (their restored records replay
        the prefix's provenance); those are additionally tallied into
        ``meta["prefix_hits"]``/``meta["prefix_passes_skipped"]`` so a
        stored run reports how much the prefix cache saved it.
        """
        for ctx in contexts:
            meta = getattr(ctx, "meta", None) or {}
            skipped = int(meta.get("passes_skipped", 0) or 0)
            if skipped:
                self.meta["prefix_hits"] = (
                    self.meta.get("prefix_hits", 0) + 1
                )
                self.meta["prefix_passes_skipped"] = (
                    self.meta.get("prefix_passes_skipped", 0) + skipped
                )
            for record in ctx.records:
                totals = self.pass_totals.get(record.name)
                if totals is None:
                    totals = PassTotals(record.name)
                self.pass_totals[record.name] = totals.absorb(record)

    def series(self, name: str) -> list[ExperimentPoint]:
        return [p for p in self.points if p.series == name]

    def series_names(self) -> list[str]:
        seen: list[str] = []
        for point in self.points:
            if point.series not in seen:
                seen.append(point.series)
        return seen

    def ratio_stats(self, series: str) -> "RatioStats":
        return RatioStats.of([p.ratio for p in self.series(series)])

    def to_markdown(self) -> str:
        lines = [f"### {self.name}", "", self.description, ""]
        for title, table in self.tables.items():
            lines += [f"**{title}**", "", "```", table, "```", ""]
        if self.points:
            lines.append("**Series summary (y/x ratios)**")
            lines.append("")
            lines.append("| series | points | geomean | min | max |")
            lines.append("|---|---|---|---|---|")
            for name in self.series_names():
                stats = self.ratio_stats(name)
                lines.append(
                    f"| {name} | {stats.count} | {stats.geomean:.3f} "
                    f"| {stats.minimum:.3f} | {stats.maximum:.3f} |"
                )
            lines.append("")
            for name in self.series_names():
                stats = self.ratio_stats(name)
                if stats.excluded:
                    lines.append(
                        f"- {name}: {stats.excluded} non-positive ratio "
                        f"point(s) excluded from the geometric stats"
                    )
        for note in self.notes:
            lines.append(f"- {note}")
        lines.append("")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A plain-JSON form of the whole result: points, tables,
        notes, meta, and the aggregated pass totals.  Per-series
        :class:`RatioStats` summaries are included for human
        inspection of stored records; :meth:`from_json` recomputes
        them from the points, so they carry no authority."""
        return {
            "name": self.name,
            "description": self.description,
            "points": [point.to_json() for point in self.points],
            "tables": dict(self.tables),
            "notes": list(self.notes),
            "pass_totals": {
                name: totals.to_json()
                for name, totals in sorted(self.pass_totals.items())
            },
            "meta": dict(self.meta),
            "series_summaries": {
                name: self.ratio_stats(name).to_json()
                for name in self.series_names()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls(
            name=data["name"],
            description=data["description"],
            points=[
                ExperimentPoint.from_json(point) for point in data["points"]
            ],
            tables=dict(data.get("tables", {})),
            notes=list(data.get("notes", [])),
            pass_totals={
                name: PassTotals.from_json(totals)
                for name, totals in data.get("pass_totals", {}).items()
            },
            meta=dict(data.get("meta", {})),
        )


@dataclass(frozen=True)
class RatioStats:
    """Geometric summary of y/x ratios in a series.

    Non-positive ratios (a zero-area point) have no logarithm; they
    are excluded from ``geomean``/``log_spread`` and counted in
    ``excluded`` so a single degenerate point reports itself instead
    of crashing a whole sweep.  ``count``, ``minimum`` and ``maximum``
    still describe every ratio given.
    """

    count: int
    geomean: float
    minimum: float
    maximum: float
    log_spread: float
    excluded: int = 0

    def to_json(self) -> dict:
        """A plain-JSON form (NaN summaries of empty series encode as
        null -- strict JSON has no NaN literal)."""
        return {
            "count": self.count,
            "geomean": _finite_or_none(self.geomean),
            "minimum": _finite_or_none(self.minimum),
            "maximum": _finite_or_none(self.maximum),
            "log_spread": _finite_or_none(self.log_spread),
            "excluded": self.excluded,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RatioStats":
        """Rebuild stats from :meth:`to_json` output (null -> NaN)."""
        return cls(
            count=int(data["count"]),
            geomean=_none_or_nan(data["geomean"]),
            minimum=_none_or_nan(data["minimum"]),
            maximum=_none_or_nan(data["maximum"]),
            log_spread=_none_or_nan(data["log_spread"]),
            excluded=int(data.get("excluded", 0)),
        )

    @classmethod
    def of(cls, ratios: list[float]) -> "RatioStats":
        nan = float("nan")
        if not ratios:
            return cls(0, nan, nan, nan, nan)
        positive = [r for r in ratios if r > 0]
        excluded = len(ratios) - len(positive)
        if not positive:
            return cls(
                len(ratios), nan, min(ratios), max(ratios), nan, excluded
            )
        logs = [math.log(r) for r in positive]
        mean = sum(logs) / len(logs)
        spread = (
            math.sqrt(sum((l - mean) ** 2 for l in logs) / len(logs))
            if len(logs) > 1
            else 0.0
        )
        return cls(
            count=len(ratios),
            geomean=math.exp(mean),
            minimum=min(ratios),
            maximum=max(ratios),
            log_spread=spread,
            excluded=excluded,
        )


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Monospace table with column alignment."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)
