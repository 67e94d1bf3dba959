"""Timed sweep execution for the experiment definitions.

The paper plots running time against one swept parameter per figure, with
one curve per algorithm.  :class:`SweepResult` is that figure in data
form: a swept axis, a set of named series, and (optionally) a quality
metric per point (the Exp-VII figures plot the r-th influence value
instead of time).  Beside each point it keeps the work counts the solvers
recorded during that call (:mod:`repro.utils.counters`), which is what
``benchmarks/bench_section6.py`` judges each figure's shape on; the
seconds are for the rendered report only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.clock import Clock, perf_clock
from repro.utils.charts import ascii_chart
from repro.utils.counters import counting
from repro.utils.tables import format_markdown_table, format_table


def time_call(
    fn: Callable[[], object], clock: "Clock | None" = None
) -> tuple[float, object]:
    """Run ``fn`` once, returning (wall seconds, result).

    ``clock`` is injectable (see :mod:`repro.bench.clock`) so tests pin
    timing logic deterministically; the default is the real
    ``time.perf_counter``.
    """
    clock = clock if clock is not None else perf_clock
    start = clock()
    result = fn()
    return clock() - start, result


@dataclass
class SweepResult:
    """One figure's worth of measurements.

    ``series[name][i]`` is the measurement of algorithm ``name`` at
    ``axis_values[i]`` — seconds for timing figures, an influence value
    for effectiveness figures.  ``None`` marks a skipped point (the
    paper's "missing point indicates the algorithm cannot terminate").
    ``counts[name][i]`` holds the work counts recorded by that call, by
    counter name, and is ``None`` at a skipped point.
    """

    title: str
    axis_name: str
    axis_values: list[object]
    series: dict[str, list[float | None]] = field(default_factory=dict)
    unit: str = "seconds"
    notes: list[str] = field(default_factory=list)
    counts: dict[str, list[dict[str, int] | None]] = field(default_factory=dict)

    def add_point(
        self,
        series_name: str,
        value: float | None,
        counts: dict[str, int] | None = None,
    ) -> None:
        """Append a measurement and its work counts to a series (created
        on first use)."""
        self.series.setdefault(series_name, []).append(value)
        self.counts.setdefault(series_name, []).append(counts)

    def _rows(self) -> list[list[object]]:
        rows = []
        for i, x in enumerate(self.axis_values):
            row: list[object] = [x]
            for name in self.series:
                values = self.series[name]
                value = values[i] if i < len(values) else None
                row.append("-" if value is None else value)
            rows.append(row)
        return rows

    def headers(self) -> list[str]:
        return [self.axis_name] + list(self.series)

    def render_text(self, chart: bool = True) -> str:
        table = format_table(self.headers(), self._rows(), title=self.title)
        if chart and self.series:
            drawing = ascii_chart(
                self.axis_values,
                self.series,
                log_scale=self.unit == "seconds",
                y_label=self.unit,
            )
            table += "\n" + drawing
        if self.notes:
            table += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return table

    def render_markdown(self) -> str:
        parts = [f"### {self.title}", ""]
        parts.append(f"*unit: {self.unit}*")
        parts.append("")
        parts.append(format_markdown_table(self.headers(), self._rows()))
        for note in self.notes:
            parts.append("")
            parts.append(f"> {note}")
        return "\n".join(parts)


def run_sweep(
    title: str,
    axis_name: str,
    axis_values: list[object],
    algorithms: dict[str, Callable[[object], object]],
    unit: str = "seconds",
    measure: str = "time",
    skip: Callable[[str, object], bool] | None = None,
    clock: "Clock | None" = None,
) -> SweepResult:
    """Execute a (parameter x algorithm) grid.

    ``algorithms`` maps a series name to a callable of the swept value.
    With ``measure="time"`` the series record wall seconds; with
    ``measure="value"`` the callable's float return value is recorded (the
    Exp-VII quality metric).  ``skip(name, x)`` marks points to omit.
    ``clock`` threads through to :func:`time_call` for deterministic tests.
    Each call runs inside its own :func:`~repro.utils.counters.counting`,
    and the counts it recorded are kept on the point.
    """
    result = SweepResult(title, axis_name, list(axis_values), unit=unit)
    for x in axis_values:
        for name, fn in algorithms.items():
            if skip is not None and skip(name, x):
                result.add_point(name, None)
                continue
            with counting() as tally:
                seconds, returned = time_call(lambda: fn(x), clock=clock)
            if measure == "time":
                value = round(seconds, 6)
            else:
                value = float(returned) if returned is not None else None
            result.add_point(name, value, dict(tally))
    return result
