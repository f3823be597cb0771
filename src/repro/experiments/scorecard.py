"""The reproduction scorecard: every headline number in one table.

Runs the paper's primary experiments and renders measured values next
to the paper's, with a coarse shape verdict per row — the one-command
answer to "does this reproduction hold up?".  ``repro scorecard`` exits
1 when any row's shape fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments import baseline, fig1, fig6, table1, table2
from repro.experiments.report import format_table

#: Paper reference values (see EXPERIMENTS.md for sources).
PAPER = {
    "baseline html not multiplexed (%)": 32,
    "table1 not multiplexed @50ms (%)": 54,
    "table1 retransmissions grow with jitter": True,
    "fig1 sequential sizes recovered": True,
    "fig1 pipelined sizes recovered": False,
    "fig6 drop-phase success (%)": 90,
    "table2 single-object HTML (%)": 100,
    "table2 sequence I1 (%)": 90,
    "table2 sequence tail declines": True,
}


@dataclass
class ScorecardRow:
    metric: str
    paper: str
    measured: str
    shape_holds: bool


@dataclass
class Scorecard:
    rows_data: List[ScorecardRow] = field(default_factory=list)

    def add(self, metric: str, paper, measured, shape_holds: bool) -> None:
        self.rows_data.append(
            ScorecardRow(metric, str(paper), str(measured), shape_holds)
        )

    @property
    def all_shapes_hold(self) -> bool:
        return all(row.shape_holds for row in self.rows_data)

    def rows(self) -> List[List[str]]:
        return [
            [row.metric, row.paper, row.measured,
             "✓" if row.shape_holds else "✗"]
            for row in self.rows_data
        ]

    def render(self) -> str:
        verdict = (
            "all shapes hold" if self.all_shapes_hold
            else "SHAPE DIVERGENCE — inspect rows marked ✗"
        )
        return format_table(
            ["metric", "paper", "measured", "shape"],
            self.rows(),
            title="Reproduction scorecard",
        ) + f"\n{verdict}"


def run(trials: int = 15, seed: int = 7,
        workers: Optional[int] = None) -> Scorecard:
    """Run the primary experiments and score them against the paper."""
    card = Scorecard()

    figure1 = fig1.run(seed=seed)
    card.add(
        "Fig 1: sequential sizes recovered", "yes",
        "yes" if figure1.sequential.both_identified else "no",
        figure1.sequential.both_identified,
    )
    card.add(
        "Fig 1: pipelined sizes recovered", "no",
        "yes" if figure1.pipelined.both_identified else "no",
        not figure1.pipelined.both_identified,
    )

    base = baseline.run(trials=trials, seed=seed, workers=workers)
    measured_pct = base.html_not_multiplexed_pct
    card.add(
        "baseline: HTML not multiplexed",
        f"{PAPER['baseline html not multiplexed (%)']}%",
        f"{measured_pct:.0f}%",
        5.0 <= measured_pct <= 60.0,
    )
    card.add(
        "baseline: images heavily multiplexed", "0.80–0.99",
        f"{base.image_mean_degree:.2f}",
        base.image_mean_degree >= 0.6,
    )

    jitter = table1.run(trials=trials, seed=seed, workers=workers)
    at_50 = jitter.rows_data[2]
    card.add(
        "Table I: not multiplexed @50 ms",
        f"{PAPER['table1 not multiplexed @50ms (%)']}%",
        f"{at_50.not_multiplexed_pct:.0f}%",
        at_50.not_multiplexed_pct > jitter.rows_data[0].not_multiplexed_pct,
    )
    counts = [row.retransmissions for row in jitter.rows_data]
    card.add(
        "Table I: retransmissions grow with jitter", "+33/130/194%",
        "/".join(str(count) for count in counts),
        counts == sorted(counts) and counts[-1] > counts[0],
    )

    drops = fig6.run(trials=trials, seed=seed, drop_rates=(0.8,),
                     workers=workers)
    success = drops.rows_data[0].success_pct
    card.add(
        "§IV-D: success at 80% drops",
        f"{PAPER['fig6 drop-phase success (%)']}%",
        f"{success:.0f}%",
        success >= 70.0,
    )

    accuracy = table2.run(trials=trials, seed=seed, workers=workers)
    card.add(
        "Table II: single-object HTML",
        f"{PAPER['table2 single-object HTML (%)']}%",
        f"{accuracy.single_pct('HTML'):.0f}%",
        accuracy.single_pct("HTML") >= 90.0,
    )
    card.add(
        "Table II: sequence I1",
        f"{PAPER['table2 sequence I1 (%)']}%",
        f"{accuracy.sequence_pct('I1'):.0f}%",
        accuracy.sequence_pct("I1") >= 60.0,
    )
    early = sum(accuracy.sequence_pct(f"I{i}") for i in (1, 2, 3, 4)) / 4
    late = sum(accuracy.sequence_pct(f"I{i}") for i in (5, 6, 7, 8)) / 4
    card.add(
        "Table II: sequence tail declines", "90 → 62-64%",
        f"{early:.0f}% → {late:.0f}%",
        early >= late,
    )
    return card
