"""Fuse per-strategy TOPSIS rankings with soft and hard ensembles.

The soft ensemble averages each model's closeness over the three
training strategies. The hard ensemble converts each strategy's
ranking into points (best of m models earns m) and sums them.
"""

from pathlib import Path

from coughrank.ensemble import rank
from coughrank.metrics import DEFAULT_CRITERIA
from coughrank.tables import read_decision_matrix

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

for category in ("asymptomatic", "symptomatic"):
    # entropy weights and TOPSIS per strategy, then both ensembles
    ranking = rank({
        str(s): read_decision_matrix(
            DATA / f"decision_matrix_{category}_strategy{s}.csv",
            list(DEFAULT_CRITERIA),
        )
        for s in (1, 2, 3)
    })
    models, closeness = ranking.closeness.models, ranking.closeness.closeness
    result = ranking.ensemble

    print(f"\n=== {category} recordings ===")
    print("model          C_s1   C_s2   C_s3   soft   points  total")
    for i, model in enumerate(models):
        pts = "+".join(str(p) for p in result.hard_points[i])
        print(
            f"{model:12s} {closeness[i, 0]:6.3f} {closeness[i, 1]:6.3f}"
            f" {closeness[i, 2]:6.3f} {result.soft_scores[i]:6.3f}"
            f"  {pts:8s} {result.hard_totals[i]:3d}"
        )
    print(f"soft ensemble winner: {result.soft_best}")
    print(f"hard ensemble winner: {result.hard_best}")
