"""Score classifier predictions into the eight-criterion decision matrix.

Each model's out-of-fold scores become one row of accuracy, AUC,
precision, recall, specificity, F1 (benefit criteria) plus false
positive and false negative rates (cost criteria).
"""

import numpy as np

from coughrank.metrics import (
    PredictionSet,
    build_decision_matrix,
    evaluate,
    threshold_sweep,
)

rng = np.random.default_rng(1)
n = 120
labels = rng.integers(0, 2, n)
labels[:2] = [0, 1]
ids = [f"s{i:03d}" for i in range(n)]

# three synthetic models of decreasing quality
reports = {}
for name, sep in (("strong", 0.8), ("middling", 0.45), ("weak", 0.15)):
    scores = np.clip(0.5 + (labels - 0.5) * sep + rng.normal(0, 0.15, n), 0.01, 0.99)
    best_t = threshold_sweep(labels, scores, objective="f1")
    preds = PredictionSet(name, "1", ids, labels, scores, threshold=best_t)
    reports[name] = evaluate(preds)
    print(f"{name:9s} threshold {best_t:.2f}  auc {reports[name].auc:.3f}  f1 {reports[name].f1:.3f}")

dm = build_decision_matrix(reports)
print("\ndecision matrix (rows = models, columns = criteria):")
print("          " + "  ".join(f"{c.name:>6s}" for c in dm.criteria))
for name, row in zip(dm.alternatives, dm.values):
    print(f"{name:9s} " + "  ".join(f"{v:6.3f}" for v in row))
print("cost criteria:", [c.name for c in dm.criteria if c.direction == "cost"])
