"""Shared result container for streaming runs."""

from dataclasses import dataclass, field

import numpy as np

# per-column decisions of the streaming paths
ABSORBED = "absorbed"
REPRESENTED = "represented"


@dataclass
class RunReport:
    """What a single streaming pass did, measured against truth when given.

    per_column_error holds one l2 error per column (NaN where a column was
    flagged as an outlier and dropped from the recovery). Frobenius errors
    are computed over the kept columns only. entries_sampled charges d per
    column plus m - d per full read, with duplicate draws counted as
    requests. wall_time is informational and never serialized.
    """

    basis_size: int = 0
    columns_absorbed: int = 0
    entries_sampled: int = 0
    recovered_rank: int | None = None
    frob_rel_error: float | None = None
    frob_abs_error: float | None = None
    support_exact: bool | None = None
    per_column_error: np.ndarray | None = None
    wall_time: float = 0.0
    outlier_indices: list = field(default_factory=list)


def frobenius_error(recovered, truth, exclude_cols=()):
    """Relative and absolute Frobenius error over the kept columns.

    exclude_cols names columns dropped from the comparison (identified
    outliers, whose underlying values were never observable).
    """
    recovered = np.asarray(recovered, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if recovered.shape != truth.shape:
        raise ValueError("recovered and truth must have identical shapes")
    keep = np.ones(truth.shape[1], dtype=bool)
    for c in exclude_cols:
        keep[c] = False
    diff = recovered[:, keep] - truth[:, keep]
    abs_err = float(np.linalg.norm(diff))
    denom = float(np.linalg.norm(truth[:, keep]))
    rel = abs_err / denom if denom > 0 else (0.0 if abs_err == 0 else float("inf"))
    return rel, abs_err
