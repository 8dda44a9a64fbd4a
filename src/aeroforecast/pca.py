"""Principal component analysis in five explicit steps: standardize,
covariance, eigendecomposition, mapping-matrix construction, projection.

Default standardization is mean-centering only; z-scoring is available
as an option.  With raw-scale features (e.g. share volume) center-only
covariance lets the largest-variance feature dominate the first
component, which is the regime the explained-variance reports are
designed to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market_data import write_csv

SCALE_MODES = ("center-only", "z-score")


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray          # per-feature mean
    scale: np.ndarray         # per-feature divisor (ones in center-only mode)
    mapping: np.ndarray       # (k, n_features) rows of unit eigenvectors
    eigenvalues: np.ndarray   # all n_features eigenvalues, descending
    explained_ratio: np.ndarray  # eigenvalue_i / sum(eigenvalues)
    k: int

    @property
    def n_features(self) -> int:
        return self.mean.size


def fit_pca(data, k: int, scale_mode: str = "center-only") -> PcaModel:
    """Fit a PCA mapping of the top-k covariance eigenvectors.

    Covariance uses 1/(n-1) normalization on centered (optionally
    z-scored) data.  Eigenvectors are ordered by descending eigenvalue
    and sign-fixed so each one's largest-magnitude entry is positive,
    making serialized models reproducible.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n, m = X.shape
    if n < 2:
        raise ValueError(f"need more than one sample, got {n}")
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range [1, {m}]")
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains missing values")
    if scale_mode not in SCALE_MODES:
        raise ValueError(f"unknown scale_mode {scale_mode!r}")

    mean = X.mean(axis=0)
    if scale_mode == "z-score":
        scale = X.std(axis=0, ddof=1)
        dead = np.nonzero(scale == 0.0)[0]
        if dead.size:
            raise ValueError(
                f"constant feature(s) at column(s) {dead.tolist()} cannot be z-scored"
            )
    else:
        scale = np.ones(m)
    Z = (X - mean) / scale

    cov = (Z.T @ Z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # Round-off can push tiny eigenvalues below zero; clip within a
    # tolerance scaled to the spectrum and refuse anything worse.
    tol = 1e-10 * max(1.0, float(abs(eigvals[0])))
    if eigvals[-1] < -tol:
        raise ValueError(f"covariance eigenvalue {eigvals[-1]} is significantly negative")
    eigvals = np.clip(eigvals, 0.0, None)

    total = float(eigvals.sum())
    if total == 0.0:
        raise ValueError("degenerate data: zero total variance (all features constant)")

    mapping = eigvecs[:, :k].T.copy()
    for row in mapping:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    return PcaModel(
        mean=mean,
        scale=scale,
        mapping=mapping,
        eigenvalues=eigvals,
        explained_ratio=eigvals / total,
        k=k,
    )


def transform(model: PcaModel, data) -> np.ndarray:
    """Project data onto the retained components: ((X - mean)/scale) M^T."""
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"data has shape {X.shape}, model expects (*, {model.n_features})"
        )
    return ((X - model.mean) / model.scale) @ model.mapping.T


def inverse_transform(model: PcaModel, projected) -> np.ndarray:
    """Map projected coordinates back to the original feature space."""
    Y = np.asarray(projected, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != model.k:
        raise ValueError(f"projected data has shape {Y.shape}, model expects (*, {model.k})")
    return (Y @ model.mapping) * model.scale + model.mean


def explained_variance_rows(model: PcaModel):
    """(component, individual ratio, cumulative percent string) per
    original dimension; cumulative is rounded to two decimals."""
    rows = []
    cumulative = 0.0
    for i, ratio in enumerate(model.explained_ratio, start=1):
        cumulative += float(ratio)
        rows.append((i, float(ratio), f"{100.0 * cumulative:.2f}%"))
    return rows


def write_pca_report(path, model: PcaModel) -> None:
    """``pca_report.csv``: component, individual, cumulative_pct."""
    write_csv(path, ["component", "individual", "cumulative_pct"],
              explained_variance_rows(model))


def write_pca_scatter(path, projected) -> None:
    """``pca_scatter.csv``: one row of projected coordinates per sample."""
    projected = np.asarray(projected, dtype=float)
    write_csv(path, [f"pc{i + 1}" for i in range(projected.shape[1])],
              projected.tolist())
