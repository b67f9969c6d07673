"""Autocovariance, effective sample size, and benchmark run summaries.

ESS follows the initial positive monotone sequence construction: pair the
empirical autocorrelations as Gamma_m = rho(2m) + rho(2m+1), truncate at the
first nonpositive pair, force the sequence nonincreasing, and set
ESS = T / (-1 + 2 * sum Gamma_m), clipped to [1, T].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

logger = logging.getLogger(__name__)

MAX_ESS_LAG = 10_000

# Aggregate benchmark table header, fixed so downstream parsing is stable.
TABLE_COLUMNS = (
    "Method",
    "Time(s)",
    "Step δ",
    "ESS Min",
    "ESS Med",
    "ESS Max",
    "Min ESS/s",
    "Min ESS/s s.d.",
)

REPORT_SCHEMA_VERSION = 1


def autocovariance(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Biased (1/T normalized) empirical autocovariance up to max_lag.

    The default lag cap is min(T-1, 10000).  Computed by FFT; a constant
    series returns exact zeros.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    t = x.shape[0]
    if t < 10:
        raise ValueError(f"series too short for autocovariance: length {t} < 10")
    if max_lag is None:
        max_lag = min(t - 1, MAX_ESS_LAG)
    if not 0 <= max_lag < t:
        raise ValueError(f"max_lag must be in [0, {t - 1}], got {max_lag!r}")
    centered = x - x.mean()
    if not np.any(centered):
        return np.zeros(max_lag + 1)
    nfft = next_fast_len(2 * t)
    spec = rfft(centered, nfft)
    acov = irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    return acov / t


def ess_geyer(series: np.ndarray) -> float:
    """Effective sample size of a scalar chain.

    Zero-variance input is degenerate: flagged with a warning and reported
    as T (every sample as informative as the last, by convention).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be one-dimensional, got shape {x.shape}")
    t = x.shape[0]
    if t < 100:
        raise ValueError(f"series too short for ESS: length {t} < 100")
    acov = autocovariance(x)
    if acov[0] <= 0.0:
        logger.warning("degenerate series (zero variance); reporting ESS = T = %d", t)
        return float(t)
    rho = acov / acov[0]
    n_pairs = rho.shape[0] // 2
    pair_sums = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    nonpositive = np.nonzero(pair_sums <= 0.0)[0]
    if nonpositive.size:
        pair_sums = pair_sums[: nonpositive[0]]
    pair_sums = np.minimum.accumulate(pair_sums)
    tau = -1.0 + 2.0 * pair_sums.sum()
    if tau <= 0.0:
        return float(t)
    return float(np.clip(t / tau, 1.0, t))


@dataclass
class RunReport:
    """Everything reported about one (sampler, seed) benchmark run."""

    method: str
    seed: int
    delta: float | None
    kappa: float | None
    collect_seconds: float
    burn_in_seconds: float
    ess_min: float
    ess_median: float
    ess_max: float
    acceptance_rate: float
    matvecs: int
    factorizations: int
    n_samples: int
    dimension: int
    degenerate_coords: int = 0
    warning: str | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def min_ess_per_second(self) -> float:
        return self.ess_min / self.collect_seconds if self.collect_seconds > 0 else float("nan")

    @property
    def min_ess_per_second_total(self) -> float:
        total = self.collect_seconds + self.burn_in_seconds
        return self.ess_min / total if total > 0 else float("nan")

    def to_json_dict(self) -> dict:
        """Every field but ``extra``, the schema version and both ESS rates, then ``extra``'s entries."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        out.update(
            schema_version=REPORT_SCHEMA_VERSION,
            min_ess_per_second=self.min_ess_per_second,
            min_ess_per_second_total=self.min_ess_per_second_total,
        )
        out.update(self.extra)
        return out


def summarize_run(
    samples: np.ndarray,
    method: str,
    seed: int,
    delta: float | None,
    collect_seconds: float,
    burn_in_seconds: float,
    acceptance_rate: float,
    matvecs: int,
    factorizations: int,
    kappa: float | None = None,
    warning: str | None = None,
    extra: dict | None = None,
) -> RunReport:
    """Per-coordinate ESS of a T x n sample matrix folded into a RunReport."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be T x n, got shape {samples.shape}")
    t, n = samples.shape
    ess = np.empty(n)
    degenerate = 0
    for i in range(n):
        column = samples[:, i]
        if column.max() == column.min():
            degenerate += 1
            ess[i] = float(t)
        else:
            ess[i] = ess_geyer(column)
    return RunReport(
        method=method,
        seed=seed,
        delta=delta,
        kappa=kappa,
        collect_seconds=collect_seconds,
        burn_in_seconds=burn_in_seconds,
        ess_min=float(ess.min()),
        ess_median=float(np.median(ess)),
        ess_max=float(ess.max()),
        acceptance_rate=acceptance_rate,
        matvecs=matvecs,
        factorizations=factorizations,
        n_samples=t,
        dimension=n,
        degenerate_coords=degenerate,
        warning=warning,
        extra=extra or {},
    )


def aggregate_reports(reports: list[RunReport]) -> list[dict]:
    """Collapse per-seed reports into one benchmark-table row per method.

    Produces means across seeds for time, step size, and the ESS columns,
    plus mean and standard deviation of Min ESS/s, keyed by TABLE_COLUMNS.
    """
    rows = []
    seen: list[str] = []
    for report in reports:
        if report.method not in seen and report.error is None:
            seen.append(report.method)
    for method in seen:
        group = [r for r in reports if r.method == method and r.error is None]
        mins_per_sec = np.array([r.min_ess_per_second for r in group])
        deltas = [r.delta for r in group if r.delta is not None]
        rows.append(
            {
                "Method": method,
                "Time(s)": float(np.mean([r.collect_seconds for r in group])),
                "Step δ": float(np.mean(deltas)) if deltas else None,
                "ESS Min": float(np.mean([r.ess_min for r in group])),
                "ESS Med": float(np.mean([r.ess_median for r in group])),
                "ESS Max": float(np.mean([r.ess_max for r in group])),
                "Min ESS/s": float(np.mean(mins_per_sec)),
                "Min ESS/s s.d.": float(np.std(mins_per_sec, ddof=1)) if len(group) > 1 else 0.0,
            }
        )
    return rows
