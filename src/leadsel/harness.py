"""Seeded experiment pipeline: episodes, message audits, benchmark reports.

Reproducibility: every instance and episode seed is derived from the
master seed with blake2b over a tagged tuple, so results are independent
of worker parallelism and stable across platforms. Score sampling uses
``random.Random.randint`` (Mersenne Twister with rejection sampling over
{0..10}), which CPython guarantees stable across versions.
"""
from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Optional, Sequence

from .exhaustive import solve_exhaustive
from .model import SCORE_MAX, Instance, generate_instance, leader_candidates
from .protocol import BROADCAST, P2P, EpisodeOutcome, ProtocolConfig, run_episode


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit child seed from the master seed and a tag tuple."""
    text = repr((master_seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def rho_rule(inst: Instance, rule: str):
    """Threshold selection rules the devices could agree on.

    ``mean``: arithmetic mean of the willingness scores (may be fractional).
    ``half_n``: smallest integer threshold keeping at most n//2 candidates.
    """
    if rule == "mean":
        mean = statistics.fmean(inst.lii_of(n) for n in inst.ue_ids)
        return int(mean) if mean.is_integer() else mean
    if rule == "half_n":
        for rho in range(SCORE_MAX):
            if len(leader_candidates(inst, rho, inst.ue_ids)) <= inst.n // 2:
                return rho
        return SCORE_MAX  # nobody clears it
    raise ValueError(f"unknown rho rule {rule!r}")


def broadcast_bound(n: int, l: int) -> int:
    return 3 * n + l - 2


def p2p_bound(n: int, l: int) -> int:
    return n * (n + 1) + l * (l - 1) - 2


def message_bound(n: int, l: int, transport: str) -> int:
    """Worst-case protocol messages for n UEs and l phase-1 candidates."""
    if transport == BROADCAST:
        return broadcast_bound(n, l)
    if transport == P2P:
        return p2p_bound(n, l)
    raise ValueError(f"unknown transport {transport!r}")


def check_message_bounds(outcome: EpisodeOutcome, n: int, l: int,
                         transport: str) -> bool:
    """Protocol traffic (fallback excluded) against the analytic worst case."""
    return outcome.protocol_messages <= message_bound(n, l, transport)


@dataclass(frozen=True)
class LeaderSizeStats:
    """Empirical leader-set-size distribution with a moment Gaussian fit."""
    bins: Mapping  # size -> count

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "LeaderSizeStats":
        bins = Counter(sizes)
        if not bins:
            raise ValueError("need at least one sample")
        return cls(dict(bins))

    @property
    def count(self) -> int:
        return sum(self.bins.values())

    @property
    def mean(self) -> float:
        return sum(s * c for s, c in self.bins.items()) / self.count

    @property
    def variance(self) -> float:
        mu = self.mean
        return sum(c * (s - mu) ** 2 for s, c in self.bins.items()) / self.count

    def to_json_dict(self, method: str, n: int) -> dict:
        return {
            "method": method,
            "n": n,
            "bins": {str(s): c for s, c in sorted(self.bins.items())},
            "fit": {"mean": self.mean, "var": self.variance},
        }


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: Sequence[int]
    instances_per_n: int = 100
    rho_values: Sequence = tuple(range(10))
    master_seed: int = 0
    modes: Sequence[str] = (BROADCAST,)
    optimal_rho: ClassVar = 0  # the exact reference's threshold
    timing_reps: int = 3
    jobs: int = 1

    def __post_init__(self):
        if not self.n_values or not self.rho_values or not self.modes:
            raise ValueError("n_values, rho_values and modes must be non-empty")
        if self.instances_per_n < 1:
            raise ValueError("instances_per_n must be >= 1")
        if self.timing_reps < 1:
            raise ValueError("timing_reps must be >= 1")
        for mode in self.modes:
            if mode not in (BROADCAST, P2P):
                raise ValueError(f"unknown transport {mode!r}")


@dataclass(frozen=True)
class ReportRow:
    n: int
    rho: object
    transport: str
    mean_util_dist: float
    mean_util_opt: float
    gap_pct: float
    mean_l_dist: float
    mean_l_opt: float
    msgs_mean: float
    msgs_bound: float
    t_dist_us: float
    t_opt_us: float
    speedup: float


CSV_COLUMNS = ("n", "rho", "mean_util_dist", "mean_util_opt", "gap_pct",
               "mean_L_dist", "mean_L_opt", "msgs_mean", "msgs_bound",
               "t_dist_us", "t_opt_us", "speedup")
TIMING_COLUMNS = ("t_dist_us", "t_opt_us", "speedup")


@dataclass
class BenchmarkReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    histograms: dict = field(default_factory=dict)  # (method, n) -> stats

    def csv_text(self, transport: Optional[str] = None,
                 include_timing: bool = True) -> str:
        cols = CSV_COLUMNS if include_timing else tuple(
            c for c in CSV_COLUMNS if c not in TIMING_COLUMNS)
        lines = [",".join(cols)]
        for r in self.rows:
            if transport is not None and r.transport != transport:
                continue
            values = {
                "n": r.n, "rho": r.rho,
                "mean_util_dist": round(r.mean_util_dist, 4),
                "mean_util_opt": round(r.mean_util_opt, 4),
                "gap_pct": round(r.gap_pct, 2),
                "mean_L_dist": round(r.mean_l_dist, 4),
                "mean_L_opt": round(r.mean_l_opt, 4),
                "msgs_mean": round(r.msgs_mean, 2),
                "msgs_bound": round(r.msgs_bound, 2),
                "t_dist_us": round(r.t_dist_us, 1),
                "t_opt_us": round(r.t_opt_us, 1),
                "speedup": round(r.speedup, 1),
            }
            lines.append(",".join(str(values[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def write(self, outdir) -> None:
        import json
        import os
        os.makedirs(outdir, exist_ok=True)
        for mode in self.config.modes:
            with open(os.path.join(outdir, f"report_{mode}.csv"), "w") as fh:
                fh.write(self.csv_text(transport=mode))
        for (method, n), stats in sorted(self.histograms.items()):
            path = os.path.join(outdir, f"hist_{method}_n{n}.json")
            with open(path, "w") as fh:
                json.dump(stats.to_json_dict(method, n), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
        self._write_dat_files(outdir)

    def _write_dat_files(self, outdir) -> None:
        import os
        mode = self.config.modes[0]
        header = (f"# master_seed={self.config.master_seed} transport={mode}\n"
                  "# distributed histogram pools all rho values with equal "
                  "weight\n")
        for n in self.config.n_values:
            rows = [r for r in self.rows if r.n == n and r.transport == mode]
            with open(os.path.join(outdir, f"sweep_util_n{n}.dat"), "w") as fh:
                fh.write(header + "# rho mean_util_dist mean_util_opt\n")
                for r in rows:
                    fh.write(f"{r.rho} {r.mean_util_dist:.4f} "
                             f"{r.mean_util_opt:.4f}\n")
            with open(os.path.join(outdir, f"sweep_L_n{n}.dat"), "w") as fh:
                fh.write(header + "# rho mean_L_dist mean_L_opt\n")
                for r in rows:
                    fh.write(f"{r.rho} {r.mean_l_dist:.4f} {r.mean_l_opt:.4f}\n")


def _timed(fn, reps: int) -> tuple:
    """One call's result, and the median seconds of ``reps`` more calls."""
    result = fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def _bench_instance(args):
    cfg, n, idx = args
    inst = generate_instance(n, derive_seed(cfg.master_seed, "inst", n, idx))
    opt, t_opt = _timed(lambda: solve_exhaustive(inst, cfg.optimal_rho),
                        cfg.timing_reps)
    episodes = {}
    for mode in cfg.modes:
        for rho in cfg.rho_values:
            pcfg = ProtocolConfig(rho=rho, transport=mode)
            seed = derive_seed(cfg.master_seed, "ep", n, idx, rho, mode)
            outcome, t_dist = _timed(lambda: run_episode(inst, pcfg, seed),
                                     cfg.timing_reps)
            l = len(outcome.leader_set_phase1)
            episodes[(mode, rho)] = {
                "utility": outcome.utility,
                "leaders": len(outcome.assignment.leaders),
                "msgs": outcome.protocol_messages,
                "bound": message_bound(n, l, mode),
                "t_dist": t_dist,
            }
    return {
        "opt_utility": opt.utility,
        "opt_leaders": len(opt.assignment.leaders),
        "t_opt": t_opt,
        "episodes": episodes,
    }


def run_benchmark(cfg: ExperimentConfig) -> BenchmarkReport:
    """Full benchmark grid: optimal reference plus per-rho episodes."""
    report = BenchmarkReport(config=cfg)
    for n in cfg.n_values:
        work = [(cfg, n, idx) for idx in range(cfg.instances_per_n)]
        if cfg.jobs > 1:
            # imported here: the pool machinery costs every other run
            # about 1 MB and 10 ms of start-up
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                results = list(pool.map(_bench_instance, work))
        else:
            results = [_bench_instance(w) for w in work]

        opt_utils = [r["opt_utility"] for r in results]
        opt_sizes = [r["opt_leaders"] for r in results]
        mean_opt = statistics.fmean(opt_utils)
        t_opt_us = statistics.fmean(r["t_opt"] for r in results) * 1e6
        report.histograms[("optimal", n)] = LeaderSizeStats.from_sizes(opt_sizes)

        dist_sizes_pooled = []
        for mode in cfg.modes:
            for rho in cfg.rho_values:
                eps = [r["episodes"][(mode, rho)] for r in results]
                mean_dist = statistics.fmean(e["utility"] for e in eps)
                t_dist_us = statistics.fmean(e["t_dist"] for e in eps) * 1e6
                gap = ((mean_dist - mean_opt) / mean_opt * 100.0
                       if mean_opt else 0.0)
                report.rows.append(ReportRow(
                    n=n, rho=rho, transport=mode,
                    mean_util_dist=mean_dist, mean_util_opt=mean_opt,
                    gap_pct=gap,
                    mean_l_dist=statistics.fmean(e["leaders"] for e in eps),
                    mean_l_opt=statistics.fmean(opt_sizes),
                    msgs_mean=statistics.fmean(e["msgs"] for e in eps),
                    msgs_bound=statistics.fmean(e["bound"] for e in eps),
                    t_dist_us=t_dist_us, t_opt_us=t_opt_us,
                    speedup=t_opt_us / t_dist_us if t_dist_us else float("inf"),
                ))
                if mode == cfg.modes[0]:
                    dist_sizes_pooled.extend(e["leaders"] for e in eps)
        report.histograms[("distributed", n)] = LeaderSizeStats.from_sizes(
            dist_sizes_pooled)
    return report
