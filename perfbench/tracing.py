"""Spans around the program's layers, recorded from outside the program.

A Tracer patches public functions and methods of hifde where they are looked
up (``driver`` and ``factor_ops`` import kernels by name, so each name is
patched in the importing module), records one span per call (name, start,
end, parent) in memory, and sums total time, self time and calls per span
name. ``install`` applies the patches and ``restore`` undoes them.

The per-layer metrics and the per-level table are built from these sums,
from counts computed from the block shapes a kernel was given, and from the
factor's public ``levels`` and ``metrics``.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import hifde.driver as driver
import hifde.factor_ops as factor_ops
from hifde.sparse import SparseSymMatrix

SPARSE_METHODS = ("gather", "neighbors", "replace_rows", "drop_cols", "clear_rows")


def qr_id_flops(m: int, n: int, k: int) -> float:
    """Flops of a column ID of an m x n block at rank k: pivoted QR
    (LAPACK geqp3), forming the economic Q (orgqr), and the k x k
    triangular solve for the interpolation matrix."""
    p = min(m, n)
    qr = 2.0 * n * n * (m - n / 3.0) if m >= n else 2.0 * m * m * (n - m / 3.0)
    q = 2.0 * m * p * p - 2.0 * p ** 3 / 3.0
    return qr + q + float(k) * k * (n - k)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[list] = []         # [span index, seconds of children]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.level = None                    # tag of the group being skeletonized
        self.id_by_level = defaultdict(list)  # tag -> [(rank, columns, resid)]
        self._patches: list[tuple] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.total[span[0]] += dur
        self.self_time[span[0]] += dur - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call; the hooks see its arguments."""
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, before, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- hooks ---------------------------------------------------------------

    def _gather_done(self, args, kwargs, out) -> None:
        self.counts["gather_bytes"] += 8.0 * out.shape[0] * out.shape[1]

    def _ldl_done(self, args, kwargs, out) -> None:
        self.counts["ldl_flops"] += out.n ** 3 / 3.0

    def _id_done(self, args, kwargs, out) -> None:
        rows, cols = np.shape(args[0])
        self.counts["id_flops"] += qr_id_flops(rows, cols, out.k)
        self.counts["id_rank"] += out.k
        self.counts["id_cols"] += cols
        self.id_by_level[self.level].append((out.k, cols, out.resid))

    def _skel_start(self, args, kwargs) -> None:
        # skeletonize_cell(a, state, c, eps, level, spd)
        self.level = args[4] if len(args) > 4 else kwargs["level"]

    def install(self) -> None:
        for meth in SPARSE_METHODS:
            self.patch(SparseSymMatrix, meth, f"sparse.{meth}",
                       after=self._gather_done if meth == "gather" else None)
        self.patch(factor_ops, "ldl", "dense.ldl", after=self._ldl_done)
        self.patch(driver, "ldl", "dense.ldl", after=self._ldl_done)
        self.patch(factor_ops, "interpolative_decomposition", "dense.id", after=self._id_done)
        self.patch(driver, "eliminate_cell", "factor_ops.eliminate")
        self.patch(driver, "skeletonize_cell", "factor_ops.skeletonize", before=self._skel_start)
        self.patch(driver, "interior_cells", "partition.cells")
        self.patch(driver, "interface_cells", "partition.cells")
        self.patch(driver, "adaptive_interior_cells", "partition.adaptive")
        self.patch(driver.GeneralizedLDL, "apply_inverse", "driver.apply_inverse")

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (s, from the first
        span's start) and the index of the parent span (-1 for none)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent]))
                fh.write("\n")


def level_kind(algo: str, dim: int, tag: float) -> str:
    frac = tag - int(tag)
    if frac == 0.0:
        return "elimination"
    if algo == "hifde3x":
        return "skel-face" if frac < 0.5 else "skel-edge"
    return "skel-edge" if dim == 2 else "skel-face"


def level_table(f, tracer: Tracer, algo: str) -> list[dict]:
    """One row per level tag, from the factor's levels and metrics plus the
    ID residuals the tracer saw."""
    active = f.metrics["active_trace"]           # [(-1, N), (tag, active after), ...]
    seconds = dict(f.metrics["level_seconds"])
    rows = []
    for i, lf in enumerate(f.levels):
        kind = level_kind(algo, f.dim, lf.level)
        row = {"tag": round(lf.level, 4), "kind": kind, "groups": len(lf.records),
               "active_before": active[i][1], "active_after": active[i + 1][1],
               "eliminated": lf.eliminated_count(),
               "rank_min": None, "rank_mean": None, "rank_max": None, "id_resid_max": None,
               "seconds": seconds[lf.level]}
        if kind != "elimination" and lf.records:
            ranks = [len(rec.sk) for rec in lf.records]
            row.update(rank_min=min(ranks), rank_mean=round(float(np.mean(ranks)), 2),
                       rank_max=max(ranks))
            ids = tracer.id_by_level.get(lf.level, [])
            if ids:
                row["id_resid_max"] = max(r for _, _, r in ids)
        rows.append(row)
    return rows


def format_table(rows: list[dict]) -> str:
    head = ("tag", "kind", "groups", "active_before", "active_after", "eliminated",
            "rank_min", "rank_mean", "rank_max", "id_resid_max", "seconds")
    lines = ["  ".join(f"{h:>13}" for h in head)]
    for r in rows:
        cells = []
        for h in head:
            v = r[h]
            if v is None:
                cells.append(f"{'-':>13}")
            elif isinstance(v, float) and h in ("id_resid_max", "seconds"):
                cells.append(f"{v:13.3e}" if h == "id_resid_max" else f"{v:13.4f}")
            else:
                cells.append(f"{v:>13}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def layer_metrics(tracer: Tracer, f, t_factor_plain: float, file_bytes: int) -> dict:
    """Per-layer metrics of one traced round, named by the program's modules."""
    tot, slf, calls, cnt = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    level_s = f.metrics["level_seconds"]
    elim_s = sum(s for tag, s in level_s if tag == int(tag))
    skel_s = sum(s for tag, s in level_s if tag != int(tag))
    part_s = tot["partition.cells"] + tot["partition.adaptive"]
    ids = [x for v in tracer.id_by_level.values() for x in v]
    out = {
        "discretize.assemble_s": (tot["discretize.assemble"], "s"),
        "partition.cells_s": (tot["partition.cells"], "s"),
        "partition.total_s": (part_s, "s"),
        "partition.adaptive_calls": (calls["partition.adaptive"], "count"),
    }
    for meth in SPARSE_METHODS:
        out[f"sparse.{meth}_s"] = (tot[f"sparse.{meth}"], "s")
    out["sparse.gather_calls"] = (calls["sparse.gather"], "count")
    out["sparse.gather_mb"] = (cnt["gather_bytes"] / 1e6, "MB")
    out.update({
        "dense.ldl_s": (tot["dense.ldl"], "s"),
        "dense.ldl_calls": (calls["dense.ldl"], "count"),
        "dense.ldl_gflop": (cnt["ldl_flops"] / 1e9, "GFLOP"),
        "dense.id_s": (tot["dense.id"], "s"),
        "dense.id_calls": (calls["dense.id"], "count"),
        "dense.id_gflop": (cnt["id_flops"] / 1e9, "GFLOP"),
        "dense.id_rank_ratio": (cnt["id_rank"] / cnt["id_cols"] if cnt["id_cols"] else 0.0, "ratio"),
        "dense.id_resid_max": (max((r for _, _, r in ids), default=0.0), "ratio"),
        "factor_ops.eliminate_s": (tot["factor_ops.eliminate"], "s"),
        "factor_ops.eliminate_self_s": (slf["factor_ops.eliminate"], "s"),
        "factor_ops.eliminate_calls": (calls["factor_ops.eliminate"], "count"),
        "factor_ops.skeletonize_s": (tot["factor_ops.skeletonize"], "s"),
        "factor_ops.skeletonize_self_s": (slf["factor_ops.skeletonize"], "s"),
        "factor_ops.skeletonize_calls": (calls["factor_ops.skeletonize"], "count"),
        "driver.level_elim_s": (elim_s, "s"),
        "driver.level_skel_s": (skel_s, "s"),
        # the factor's time outside its levels and outside partitioning
        # (the driver partitions before it starts a level's clock): set-up,
        # the top block and the final accounting
        "driver.top_s": (f.metrics["t_f_seconds"] - elim_s - skel_s - part_s, "s"),
        "driver.records": (sum(len(lf.records) for lf in f.levels), "count"),
        "driver.apply_inverse_s": (tot["driver.apply_inverse"], "s"),
        "driver.apply_inverse_calls": (calls["driver.apply_inverse"], "count"),
        "driver.save_s": (tot["driver.save"], "s"),
        "driver.file_mb": (file_bytes / 1e6, "MB"),
        "krylov.solve_s": (tot["krylov.solve"], "s"),
        "krylov.matvec_s": (tot["krylov.matvec"], "s"),
        "krylov.precond_s": (tot["krylov.precond"], "s"),
        "krylov.self_s": (slf["krylov.solve"], "s"),
        "trace.overhead_s": (tot["driver.factor"] - t_factor_plain, "s"),
    })
    return out
