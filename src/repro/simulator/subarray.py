"""Functional model of one CAM subarray.

A subarray stores up to ``rows × cols`` cells.  Patterns are written at a
row offset (selective-search placement stacks several pattern batches in
one subarray); a search computes per-row match scores over a row window
and either latches them or adds them into a local accumulator (the
digital accumulate peripheral the cam-density mapping relies on).

Searches accept either a single query (``C``) or a query batch (``B×C``).
A batched search streams the whole batch through the array: scores are
latched per query into a ``B×rows`` latch bank and read back with
:meth:`SubarrayState.read_batch` — the vectorized path behind
:class:`repro.runtime.session.QuerySession`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .cells import compute_scores, metric_prefers_larger


class SubarrayState:
    """Stored contents and search state of one subarray."""

    def __init__(self, rows: int, cols: int, subarray_id: int):
        self.rows = rows
        self.cols = cols
        self.id = subarray_id
        self._data = np.zeros((rows, cols), dtype=np.float64)
        self._valid = np.zeros(rows, dtype=bool)
        # Latched scores from the most recent (non-accumulating) search
        # or the accumulator contents, indexed by accumulator slot.  The
        # leading axis is the query-batch axis (size 1 for single-query
        # searches, kept 1-D compatible through read()).
        self._scores = np.zeros((1, rows), dtype=np.float64)
        self._scored_rows = 0
        self.writes = 0
        self.searches = 0

    # --------------------------------------------------------------- write
    def write(self, data: np.ndarray, row_offset: int = 0) -> int:
        """Program ``data`` (``r × c``) starting at ``row_offset``.

        Returns the number of rows written.  Raises when the write falls
        outside the physical geometry.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data[None, :]
        r, c = data.shape
        if row_offset < 0 or row_offset + r > self.rows:
            raise ValueError(
                f"write of {r} rows at offset {row_offset} exceeds "
                f"{self.rows}-row subarray"
            )
        if c > self.cols:
            raise ValueError(
                f"write of {c} columns exceeds {self.cols}-column subarray"
            )
        self._data[row_offset : row_offset + r, :c] = data
        self._valid[row_offset : row_offset + r] = True
        self.writes += 1
        return r

    def invalidate(self, row_offset: int = 0, row_count: int = 1) -> int:
        """Tombstone a row window: clear its valid bits and cell contents.

        A tombstoned row behaves exactly like a never-written one — the
        latch path reads it as the metric's no-match value and the
        accumulate path skips it.  Returns how many previously-valid rows
        the window held.  Raises when the window falls outside the
        physical geometry.
        """
        if row_offset < 0 or row_offset + row_count > self.rows:
            raise ValueError(
                f"invalidate of {row_count} rows at offset {row_offset} "
                f"exceeds {self.rows}-row subarray"
            )
        window = slice(row_offset, row_offset + row_count)
        cleared = int(self._valid[window].sum())
        self._valid[window] = False
        self._data[window] = 0.0
        self.writes += 1
        return cleared

    @property
    def valid_rows(self) -> int:
        """Number of rows holding written patterns."""
        return int(self._valid.sum())

    def row_contents(
        self, rows: np.ndarray, cols: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the given rows' first ``cols`` cells and valid bits.

        What a :class:`~repro.runtime.fused.FusedPlan` reads when it
        refreshes a slot; the valid bits are the ground truth it checks
        against the session's slot directory, because a fused kernel may
        only serve rows the machine itself would search.
        """
        return self._data[rows, :cols], self._valid[rows]

    # -------------------------------------------------------------- search
    def _ensure_batch(self, batch: int) -> None:
        """Size the latch bank for ``batch`` concurrent queries."""
        if self._scores.shape[0] != batch:
            self._scores = np.zeros((batch, self.rows), dtype=np.float64)
            self._scored_rows = 0

    def search(
        self,
        query: np.ndarray,
        metric: str,
        row_begin: int = 0,
        row_count: int = -1,
        accumulate: bool = False,
        noise=None,
    ) -> Tuple[np.ndarray, int]:
        """Search ``query`` against the row window.

        ``query`` is one query (``C``) or a batch (``B×C``); scores come
        back with a matching leading batch axis.  Returns
        ``(scores, active_rows)``.  With ``accumulate=True`` the scores
        are added into accumulator slots ``0..n-1`` (used when several
        column-slice batches are stacked in this subarray); otherwise the
        scores are latched at the physical position of their row — a hole
        in the valid mask leaves its latches at the metric's no-match
        value instead of shifting later rows up.  ``noise``, if given, is
        a callable ``shape -> ndarray`` producing additive per-row
        sensing noise (device variation modeling).
        """
        query = np.asarray(query, dtype=np.float64)
        batched = query.ndim > 1
        query = query.reshape(-1, query.shape[-1]) if batched \
            else query.reshape(-1)
        if query.shape[-1] > self.cols:
            raise ValueError(
                f"query of width {query.shape[-1]} exceeds "
                f"{self.cols}-column subarray"
            )
        if row_count < 0:
            row_count = self.rows - row_begin
        if row_begin < 0 or row_begin + row_count > self.rows:
            raise ValueError("search window exceeds subarray geometry")
        mask = self._valid[row_begin : row_begin + row_count]
        stored = self._data[
            row_begin : row_begin + row_count, : query.shape[-1]
        ]
        stored = stored[mask]
        scores = compute_scores(metric, stored, query)
        if noise is not None and scores.size:
            scores = scores + noise(scores.shape)
        n = scores.shape[-1]
        n_queries = scores.shape[0] if batched else 1
        scores_2d = scores if batched else scores[None, :]
        self._ensure_batch(n_queries)
        if accumulate:
            self._scores[:, :n] += scores_2d
            self._scored_rows = max(self._scored_rows, n)
        else:
            # Latch each score at its row's physical position; unwritten
            # rows inside the window must not report a (spurious) best
            # score, so their latches read as the metric's no-match value.
            positions = row_begin + np.flatnonzero(mask)
            window = slice(row_begin, row_begin + row_count)
            no_match = -np.inf if metric_prefers_larger(metric) else np.inf
            self._scores[:, window] = no_match
            self._scores[:, positions] = scores_2d
            self._scored_rows = max(self._scored_rows, row_begin + row_count)
        self.searches += n_queries
        return scores, n

    def read(self, rows: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Read latched scores of the last single query:
        ``(values, local_row_indices)``."""
        values, indices = self.read_batch(rows)
        return values[0], indices

    def read_batch(
        self, rows: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read the latch bank: ``(B×rows values, local_row_indices)``."""
        n = self._scored_rows if rows is None else rows
        values = self._scores[:, :n].copy()
        indices = np.arange(n, dtype=np.int64)
        return values, indices

    def clear_scores(self) -> None:
        """Reset the accumulator/latches (start of a new query)."""
        if self._scores.shape[0] == 1:
            self._scores[:] = 0.0   # hot path: no reallocation per query
        else:
            self._scores = np.zeros((1, self.rows), dtype=np.float64)
        self._scored_rows = 0
