"""CAM cell models: encoding and distance semantics per CAM type.

The cell type determines how patterns are stored and which distance the
match lines realise (paper §II-B):

* **BCAM/TCAM** — one bit per cell, bit-wise Hamming distance; TCAM adds
  the don't-care state ``x`` that matches both 0 and 1.
* **MCAM** — multi-bit cells; mismatch per cell is counted on the
  discretised values (multi-state Hamming), enabling multi-bit HDC and
  dot-product-style similarity à la iMARS.
* **ACAM** — analog ranges per cell; a query matches a cell when it falls
  inside the stored ``[lo, hi]`` range, the distance is how far outside.
"""

from __future__ import annotations

import numpy as np

#: TCAM don't-care marker in stored codes.  NaN never collides with real
#: data (bipolar ±1 hypervectors and quantized levels are all finite).
DONT_CARE = float("nan")


def is_dont_care(stored: np.ndarray) -> np.ndarray:
    """Boolean mask of don't-care cells."""
    return np.isnan(stored)


def quantize(data: np.ndarray, bits: int) -> np.ndarray:
    """Uniformly quantize float data to ``2**bits`` integer levels.

    The range is taken from the data itself (symmetric min/max), matching
    the per-tensor calibration the HDC/KNN apps use.  Integer inputs are
    clipped to the level range but otherwise preserved.
    """
    levels = 1 << bits
    if np.issubdtype(data.dtype, np.integer):
        return np.clip(data, 0, levels - 1).astype(np.int64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        return np.zeros(data.shape, dtype=np.int64)
    scaled = (data - lo) / (hi - lo) * (levels - 1)
    return np.clip(np.rint(scaled), 0, levels - 1).astype(np.int64)


#: Per-cell terms one scoring block may hold: ``2**15`` float64
#: (256 KiB), so a block's temporary stays resident in a core's L2
#: cache while it is written, squared and reduced.  A ``B×C`` batch
#: against an ``R×C`` store is scored ``BLOCK_ELEMENTS // (R*C)``
#: queries at a time (at least one); Hamming's one-byte mismatch flags
#: fill the same 256 KiB, eight times as many per block.  Every row
#: still reduces by one contiguous ``np.add.reduce`` (what
#: ``sum(axis=-1)`` calls) over the same values, so the block size is
#: bitwise-invisible.
BLOCK_ELEMENTS = 1 << 15


def _valid_cells(stored: np.ndarray):
    """Mask of ``stored``'s cells that are not don't-care, or ``None``
    when every cell is valid (the zeroing step is then skipped).
    ``x == x`` is the NaN test with the negation folded in: NaN, the
    don't-care marker, is the one value unequal to itself.
    """
    valid = stored == stored
    return None if np.count_nonzero(valid) == valid.size else valid


def _row_sums(terms, stored, query, keep, dtype):
    """Sum ``terms(stored, q, keep, out)`` over each stored row.

    ``query`` is one query (``C``) or a batch (``B×C``).  ``terms``
    writes the per-cell terms of queries ``q`` (``1×C``, or a ``b×1×C``
    block) against the ``R×C`` store into ``out`` — a ``b×R×C`` buffer
    of ``dtype``, or ``None`` to allocate one, as NumPy's ``out=`` does
    — zeroes the don't-care cells with ``keep`` (``None`` when there is
    nothing to zero) and returns them.  A single query, or a batch whose
    terms fit one block, is scored in that one step: at one query on a
    32×32 tile, setting up the block loop would cost a quarter to a
    third of the call.  A larger batch is scored block by block through
    one scratch buffer allocated per call — never shared between calls,
    so concurrent callers cannot collide in it.
    """
    budget = BLOCK_ELEMENTS * (8 if dtype is np.bool_ else 1)
    if query.ndim == 1 or len(query) * stored.size <= budget:
        return np.add.reduce(
            terms(stored, query[..., None, :], keep, None), axis=-1
        )
    per_block = max(1, budget // stored.size)
    sums = np.empty(
        (len(query), len(stored)),
        dtype=np.intp if dtype is np.bool_ else np.float64,
    )
    scratch = np.empty((per_block,) + stored.shape, dtype=dtype)
    batch = query[:, None, :]
    for i in range(0, len(query), per_block):
        block = batch[i : i + per_block]
        np.add.reduce(
            terms(stored, block, keep, scratch[: len(block)]),
            axis=-1, out=sums[i : i + per_block],
        )
    return sums


def _mismatch_terms(stored, q, valid, out):
    mism = np.not_equal(stored, q, out=out)
    mism &= valid
    return mism


def _euclidean_terms(stored, q, keep, out):
    diff = np.subtract(stored, q, out=out)
    if keep is not None:
        bits = diff.view(np.int64)
        bits &= keep
    return np.multiply(diff, diff, out=diff)


def _product_terms(stored, q, _keep, out):
    return np.multiply(stored, q, out=out)


def _hamming_scorer(stored: np.ndarray):
    stored = np.asarray(stored)
    # ``x == x`` is False exactly at NaN, the don't-care marker.
    valid = stored == stored

    def score(query):
        counts = _row_sums(
            _mismatch_terms, stored, np.asarray(query), valid, np.bool_
        )
        return counts.astype(np.float64)

    return score


def _euclidean_scorer(stored: np.ndarray):
    stored = np.asarray(stored, dtype=np.float64)
    # ANDing a float64's bits with -1 (all ones) keeps it and with 0
    # makes it +0.0: ``np.where(dont_care, 0.0, diff)`` bit for bit,
    # without a masked (branchy, several times slower) loop.
    keep = _valid_cells(stored)
    if keep is not None:
        keep = keep.astype(np.int64)
        np.negative(keep, out=keep)

    def score(query):
        return _row_sums(
            _euclidean_terms, stored, np.asarray(query, dtype=np.float64),
            keep, np.float64,
        )

    return score


def _dot_scorer(stored: np.ndarray):
    stored = np.asarray(stored, dtype=np.float64)
    valid = _valid_cells(stored)
    if valid is not None:
        stored = np.where(valid, stored, 0.0)

    def score(query):
        # Multiply + pairwise row sum (not BLAS matmul) so batched and
        # single-query scores reduce in the same order — bitwise
        # identical.
        return _row_sums(
            _product_terms, stored, np.asarray(query, dtype=np.float64),
            None, np.float64,
        )

    return score


def hamming_distance(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row count of mismatching cells (don't-cares never mismatch).

    ``stored`` is ``R×C`` integer codes, ``query`` is length-``C`` or a
    ``B×C`` batch.  Returns a length-``R`` vector (``B×R`` for batches).
    """
    return _hamming_scorer(stored)(query)


def euclidean_sq_distance(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row squared Euclidean distance (ACAM/MCAM analog metric).

    Don't-care cells contribute zero distance (an ACAM cell with an
    unbounded range matches any query value).  ``query`` may be a batch
    (``B×C`` → ``B×R`` scores).
    """
    return _euclidean_scorer(stored)(query)


def dot_similarity(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row dot product (multi-bit similarity search).

    Don't-care cells contribute nothing to the sum.  ``query`` may be a
    batch (``B×C`` → ``B×R`` scores).
    """
    return _dot_scorer(stored)(query)


#: metric name -> (scorer factory, True when larger score means better
#: match); see :func:`store_scorer`.
METRIC_FUNCTIONS = {
    "hamming": (_hamming_scorer, False),
    "euclidean": (_euclidean_scorer, False),
    "dot": (_dot_scorer, True),
}


def store_scorer(metric: str, stored: np.ndarray):
    """``compute_scores(metric, stored, ·)``, with the work that depends
    on ``stored`` alone — its don't-care mask, and for ``dot`` the store
    with those cells zeroed — done once, here.

    The returned function scores a query or a batch against ``stored``
    bitwise as :func:`compute_scores` does.  The fused plan prepares
    each column slice once per batch and scores the batch's row shares
    against it, so a share costs only its own rows.
    """
    try:
        scorer, _ = METRIC_FUNCTIONS[metric]
    except KeyError:
        raise ValueError(f"unknown CAM metric: {metric!r}") from None
    return scorer(stored)


def compute_scores(metric: str, stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Score ``query`` against every row of ``stored`` under ``metric``.

    ``query`` may be a single query (``C`` → ``R`` scores) or a batch
    (``B×C`` → ``B×R``).  This is the one scoring kernel: the fused
    plan's generic loop (through :func:`store_scorer`), the unfused
    session walk, the noise path and ``Subarray.search`` all call it.
    A batch larger than one :data:`BLOCK_ELEMENTS` block is scored
    block by block, each block computed in place in one scratch buffer
    allocated per call; a smaller one, a single query included, in one
    step.  Scores are bitwise identical to the textbook broadcast
    formulas (``((s - q)**2).sum(-1)``, ``(s * q).sum(-1)``,
    ``(s != q).sum(-1)`` with don't-care cells zeroed).
    """
    return store_scorer(metric, stored)(query)


def metric_prefers_larger(metric: str) -> bool:
    """True when a larger score is a better match for ``metric``."""
    return METRIC_FUNCTIONS[metric][1]


def perfect_score(metric: str, query: np.ndarray) -> float:
    """The score a stored row identical to ``query`` would produce.

    Distance metrics bottom out at 0; similarity metrics peak at the
    query's self-similarity.  This is the reference an EX (exact-match)
    sensing scheme compares against — the best *observed* score is not an
    exact match unless it reaches this value.
    """
    if metric not in METRIC_FUNCTIONS:
        raise ValueError(f"unknown CAM metric: {metric!r}")
    if not metric_prefers_larger(metric):
        return 0.0
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    return float(compute_scores(metric, query, query[0])[0])
