"""Benchmark applications: HDC and KNN, pattern matching, multi-tenant
store pools, plus synthetic datasets."""

from .datasets import (
    Dataset,
    pad_features,
    pad_rows,
    synthetic_mnist,
    synthetic_pneumonia,
)
from .hdc import HDCEncoder, HDCModel, train_hdc
from .knn import KNNModel, build_knn
from .matching import MatchResult, PatternMatcher
from .pool import TenantPool

__all__ = [
    "Dataset",
    "HDCEncoder",
    "HDCModel",
    "KNNModel",
    "MatchResult",
    "PatternMatcher",
    "TenantPool",
    "build_knn",
    "pad_features",
    "pad_rows",
    "synthetic_mnist",
    "synthetic_pneumonia",
    "train_hdc",
]
