"""Compression-quality metrics and a one-call compressor evaluation helper.

Used by the Table 3 experiment (per-process checkpoint sizes under
traditional / lossless / lossy checkpointing) and by the compressor ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.base import Compressor

__all__ = [
    "max_abs_error",
    "max_pointwise_relative_error",
    "value_range_relative_error",
    "psnr",
    "evaluate_compressor",
    "CompressorEvaluation",
]


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest absolute per-element deviation."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("arrays must have the same shape")
    if original.size == 0:
        return 0.0
    return float(np.max(np.abs(original - reconstructed)))


def max_pointwise_relative_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest ``|x - x'| / |x|`` over elements with ``x != 0``.

    Elements that are exactly zero in the original must be reconstructed as
    zero; any deviation there is reported as ``inf``.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("arrays must have the same shape")
    diff = np.abs(original - reconstructed)
    nonzero = original != 0.0
    worst = 0.0
    if np.any(nonzero):
        worst = float(np.max(diff[nonzero] / np.abs(original[nonzero])))
    if np.any(~nonzero) and np.any(diff[~nonzero] > 0.0):
        return float("inf")
    return worst


def value_range_relative_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Largest absolute deviation normalised by the original's value range."""
    original = np.asarray(original, dtype=np.float64)
    if original.size == 0:
        return 0.0
    value_range = float(np.max(original) - np.min(original))
    abs_err = max_abs_error(original, reconstructed)
    if value_range == 0.0:
        return 0.0 if abs_err == 0.0 else float("inf")
    return abs_err / value_range


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (infinite for exact reconstruction)."""
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape:
        raise ValueError("arrays must have the same shape")
    mse = float(np.mean((original - reconstructed) ** 2)) if original.size else 0.0
    if mse == 0.0:
        return float("inf")
    peak = float(np.max(original) - np.min(original))
    if peak == 0.0:
        peak = float(np.max(np.abs(original))) or 1.0
    return 20.0 * np.log10(peak) - 10.0 * np.log10(mse)


@dataclass
class CompressorEvaluation:
    """Summary of one compressor applied to one array."""

    compressor: str
    original_bytes: int
    compressed_bytes: int
    ratio: float
    max_abs_error: float
    max_pointwise_relative_error: float
    psnr_db: float
    compress_seconds: float
    decompress_seconds: float


def evaluate_compressor(compressor: Compressor, data: np.ndarray) -> CompressorEvaluation:
    """Round-trip ``data`` through ``compressor`` and report size/error/timing."""
    compressor.reset_records()
    blob = compressor.compress(data)
    reconstructed = compressor.decompress(blob)
    return CompressorEvaluation(
        compressor=compressor.name,
        original_bytes=int(np.asarray(data).nbytes),
        compressed_bytes=blob.nbytes,
        ratio=blob.compression_ratio,
        max_abs_error=max_abs_error(data, reconstructed),
        max_pointwise_relative_error=max_pointwise_relative_error(data, reconstructed),
        psnr_db=psnr(data, reconstructed),
        compress_seconds=compressor.mean_seconds("compress"),
        decompress_seconds=compressor.mean_seconds("decompress"),
    )
