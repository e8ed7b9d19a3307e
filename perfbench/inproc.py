"""Helpers the workloads share: inputs, cache resets, model error, RSS."""

from __future__ import annotations

import resource

#: Workload names as the CLI and the daemon spell them.
WORKLOAD_NAMES = ("resnet", "inception", "nasnet")

#: The Fig. 10 batch specs of ``table1_dse``.
FIG10_BATCHES = (1, "latency-bound", 256)


def workloads() -> list:
    """The paper's ResNet-50, Inception-v3 and NASNet-A graphs."""
    from repro.workloads import inception_v3, nasnet_a_large, resnet50

    return [("resnet", resnet50()), ("inception", inception_v3()),
            ("nasnet", nasnet_a_large())]


def reset_caches() -> None:
    """Drop the estimate cache and the batch substrate cache, the state
    a fresh process starts from."""
    from repro.batch import substrate
    from repro.cache.store import get_estimate_cache

    get_estimate_cache().clear()
    substrate._SUBSTRATES.clear()


def model_errors() -> dict:
    """Absolute area and TDP error (%) against the published chips."""
    from repro.config.presets import (
        eyeriss,
        eyeriss_context,
        tpu_v1,
        tpu_v1_context,
        tpu_v2,
        tpu_v2_context,
    )
    from repro.validation import EYERISS, TPU_V1, TPU_V2, validate_chip

    errors = {}
    for tag, chip, ctx, published in (
        ("tpu_v1", tpu_v1, tpu_v1_context, TPU_V1),
        ("tpu_v2", tpu_v2, tpu_v2_context, TPU_V2),
        ("eyeriss", eyeriss, eyeriss_context, EYERISS),
    ):
        report = validate_chip(chip(), ctx(), published)
        errors[f"model.area_err_pct.{tag}"] = 100.0 * abs(report.area_error)
        if report.tdp_error is not None:
            errors[f"model.tdp_err_pct.{tag}"] = (
                100.0 * abs(report.tdp_error)
            )
    return errors


def own_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
