"""Names, units and directions of the metrics the benchmark prints.

BENCHMARK.json lists the same metrics; bench/smoke.py checks that the two
agree with what the benchmark emits.
"""

#: Printed by `--trace 0`: name -> (unit, better).
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: Printed by `--trace 1`: name -> (unit, better).
PER_LAYER = {
    "data.sample_s": ("s", "lower"),
    "data.sample_obs": ("count", "lower"),
    "data.load_csv_s": ("s", "lower"),
    "core.dataset_s": ("s", "lower"),
    "core.subset_calls": ("count", "lower"),
    "core.partition_s": ("s", "lower"),
    "core.evector_s": ("s", "lower"),
    "core.evector_components": ("count", "lower"),
    "conformity.fit_s": ("s", "lower"),
    "conformity.fit_calls": ("count", "lower"),
    "conformity.score_s": ("s", "lower"),
    "conformity.score_rows": ("count", "lower"),
    "conformity.score_pairs": ("computed_pairs", "lower"),
    "normalize.apply_s": ("s", "lower"),
    "normalize.apply_calls": ("count", "lower"),
    "normalize.components": ("count", "lower"),
    "predictors.fit_s": ("s", "lower"),
    "predictors.query_s": ("s", "lower"),
    "predictors.fold_tables_per_item": ("ratio", "lower"),
    "validity.self_s": ("s", "lower"),
    "validity.item_ms_p50": ("ms", "lower"),
    "validity.item_ms_p99": ("ms", "lower"),
    "validity.item_samples": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.report_write_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.item_ms_p50": ("ms", "lower"),
    "cli.item_ms_p99": ("ms", "lower"),
    "cli.item_samples": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
}
