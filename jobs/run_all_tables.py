#!/usr/bin/env python
"""Run the table harnesses at full stand-in scale and save the results.

This is the script that produced the "measured" columns in
EXPERIMENTS.md. Each table's DataFrame is written to results/*.csv, so
running one table rewrites that table's files.

Usage: python jobs/run_all_tables.py [table ...]   (default: all)
       spark-submit jobs/run_all_tables.py t07     (one table)
Table keys: t01 ... t16 (t12, t13, t14 are Patent, YouTube, Hyves).
"""
import os
import sys
import time

from pyspark.sql import SparkSession


def main(selected: set[str]):
    os.makedirs("results", exist_ok=True)
    spark = (
        SparkSession.builder.appName("run_all_tables")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")

    from repro.tables import (
        t01_02_task_features, t03_datasets, t04_system, t05_06_params,
        t07_variants, t08_grid, t09_11_kernel, t10_scalability,
        t12_14_materialization, t15_16_quick,
    )

    def save(df, name):
        df.to_csv(f"results/{name}.csv", index=False)

    steps = {
        "t01": lambda: save(t01_02_task_features.run(spark, "YouTube"), "table01_youtube"),
        "t02": lambda: save(t01_02_task_features.run(spark, "Patent"), "table02_patent"),
        "t03": lambda: [save(d, f"table03_{s}") for d, s in
                        zip(t03_datasets.run(), ("raw", "pruned"))],
        "t04": lambda: save(t04_system.run(spark), "table04_systems"),
        "t05": lambda: save(t05_06_params.run_gamma(spark), "table05_gamma"),
        "t06": lambda: save(t05_06_params.run_tsize(spark), "table06_tausize"),
        "t07": lambda: save(t07_variants.run(spark), "table07_variants"),
        "t08": lambda: save(t08_grid.run(spark), "table08_grid"),
        "t09": lambda: save(t09_11_kernel.run_t9(spark), "table09_kernel"),
        "t10": lambda: save(t10_scalability.run(spark), "table10_scalability"),
        "t11": lambda: save(t09_11_kernel.run_t11("YouTube"), "table11_kernel_gthinker"),
        "t12": lambda: save(t12_14_materialization.run(spark, "Patent"), "table12_patent"),
        "t13": lambda: save(t12_14_materialization.run(spark, "YouTube"), "table13_youtube"),
        "t14": lambda: save(t12_14_materialization.run(spark, "Hyves"), "table14_hyves"),
        "t15": lambda: save(t15_16_quick.run_t15(), "table15_quick"),
        "t16": lambda: save(t15_16_quick.run_t16(), "table16_pruning"),
    }
    for key, fn in steps.items():
        if selected and key not in selected:
            continue
        t0 = time.perf_counter()
        print(f"\n##### running {key} ...", flush=True)
        fn()
        print(f"##### {key} done in {time.perf_counter() - t0:.1f}s", flush=True)
    spark.stop()


if __name__ == "__main__":
    main(set(sys.argv[1:]))
