"""Catalyst-side graph operations over canonical edge tables.

These are the relational building blocks of the dataflow baselines
(Table 4): everything is expressed in the DataFrame API so Catalyst
plans the joins. ``triangle_count`` has a DuckDB-oracle test in
``tests/test_spark_ops.py``; ``symmetrize`` is checked through the
baselines in ``tests/test_apps.py``.

Edge tables are canonical: columns ``src < dst``, one row per
undirected edge, no self-loops.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "to_spark_edges",
    "symmetrize",
    "triangle_count",
]


def to_spark_edges(spark: SparkSession, edges_pdf: pd.DataFrame) -> DataFrame:
    """Create the canonical Spark edge DataFrame from a pandas table."""
    if len(edges_pdf) == 0:
        return spark.createDataFrame(
            pd.DataFrame({"src": pd.Series(dtype="int64"),
                          "dst": pd.Series(dtype="int64")})
        )
    return spark.createDataFrame(edges_pdf[["src", "dst"]])


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both directions of every undirected edge: columns (u, v)."""
    fwd = edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    rev = edges.select(F.col("dst").alias("u"), F.col("src").alias("v"))
    return fwd.unionAll(rev)


def triangle_count(edges: DataFrame) -> int:
    """Global triangle count via the oriented 3-way self-join (each
    triangle a<b<c counted exactly once)."""
    e1 = edges.select(F.col("src").alias("a"), F.col("dst").alias("b"))
    e2 = edges.select(F.col("src").alias("b"), F.col("dst").alias("c"))
    e3 = edges.select(F.col("src").alias("a"), F.col("dst").alias("c"))
    wedges = e1.join(e2, "b")
    tris = wedges.join(e3, ["a", "c"])
    return tris.count()
