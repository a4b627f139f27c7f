"""Catalyst graph ops vs the DuckDB oracle (repro/graphs/spark_ops.py).

Every relational result is checked against a DuckDB query, so a broken
join or wrong dedup is caught, not just "it ran".
"""
import pandas as pd
import pytest

from repro.graphs.datasets import DATASETS
from repro.graphs.generators import edges_pdf, er_graph
from repro.graphs import spark_ops


@pytest.fixture(scope="module")
def small_edges():
    return edges_pdf(er_graph(60, 0.15, seed=3))


class TestTriangles:
    def test_triangle_count_vs_oracle(self, spark, small_edges):
        e = spark_ops.to_spark_edges(spark, small_edges)
        got = spark_ops.triangle_count(e)
        import duckdb

        con = duckdb.connect()
        con.register("edges", small_edges)
        expect = con.execute(
            """
            SELECT count(*) FROM edges e1
            JOIN edges e2 ON e2.src = e1.dst
            JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst
            """
        ).fetchone()[0]
        con.close()
        assert got == expect

    def test_known_triangle(self, spark):
        pdf = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 2, 3]})
        e = spark_ops.to_spark_edges(spark, pdf)
        assert spark_ops.triangle_count(e) == 1


class TestDatasetEdgeTables:
    @pytest.mark.parametrize("name", ["CX_GSE1730", "kmer", "USA Road"])
    def test_edge_tables_canonical(self, name):
        pdf = edges_pdf(DATASETS[name].build())
        assert (pdf["src"] < pdf["dst"]).all()
        assert not pdf.duplicated(["src", "dst"]).any()
