"""Table 4 workloads: task-engine vs Catalyst-join vs DuckDB agreement.

The Spark runs use one partition, and twice as many partitions as cores:
then some start after others have taken their vertex lists, and must
return nothing."""
import pytest

from repro.graphs.generators import edges_pdf, er_graph, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.graphs.spark_ops import to_spark_edges
from repro.gthinker import apps, baselines


PARTITIONS = pytest.mark.parametrize("partitions", ["one", "twice the cores"])


def parallelism(spark, partitions):
    return 1 if partitions == "one" else 2 * spark.sparkContext.defaultParallelism


@pytest.fixture(scope="module")
def graph_case():
    pdf = edges_pdf(planted_community_graph(120, [(10, 0.9), (9, 0.95)], seed=9))
    return pdf, GlobalGraph.from_edges(pdf)


@pytest.fixture(scope="module")
def er_case():
    pdf = edges_pdf(er_graph(50, 0.2, seed=11))
    return pdf, GlobalGraph.from_edges(pdf)


class TestTriangleCounting:
    def test_serial_matches_duckdb(self, graph_case):
        pdf, gg = graph_case
        assert (
            apps.run_app_serial(gg, "tc").value
            == baselines.triangle_count_duckdb(pdf).value
        )

    @PARTITIONS
    def test_spark_engine_matches(self, spark, graph_case, partitions):
        pdf, gg = graph_case
        expect = baselines.triangle_count_duckdb(pdf).value
        got = apps.run_app_spark(spark, gg, "tc", parallelism=parallelism(spark, partitions))
        assert got.value == expect

    def test_sql_baseline_matches(self, spark, er_case):
        pdf, gg = er_case
        e = to_spark_edges(spark, pdf)
        assert (
            baselines.triangle_count_sql(spark, e).value
            == baselines.triangle_count_duckdb(pdf).value
            == apps.run_app_serial(gg, "tc").value
        )

    def test_old_engine_same_answer(self, spark, er_case):
        pdf, gg = er_case
        a = apps.run_app_spark(spark, gg, "tc", prioritize_big=False)
        b = apps.run_app_spark(spark, gg, "tc", prioritize_big=True)
        assert a.value == b.value


class TestMaxCliqueFinding:
    def test_serial_matches_bruteish(self, er_case):
        pdf, gg = er_case
        from repro.core.graph import LocalGraph
        from repro.core.maxclique import max_clique

        g = LocalGraph.from_edges(gg.n, [tuple(r) for r in pdf.to_numpy()])
        expect = max_clique(g).bit_count()
        assert apps.run_app_serial(gg, "mcf").value == expect

    @PARTITIONS
    def test_spark_matches_serial(self, spark, graph_case, partitions):
        pdf, gg = graph_case
        assert (
            apps.run_app_spark(spark, gg, "mcf", parallelism=parallelism(spark, partitions)).value
            == apps.run_app_serial(gg, "mcf").value
        )

    def test_planted_clique_found(self):
        from repro.graphs.generators import edges_pdf, planted_community_graph

        pdf = edges_pdf(planted_community_graph(80, [(8, 1.0)], ba_m=1, seed=3))
        gg = GlobalGraph.from_edges(pdf)
        assert apps.run_app_serial(gg, "mcf").value >= 8


class TestSubgraphMatching:
    def test_serial_matches_duckdb(self, graph_case):
        pdf, gg = graph_case
        assert (
            apps.run_app_serial(gg, "gm").value
            == baselines.square_count_duckdb(pdf).value
        )

    def test_sql_baseline_matches(self, spark, er_case):
        pdf, gg = er_case
        e = to_spark_edges(spark, pdf)
        assert (
            baselines.square_count_sql(spark, e).value
            == baselines.square_count_duckdb(pdf).value
            == apps.run_app_serial(gg, "gm").value
        )

    @PARTITIONS
    def test_spark_matches_serial(self, spark, er_case, partitions):
        pdf, gg = er_case
        assert (
            apps.run_app_spark(spark, gg, "gm", parallelism=parallelism(spark, partitions)).value
            == apps.run_app_serial(gg, "gm").value
        )

    def test_single_square(self):
        import pandas as pd

        pdf = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 3]})
        gg = GlobalGraph.from_edges(pdf)
        assert apps.run_app_serial(gg, "gm").value == 1
        assert baselines.square_count_duckdb(pdf).value == 1
