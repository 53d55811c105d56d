"""E12 — BGP containment through the RDF bridge."""

from repro import ContainmentChecker
from repro.experiments.e12_rdf_bridge import bridge_pairs
from repro.rdf import encode_bgp


class TestRDFBridge:
    def test_bridge_report(self, reports):
        report = reports("E12")
        assert report.data["all_match"]
        print()
        print(report.render())

    def test_bgp_containment_speed(self, benchmark):
        bgp1, bgp2, expected = bridge_pairs()[0]
        q1, q2 = encode_bgp(bgp1), encode_bgp(bgp2)

        def decide():
            return ContainmentChecker().check(q1, q2)

        result = benchmark(decide)
        assert result.contained == expected

    def test_graph_encoding_speed(self, benchmark):
        from repro.rdf import Graph, encode_graph

        graph = Graph()
        for i in range(50):
            graph.add(f"e{i}", "rdf:type", f"c{i % 5}")
            graph.add(f"e{i}", "knows", f"e{(i + 1) % 50}")
        for i in range(4):
            graph.add(f"c{i}", "rdfs:subClassOf", f"c{i + 1}")

        atoms = benchmark(encode_graph, graph)
        assert len(atoms) > 100
