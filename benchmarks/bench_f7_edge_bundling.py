"""F7 (Figure 7): Hierarchical Edge Bundling of the Schema Summary.

"the classes are displayed over an invisible circumference and the
properties are arcs within the circumference ...  the node in bold (Event)
is the class of interest, the node in green (Situation) is the rdfs:Range
class ... and the nodes in red (Vevent, SessionEvent, ConferenceSeries and
InformationObject) are the rdfs:Domain classes".

Shape checks: every class on the circle, bundled curves longer than
chords (Holten's bundling), and the exact Event neighbourhood roles the
figure highlights.
"""

from __future__ import annotations

import math

import pytest


def test_f7_event_neighbourhood_roles(scholarly_app, record_table):
    app, url = scholarly_app
    diagram = app.edge_bundling_diagram(url, focus="Event")

    domains = sorted(n for n, r in diagram.roles.items() if r in ("domain", "both"))
    ranges = sorted(n for n, r in diagram.roles.items() if r in ("range", "both"))
    lines = [
        "F7 (Figure 7): hierarchical edge bundling, focus class = Event",
        f"classes on the circle: {len(diagram.leaves)}",
        f"property arcs: {len(diagram.edges)}",
        "",
        f"focus:  Event",
        f"domain classes (paper: Vevent, SessionEvent, ConferenceSeries,",
        f"                InformationObject): {', '.join(domains)}",
        f"range classes (paper: Situation): {', '.join(ranges)}",
    ]
    record_table("f7_edge_bundling", "\n".join(lines))

    assert diagram.roles["Event"] == "focus"
    # the figure's domain cast must be recovered
    for expected in ("Vevent", "SessionEvent", "ConferenceSeries", "InformationObject"):
        assert expected in domains, expected
    assert "Situation" in ranges


def test_f7_geometry(scholarly_app):
    app, url = scholarly_app
    diagram = app.edge_bundling_diagram(url, beta=0.85)

    # all classes on the invisible circumference
    for leaf in diagram.leaves:
        assert math.hypot(leaf.point.x, leaf.point.y) == pytest.approx(diagram.radius)

    # arcs live within the circumference (bundled paths never leave the disc)
    for edge in diagram.edges:
        for point in edge.path:
            assert math.hypot(point.x, point.y) <= diagram.radius * 1.001

    # bundling makes cross-cluster edges longer than their chords
    schema = app.cluster_schema(url)
    label_cluster = {}
    for cluster in schema.clusters:
        for iri in cluster.class_iris:
            label_cluster[app.summary(url).node(iri).label] = cluster.cluster_id
    cross = [
        e
        for e in diagram.edges
        if label_cluster.get(e.source) != label_cluster.get(e.target)
        and e.straight_length() > 1.0
    ]
    assert cross, "expected cross-cluster properties"
    longer = sum(1 for e in cross if e.length() > e.straight_length() * 1.005)
    assert longer / len(cross) > 0.6


def test_f7_beta_sweep_controls_bundle_tightness(scholarly_app, record_table):
    """Holten's beta: higher beta -> longer (more bundled) curves."""
    app, url = scholarly_app

    rows = []
    for beta in (0.0, 0.45, 0.85, 1.0):
        diagram = app.edge_bundling_diagram(url, beta=beta)
        detour = [
            e.length() / e.straight_length()
            for e in diagram.edges
            if e.straight_length() > 1.0
        ]
        rows.append((beta, sum(detour) / len(detour)))
    lines = ["F7 ablation: bundling strength beta vs mean path detour", ""]
    lines.append(f"{'beta':>6} {'mean detour':>12}")
    for beta, mean_detour in rows:
        lines.append(f"{beta:>6.2f} {mean_detour:>12.4f}")
    record_table("f7_beta_sweep", "\n".join(lines))

    detours = [d for _, d in rows]
    assert detours == sorted(detours)
    assert detours[0] == pytest.approx(1.0, abs=1e-6)
