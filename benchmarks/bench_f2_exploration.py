"""F2 (Figure 2): step-by-step exploration of the Scholarly LD.

The paper's figure shows: (1) the Cluster Schema, (2) the "Event" class
selected with its connections, (3) further expansion, (4) the complete
Schema Summary -- with the UI reporting the percentage of instances
represented and the node count at each step.

The shape to reproduce: the walk starts small, coverage grows
monotonically to 100%, and the final view equals the Schema Summary.
"""

from __future__ import annotations


def _event_iri(app, url):
    summary = app.summary(url)
    return next(n.iri for n in summary.nodes if n.label == "Event")


def test_f2_exploration_steps(scholarly_app, record_table):
    app, url = scholarly_app
    summary = app.summary(url)
    schema = app.cluster_schema(url)

    session = app.explore(url)
    lines = [
        "F2 (Figure 2): step-by-step visualization of the Scholarly LD",
        f"dataset: {len(summary.nodes)} classes, {summary.total_instances} instances, "
        f"{schema.cluster_count} clusters",
        "",
        f"{'step':<28} {'nodes':>6} {'instances shown':>16}",
    ]

    step1 = session.start_from_cluster_schema()
    lines.append(f"{'1 cluster schema':<28} {schema.cluster_count:>6} {'-':>16}")

    step2 = session.select_class(_event_iri(app, url))
    lines.append(
        f"{'2 select Event':<28} {step2.node_count:>6} {step2.instance_coverage:>15.1%}"
    )

    frontier = session.expandable_classes()
    step3 = session.expand(frontier[0])
    lines.append(
        f"{'3 expand':<28} {step3.node_count:>6} {step3.instance_coverage:>15.1%}"
    )

    final_steps = session.expand_all()
    step4 = final_steps[-1]
    lines.append(
        f"{'4 full schema summary':<28} {step4.node_count:>6} {step4.instance_coverage:>15.1%}"
    )
    record_table("f2_exploration", "\n".join(lines))

    # Shape assertions:
    assert step1.node_count == 0
    assert 1 < step2.node_count < len(summary.nodes)
    assert step3.node_count >= step2.node_count
    assert step4.node_count == len(summary.nodes)
    assert step4.instance_coverage == 1.0
    coverages = [s.instance_coverage for s in session.history if s.action != "view-cluster-schema"]
    assert coverages == sorted(coverages)  # monotone growth
