//! Pins the structure of Figure 4: the dependency-free model space, its
//! merged nodes, the position of the named models, and the edge labels.

use litmus_mcm::explore::dot::{render_dot, DotOptions};
use litmus_mcm::query::{Query, SweepReport};

/// The Figure 4 sweep, exactly as `mcm figures fig4` runs it.
fn figure4() -> SweepReport {
    Query::sweep().run().expect("the Figure 4 sweep runs")
}

#[test]
fn thirty_six_models_collapse_to_thirty_nodes() {
    let report = figure4();
    assert_eq!(report.exploration.models.len(), 36);
    assert_eq!(report.lattice.classes.len(), 30, "Figure 4 node count");
    assert_eq!(report.equivalent_pairs.len(), 6);
    // The six merged nodes of Figure 4 (adjacent labels in the figure).
    let expected = [
        ("M1010", "M1110"),
        ("M1011", "M1111"),
        ("M4010", "M4110"),
        ("M4011", "M4111"),
        ("M4040", "M4140"),
        ("M4041", "M4141"),
    ];
    for (a, b) in expected {
        assert!(
            report.equivalent_pairs.iter().any(|(x, y)| {
                let x = x.split_whitespace().next().unwrap();
                let y = y.split_whitespace().next().unwrap();
                (x == a && y == b) || (x == b && y == a)
            }),
            "Figure 4 merges {a} and {b}"
        );
    }
}

#[test]
fn named_models_sit_where_figure4_puts_them() {
    let report = figure4();
    let lattice = &report.lattice;
    let expl = &report.exploration;
    let class_of = |name: &str| {
        lattice
            .classes
            .iter()
            .position(|c| {
                c.members
                    .iter()
                    .any(|&m| expl.models[m].name().starts_with(name))
            })
            .unwrap_or_else(|| panic!("{name} not found"))
    };

    // SC (M4444) is the unique strongest model.
    let maximal = lattice.maximal_classes();
    assert_eq!(maximal, vec![class_of("M4444")], "SC tops the lattice");

    // RMO-without-deps (M1010, merged with M1110) is the unique weakest.
    let minimal = lattice.minimal_classes();
    assert_eq!(minimal, vec![class_of("M1010")], "RMO bottoms the lattice");

    // TSO/x86 = M4044 is strictly weaker than SC and strictly stronger
    // than PSO = M1044; IBM370 = M4144 is strictly stronger than TSO.
    use litmus_mcm::explore::Relation;
    let idx = |name: &str| {
        expl.models
            .iter()
            .position(|m| m.name().starts_with(name))
            .unwrap()
    };
    assert_eq!(
        expl.relation(idx("M4044"), idx("M4444")),
        Relation::StrictlyWeaker,
        "TSO ⊋ SC"
    );
    assert_eq!(
        expl.relation(idx("M1044"), idx("M4044")),
        Relation::StrictlyWeaker,
        "PSO ⊋ TSO"
    );
    assert_eq!(
        expl.relation(idx("M4044"), idx("M4144")),
        Relation::StrictlyWeaker,
        "TSO ⊋ IBM370"
    );
}

#[test]
fn every_covering_edge_is_labelled_by_one_of_the_nine_tests() {
    let report = figure4();
    for edge in &report.lattice.edges {
        let has_l_label = edge
            .distinguishing
            .iter()
            .any(|t| report.nine_test_indices.contains(t));
        assert!(
            has_l_label,
            "edge {} -> {} lacks an L1–L9 label (tests {:?})",
            edge.weaker, edge.stronger, edge.distinguishing
        );
    }
}

#[test]
fn figure4_edges_never_use_dependency_tests() {
    // Figure 4 omits L4 and L6 (their dependency idioms are inert without
    // the DataDep predicate): no covering edge in the dependency-free
    // space should *need* them, i.e. each edge has a non-dep label.
    let report = figure4();
    let dep_tests: Vec<usize> = ["L4", "L6"]
        .iter()
        .filter_map(|n| report.exploration.tests.iter().position(|t| t.name() == *n))
        .collect();
    for edge in &report.lattice.edges {
        let only_dep_labels = edge
            .distinguishing
            .iter()
            .filter(|t| report.nine_test_indices.contains(t))
            .all(|t| dep_tests.contains(t));
        assert!(
            !only_dep_labels,
            "edge {} -> {} could only be labelled with a dependency test",
            edge.weaker, edge.stronger
        );
    }
}

#[test]
fn dot_rendering_contains_the_named_nodes() {
    let report = figure4();
    let dot = render_dot(
        &report.exploration,
        &report.lattice,
        &DotOptions {
            name: "figure4".to_string(),
            preferred_tests: report.nine_test_indices.clone(),
            ..DotOptions::default()
        },
    );
    for needle in ["M4444 (SC)", "M4044 (TSO/x86)", "M1044 (PSO)", "M4144 (IBM370)"] {
        assert!(dot.contains(needle), "DOT output missing {needle}");
    }
    // Edge labels draw from the nine tests.
    assert!(dot.contains("label=\"L"));
}
