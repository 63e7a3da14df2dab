//! Golden tests: one per paper figure / numbered example, checking the
//! facts the paper asserts (DESIGN.md, per-experiment index F1–F12,
//! E3.10–E6.2).

use clio::prelude::*;

fn funcs() -> FuncRegistry {
    FuncRegistry::with_builtins()
}

/// F1 — Figure 1: the source database satisfies every asserted fact.
#[test]
fn figure1_invariants() {
    let db = paper_database();
    db.check_constraints().unwrap();
    assert_eq!(
        db.relation_names(),
        vec!["Children", "Parents", "PhoneDir", "SBPS", "XmasBazaar"]
    );
    // Maya = 002
    let maya = db
        .relation("Children")
        .unwrap()
        .rows_where("ID", &Value::str("002"))
        .unwrap();
    assert_eq!(maya[0][1], Value::str("Maya"));
    // focus children of Figure 9
    for id in ["001", "002", "004", "009"] {
        assert_eq!(
            db.relation("Children")
                .unwrap()
                .rows_where("ID", &Value::str(id))
                .unwrap()
                .len(),
            1
        );
    }
    // parent 205 is childless
    let children = db.relation("Children").unwrap();
    for row in children.rows() {
        assert_ne!(row[3], Value::str("205"));
        assert_ne!(row[4], Value::str("205"));
    }
}

/// F2 — Figure 2: after correspondences v1, v2 the target holds the
/// children's IDs and names, everything else null.
#[test]
fn figure2_target_after_v1_v2() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    session.add_correspondence("Children.name", "name").unwrap();
    let preview = session.target_preview().unwrap();
    assert_eq!(preview.len(), 4);
    for row in preview.rows() {
        assert!(!row[0].is_null());
        assert!(!row[1].is_null());
        for v in &row[2..] {
            assert!(v.is_null());
        }
    }
}

/// F3 — Figure 3: the affiliation correspondence produces exactly two
/// scenarios (mother via mid, father via fid), distinguishable on Maya.
#[test]
fn figure3_two_scenarios() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    let ids = session
        .add_correspondence("Parents.affiliation", "affiliation")
        .unwrap();
    assert_eq!(ids.len(), 2);

    // Maya's affiliation differs across scenarios: Almaden (mother 203)
    // vs AT&T (father 204) — exactly what lets the user tell them apart.
    let mut maya_affiliations = Vec::new();
    for id in ids {
        let w = session.workspaces().iter().find(|w| w.id == id).unwrap();
        let out = w.mapping.evaluate(session.database(), &funcs()).unwrap();
        let maya = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::str("002"))
            .unwrap();
        maya_affiliations.push(maya[2].to_string());
    }
    maya_affiliations.sort();
    assert_eq!(maya_affiliations, vec!["AT&T", "Almaden"]);
}

/// F4 — Figure 4: walking to PhoneDir yields scenarios including one that
/// introduces a second copy of Parents.
#[test]
fn figure4_copy_introduced() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    let ids = session
        .add_correspondence("Parents.affiliation", "affiliation")
        .unwrap();
    let fid = ids
        .iter()
        .find(|id| {
            let w = session.workspaces().iter().find(|w| w.id == **id).unwrap();
            w.description.contains("fid")
        })
        .copied()
        .unwrap();
    session.confirm(fid).unwrap();

    let walks = session.data_walk(None, "PhoneDir").unwrap();
    assert!(walks.len() >= 2);
    let copies: Vec<bool> = walks
        .iter()
        .map(|id| {
            let w = session.workspaces().iter().find(|w| w.id == *id).unwrap();
            w.mapping.graph.node_by_alias("Parents2").is_some()
        })
        .collect();
    assert!(copies.contains(&true), "a Parents2 scenario must exist");
    assert!(copies.contains(&false), "a reuse scenario must exist");
}

/// F5 — Figure 5: chasing 002 finds one attribute of SBPS and two of
/// XmasBazaar.
#[test]
fn figure5_chase_002() {
    let db = paper_database();
    let index = ValueIndex::build(&db);
    let mut g = QueryGraph::new();
    g.add_node(Node::new("Children")).unwrap();
    let m = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
    let alts = data_chase(
        &m,
        &db,
        &index,
        "Children",
        "ID",
        &Value::str("002"),
        &funcs(),
    )
    .unwrap();
    assert_eq!(alts.len(), 3);
    let sbps: Vec<_> = alts.iter().filter(|a| a.relation == "SBPS").collect();
    let bazaar: Vec<_> = alts.iter().filter(|a| a.relation == "XmasBazaar").collect();
    assert_eq!(sbps.len(), 1);
    assert_eq!(bazaar.len(), 2);
    assert_eq!(sbps[0].attribute, "ID");
}

/// F6 — Figure 6 / Example 3.12: induced connected subgraphs of the path
/// graph Children—Parents—PhoneDir.
#[test]
fn figure6_subgraphs_example_3_12() {
    let g = figure6_graph();
    let subs = connected_subsets(&g);
    let tags: Vec<String> = subs.iter().map(|&m| g.coverage_tag(m)).collect();
    assert_eq!(tags, vec!["C", "P", "Ph", "CP", "PPh", "CPPh"]);
    // {Children, PhoneDir} is NOT induced-connected
    assert!(!subs.contains(&0b101));
}

/// F7 — Figure 7: padding and subsumption of associations t, u, v.
#[test]
fn figure7_associations() {
    let db = paper_database();
    let g = figure6_graph();
    let funcs = funcs();
    let scheme = g.scheme(&db).unwrap();

    // t: full association of {Children, Parents} for Maya
    let f_cp = full_associations(&db, &g, 0b011, &funcs).unwrap();
    let t = f_cp
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("002"))
        .expect("Maya joins her mother")
        .clone();

    // u: t padded with nulls on PhoneDir — a possible association
    let padded_scheme = f_cp.scheme();
    let u = AssociationSet::pad_row(&scheme, padded_scheme, &t).unwrap();
    assert!(u[scheme.arity() - 1].is_null());

    // v: the full CPPh association for Maya strictly subsumes u
    let f_full = full_associations(&db, &g, 0b111, &funcs).unwrap();
    let v_row = f_full
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("002"))
        .expect("Maya's mother has a phone");
    let v = AssociationSet::pad_row(&scheme, f_full.scheme(), v_row).unwrap();
    assert!(clio::relational::ops::strictly_subsumes(&v, &u));
}

/// F8 — Figure 8: the full disjunction of the running graph, tagged by
/// coverage, with both algorithms agreeing.
#[test]
fn figure8_full_disjunction() {
    let db = paper_database();
    let g = running_graph();
    let funcs = funcs();
    let mut naive = full_disjunction_naive(&db, &g, &funcs).unwrap();
    let mut outer = full_disjunction(&db, &g, FdAlgo::OuterJoin, &funcs).unwrap();
    naive.sort_canonical(&g);
    outer.sort_canonical(&g);
    assert_eq!(naive.table().rows(), outer.table().rows());

    // categories per Example 4.3 / Figure 9
    let tags: Vec<String> = naive
        .categories()
        .iter()
        .map(|&c| g.coverage_tag(c))
        .collect();
    assert_eq!(tags, vec!["PPh", "CPPh", "CPPhS"]);
    // 4 children + 4 childless-or-motherless... exactly: 2 bus kids
    // (CPPhS), 2 non-bus kids (CPPh), 4 non-father parents (PPh)
    assert_eq!(naive.len(), 8);
    let render = naive.render(&g);
    assert!(render.contains("CPPhS"));
    assert!(render.contains("Maya"));
}

/// F9 — Figure 9: a minimal sufficient illustration of the Example-3.15
/// mapping; dropping a CPPhS example keeps it sufficient, dropping the
/// PPh example breaks graph sufficiency (Example 4.3).
#[test]
fn figure9_sufficient_illustration() {
    let db = paper_database();
    let m = example_3_15_mapping();
    let funcs = funcs();
    let population = m.examples(&db, &funcs).unwrap();
    let ill = Illustration::minimal_sufficient(&population, m.target.arity());
    assert!(is_sufficient(
        &ill.examples,
        &population,
        m.target.arity(),
        SufficiencyScope::mapping()
    ));
    // each needed signature class's first member, in population order
    let expected: Vec<Example> = [0, 2, 3, 4]
        .iter()
        .map(|&i| population[i].clone())
        .collect();
    assert_eq!(ill.examples, expected);
    // all three categories represented
    assert_eq!(ill.category_histogram().len(), 3);
    // both polarities present (age<7 trims Ben; ID-null trims PPh rows)
    let (pos, neg) = ill.polarity_counts();
    assert!(pos >= 1 && neg >= 1);

    // removing every PPh example breaks sufficiency of the query graph
    let g = running_graph();
    let no_pph: Vec<Example> = population
        .iter()
        .filter(|e| g.coverage_tag(e.coverage) != "PPh")
        .cloned()
        .collect();
    assert!(!is_sufficient(
        &no_pph,
        &population,
        m.target.arity(),
        SufficiencyScope::graph_only()
    ));

    // removing ONE of the two CPPhS examples keeps it sufficient
    let cpphs: Vec<usize> = population
        .iter()
        .enumerate()
        .filter(|(_, e)| g.coverage_tag(e.coverage) == "CPPhS")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(cpphs.len(), 2);
    let minus_one: Vec<Example> = population
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != cpphs[0])
        .map(|(_, e)| e.clone())
        .collect();
    assert!(is_sufficient(
        &minus_one,
        &population,
        m.target.arity(),
        SufficiencyScope::graph_only()
    ));
}

/// F9b / Example 4.8 — focus semantics: focusing on the four children
/// includes all their associations; parent 205's association is not
/// required.
#[test]
fn figure9_focus_example_4_8() {
    let db = paper_database();
    let m = example_3_15_mapping();
    let funcs = funcs();
    let all = m.examples(&db, &funcs).unwrap();
    let scheme = m.graph.scheme(&db).unwrap();

    let focus_children = Focus {
        node: m.graph.node_by_alias("Children").unwrap(),
        tuples: db.relation("Children").unwrap().rows().to_vec(),
    };
    let focused = focused_examples(&m, &db, &funcs, &focus_children).unwrap();
    assert_eq!(focused.len(), 4); // one association per child
    let ill = Illustration { examples: focused };
    assert!(is_focused(&ill, &all, &scheme, "Children", &focus_children));

    // not focused on parent 205
    let focus_205 = Focus::on_value(
        &m,
        &db,
        m.graph.node_by_alias("Parents").unwrap(),
        "ID",
        &Value::str("205"),
    )
    .unwrap();
    assert!(!is_focused(&ill, &all, &scheme, "Parents", &focus_205));
}

/// F9c — a minimal sufficient illustration *focused on Maya* (Defs 4.6 +
/// 4.7 combined): contains Maya's association plus sufficiency repairs,
/// and is both sufficient and focused.
#[test]
fn figure9_focused_and_sufficient() {
    let db = paper_database();
    let m = example_3_15_mapping();
    let funcs = funcs();
    let all = m.examples(&db, &funcs).unwrap();
    let scheme = m.graph.scheme(&db).unwrap();
    let node = m.graph.node_by_alias("Children").unwrap();
    let focus = Focus::on_value(&m, &db, node, "ID", &Value::str("002")).unwrap();
    let required = focused_examples(&m, &db, &funcs, &focus).unwrap();
    assert_eq!(required.len(), 1);

    let ill = Illustration::minimal_sufficient_focused(&all, m.target.arity(), &required);
    assert!(is_sufficient(
        &ill.examples,
        &all,
        m.target.arity(),
        SufficiencyScope::mapping()
    ));
    assert!(is_focused(&ill, &all, &scheme, "Children", &focus));
    // Maya's example is in there
    assert!(ill
        .examples
        .iter()
        .any(|e| e.association[0] == Value::str("002")));
    // and the result is not much larger than the unfocused minimum
    let unfocused = Illustration::minimal_sufficient(&all, m.target.arity());
    assert!(ill.len() <= unfocused.len() + required.len());
}

/// F10/F11 — data walk path sets (Example 5.1): walks(G1, Children,
/// PhoneDir) with knowledge {mid, fid, phone-fk} gives the Figure-11
/// alternatives.
#[test]
fn figure11_walks_example_5_1() {
    let db = paper_database();
    let knowledge = paper_knowledge();
    let mut g1 = QueryGraph::new();
    let c = g1.add_node(Node::new("Children")).unwrap();
    let p = g1.add_node(Node::new("Parents")).unwrap();
    g1.add_edge(c, p, parse_expr("Children.fid = Parents.ID").unwrap())
        .unwrap();
    let m = Mapping::new(g1, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));

    let alts = data_walk(&m, &db, &knowledge, "Children", "PhoneDir", 3, &funcs()).unwrap();
    // G2-style: reuse Parents (fid edge matches); G3-style: Parents2 copy
    assert_eq!(alts.len(), 2);
    let reuse = alts
        .iter()
        .find(|a| a.new_nodes == vec!["PhoneDir".to_owned()])
        .unwrap();
    assert_eq!(reuse.mapping.graph.node_count(), 3);
    let copy = alts
        .iter()
        .find(|a| a.new_nodes.contains(&"Parents2".to_owned()))
        .unwrap();
    assert_eq!(copy.mapping.graph.node_count(), 4);
}

/// F12 — chase graph extensions (Example 5.2): each chase alternative is
/// the original graph plus one node and one equijoin edge.
#[test]
fn figure12_chase_graphs_example_5_2() {
    let db = paper_database();
    let index = ValueIndex::build(&db);
    let g1 = figure6_graph();
    let m = Mapping::new(g1.clone(), kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
    let alts = data_chase(
        &m,
        &db,
        &index,
        "Children",
        "ID",
        &Value::str("002"),
        &funcs(),
    )
    .unwrap();
    for a in &alts {
        assert_eq!(a.mapping.graph.node_count(), g1.node_count() + 1);
        assert_eq!(a.mapping.graph.edges().len(), g1.edges().len() + 1);
        let new_edge = a.mapping.graph.edges().last().unwrap();
        assert!(new_edge.predicate.to_string().starts_with("Children.ID = "));
    }
}

/// E3.10 — Example 3.10: R1 ⊕ R2 = R2 on the paper data (every
/// child–parent pair extends to a phone).
#[test]
fn example_3_10_minimum_union_identity() {
    let db = paper_database();
    let g = figure6_graph();
    let funcs = funcs();
    let scheme = g.scheme(&db).unwrap();

    let r1 = full_associations(&db, &g, 0b011, &funcs).unwrap(); // C ⨝ P
    let r2 = full_associations(&db, &g, 0b111, &funcs).unwrap(); // C ⨝ P ⨝ Ph
    let r1p = clio::relational::ops::pad_to(&r1, &scheme).unwrap();
    let r2p = clio::relational::ops::pad_to(&r2, &scheme).unwrap();

    let mut m = minimum_union(&r1p, &r2p).unwrap();
    let mut expect = r2p.clone();
    m.sort_canonical();
    expect.sort_canonical();
    assert_eq!(m.rows(), expect.rows(), "R1 ⊕ R2 must equal R2");
}

/// E3.15 — Example 3.15: the mapping query with concat correspondence and
/// both filters.
#[test]
fn example_3_15_mapping_query() {
    let db = paper_database();
    let m = example_3_15_mapping();
    let out = m.evaluate(&db, &funcs()).unwrap();
    // kids under 7 only
    let ids: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(out.len(), 3);
    assert!(!ids.contains(&"009".to_owned()));
    // contactPh = concat(type, ',', number) of the father's phone
    let maya = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("002"))
        .unwrap();
    assert_eq!(maya[4], Value::str("work,555-0104"));
    // bus schedule present for Maya, absent for Tom
    assert_eq!(maya[5], Value::str("8:15"));
    let tom = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("004"))
        .unwrap();
    assert!(tom[5].is_null());
}

/// E6.2 — ArrivalTime-style reuse is covered in unit tests; here check
/// the session-level flow end to end: a second correspondence for a
/// mapped attribute creates a new workspace reusing prior work.
#[test]
fn example_6_2_session_flow() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    let chases = session
        .data_chase("Children", "ID", &Value::str("002"))
        .unwrap();
    let sbps = chases
        .iter()
        .find(|id| {
            let w = session.workspaces().iter().find(|w| w.id == **id).unwrap();
            w.mapping.graph.node_by_alias("SBPS").is_some()
        })
        .copied()
        .unwrap();
    session.confirm(sbps).unwrap();
    session
        .add_correspondence("SBPS.time", "BusSchedule")
        .unwrap();

    // second computation of BusSchedule: from Children.docid
    let ids = session
        .add_correspondence("'doc-' || Children.docid", "BusSchedule")
        .unwrap();
    assert_eq!(ids.len(), 1);
    let alt = session
        .workspaces()
        .iter()
        .find(|w| w.id == ids[0])
        .unwrap();
    // the alternative rolled back to the pre-chase graph (Children only)
    assert_eq!(alt.mapping.graph.node_count(), 1);
    // and reuses the ID correspondence
    assert!(alt.mapping.correspondence_for("ID").is_some());
    assert!(alt
        .mapping
        .correspondence_for("BusSchedule")
        .unwrap()
        .expr
        .to_string()
        .contains("docid"));
}
