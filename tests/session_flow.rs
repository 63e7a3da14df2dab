//! Long-running session flows, persistence, link operators, and ranking —
//! integration coverage beyond the figure golden tests.

use clio::core::illustration::satisfies;
use clio::core::operators::link::{conjoin_edge_predicate, remove_node, replace_edge_predicate};
use clio::core::ranking::{join_support, rank_walk_alternatives};
use clio::prelude::*;
use clio_lang::{parse_map, print_mapping};

fn funcs() -> FuncRegistry {
    FuncRegistry::with_builtins()
}

/// Drive the entire Section-2 session, then persist the final mapping and
/// reload it into a fresh session: the two sessions' target views match.
#[test]
fn session_persistence_round_trip() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    session.add_correspondence("Children.name", "name").unwrap();
    let ids = session
        .add_correspondence("Parents.affiliation", "affiliation")
        .unwrap();
    let fid = ids
        .iter()
        .find(|id| {
            session
                .workspaces()
                .iter()
                .find(|w| w.id == **id)
                .unwrap()
                .description
                .contains("fid")
        })
        .copied()
        .unwrap();
    session.confirm(fid).unwrap();
    let preview_before = session.target_preview().unwrap();

    // save + reload into a brand-new session
    let text = print_mapping(&session.active().unwrap().mapping);
    let reloaded = parse_map(&text).unwrap();
    let mut session2 = Session::new(paper_database(), kids_target());
    let id = session2.adopt_mapping(reloaded, "from MAP text").unwrap();
    assert_eq!(session2.active().unwrap().id, id);
    let preview_after = session2.target_preview().unwrap();

    let mut a = preview_before.clone();
    let mut b = preview_after.clone();
    a.sort_canonical();
    b.sort_canonical();
    assert_eq!(a.rows(), b.rows());
}

#[test]
fn adopt_mapping_rejects_wrong_target() {
    let mut session = Session::new(paper_database(), kids_target());
    let other_target = RelSchema::new("Other", vec![Attribute::new("x", DataType::Int)]).unwrap();
    let mut g = QueryGraph::new();
    g.add_node(Node::new("Children")).unwrap();
    let m = Mapping::new(g, other_target);
    assert!(session.adopt_mapping(m, "bad").is_err());
}

#[test]
fn paper_mappings_round_trip_through_map_text() {
    for m in [example_3_15_mapping(), section2_mapping()] {
        let text = print_mapping(&m);
        let parsed = parse_map(&text).unwrap();
        assert_eq!(parsed, m);
        // and the reloaded mapping evaluates identically
        let db = paper_database();
        let mut a = m.evaluate(&db, &funcs()).unwrap();
        let mut b = parsed.evaluate(&db, &funcs()).unwrap();
        a.sort_canonical();
        b.sort_canonical();
        assert_eq!(a.rows(), b.rows());
    }
}

/// Flip the Section-2 affiliation edge from father to mother with the
/// replace-edge operator and check the data changes accordingly.
#[test]
fn replace_edge_switches_scenarios() {
    let db = paper_database();
    let m = section2_mapping();
    let flipped = replace_edge_predicate(
        &m,
        &db,
        &funcs(),
        "Children",
        "Parents",
        parse_expr("Children.mid = Parents.ID").unwrap(),
    )
    .unwrap();
    let out = flipped.evaluate(&db, &funcs()).unwrap();
    let maya = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("002"))
        .unwrap();
    // affiliation now comes from the mother (Almaden), phone unchanged
    assert_eq!(maya[2], Value::str("Almaden"));
    assert_eq!(maya[4], Value::str("555-0103"));
}

#[test]
fn conjoin_edge_narrows_linkage() {
    let db = paper_database();
    let m = section2_mapping();
    let narrowed = conjoin_edge_predicate(
        &m,
        &db,
        &funcs(),
        "Children",
        "SBPS",
        parse_expr("SBPS.time < '8:10'").unwrap(),
    )
    .unwrap();
    let out = narrowed.evaluate(&db, &funcs()).unwrap();
    // only Anna's 8:05 pickup survives the narrowed link; Maya's 8:15
    // no longer joins, so her BusSchedule is null
    let anna = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("001"))
        .unwrap();
    let maya = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("002"))
        .unwrap();
    assert_eq!(anna[5], Value::str("8:05"));
    assert!(maya[5].is_null());
}

#[test]
fn remove_node_shrinks_section2_mapping() {
    let db = paper_database();
    let m = section2_mapping();
    let without_sbps = remove_node(&m, &db, &funcs(), "SBPS").unwrap();
    assert_eq!(without_sbps.graph.node_count(), 4);
    assert!(without_sbps.correspondence_for("BusSchedule").is_none());
    let out = without_sbps.evaluate(&db, &funcs()).unwrap();
    assert!(out.rows().iter().all(|r| r[5].is_null()));
    // removing the articulation node Parents2 (PhoneDir hangs off it) fails
    assert!(remove_node(&m, &db, &funcs(), "Parents2").is_err());
}

#[test]
fn ranking_prefers_data_supported_walks() {
    let db = paper_database();
    let knowledge = paper_knowledge();
    let mut g = QueryGraph::new();
    g.add_node(Node::new("Children")).unwrap();
    let m = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
    let alts = data_walk(&m, &db, &knowledge, "Children", "PhoneDir", 3, &funcs()).unwrap();
    let ranked = rank_walk_alternatives(alts, &db, &funcs()).unwrap();
    assert!(!ranked.is_empty());
    // all four children have fathers (support 4); Tom is motherless, so
    // the mid walk joins only 3 — the fid walk ranks first on data
    for (_, score) in &ranked {
        assert_eq!(score.path_len, 2);
    }
    assert_eq!(ranked[0].1.join_support, 4);
    assert!(ranked[0].0.description.contains("fid"));
    assert_eq!(ranked[1].1.join_support, 3);
    // join_support of the full Section-2 mapping: children with a mother,
    // her phone, AND a bus pickup -> Anna and Maya
    assert_eq!(join_support(&section2_mapping(), &db, &funcs()).unwrap(), 2);
}

/// Mining the paper database rediscovers the declared foreign keys and
/// surfaces the undeclared SBPS/XmasBazaar links; with mined knowledge, a
/// walk reaches SBPS without a chase, and Figure 11 gains the direct
/// `G4`-style alternative when a Children–PhoneDir spec is mined in.
#[test]
fn mining_enriches_walks_on_paper_database() {
    use clio::core::mining::{enrich_knowledge, mine_inclusion_dependencies, MiningConfig};

    let db = paper_database();
    let strict = MiningConfig {
        min_containment: 1.0,
        min_shared_values: 2,
        require_same_type: true,
    };
    let mined = mine_inclusion_dependencies(&db, &strict);
    assert!(mined.iter().any(
        |d| d.from == ("SBPS".into(), "ID".into()) && d.to == ("Children".into(), "ID".into())
    ));

    let mut knowledge = paper_knowledge();
    assert!(knowledge.paths("Children", "SBPS", 3).is_empty());
    enrich_knowledge(&mut knowledge, &db, &strict);
    assert!(!knowledge.paths("Children", "SBPS", 3).is_empty());

    // a mapping can now walk straight to SBPS
    let mut g = QueryGraph::new();
    g.add_node(Node::new("Children")).unwrap();
    let m = Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"));
    let alts = data_walk(&m, &db, &knowledge, "Children", "SBPS", 3, &funcs()).unwrap();
    assert!(!alts.is_empty());
    assert!(alts[0].mapping.graph.node_by_alias("SBPS").is_some());
}

/// The session survives a long randomized command sequence without
/// panicking, and its invariants hold throughout.
#[test]
fn session_fuzz_smoke() {
    let mut session = Session::new(paper_database(), kids_target());
    type Gesture = Box<dyn Fn(&mut Session)>;
    let gestures: Vec<Gesture> = vec![
        Box::new(|s| {
            let _ = s.add_correspondence("Children.ID", "ID");
        }),
        Box::new(|s| {
            let _ = s.add_correspondence("Children.name", "name");
        }),
        Box::new(|s| {
            let _ = s.add_correspondence("Parents.affiliation", "affiliation");
        }),
        Box::new(|s| {
            let _ = s.data_walk(None, "PhoneDir");
        }),
        Box::new(|s| {
            let _ = s.data_chase("Children", "ID", &Value::str("002"));
        }),
        Box::new(|s| {
            if let Some(w) = s.workspaces().first() {
                let id = w.id;
                let _ = s.confirm(id);
            }
        }),
        Box::new(|s| {
            let _ = s.add_source_filter("Children.age < 7");
        }),
        Box::new(|s| {
            let _ = s.require_target_attribute("name");
        }),
        Box::new(|s| {
            let _ = s.accept_active();
        }),
        Box::new(|s| {
            let _ = s.target_preview();
        }),
    ];
    // a fixed pseudo-random order, long enough to hit interesting states
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..120 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (state >> 33) as usize % gestures.len();
        gestures[k](&mut session);
        // invariant: the active workspace (if any) holds a valid mapping
        if let Some(w) = session.active() {
            w.mapping.validate(session.database(), &funcs()).unwrap();
        }
    }
}

/// The Children–Parents–PhoneDir cycle over the paper database.
fn cyclic_mapping() -> Mapping {
    let mut g = QueryGraph::new();
    let c = g.add_node(Node::new("Children")).unwrap();
    let p = g.add_node(Node::new("Parents")).unwrap();
    let ph = g.add_node(Node::new("PhoneDir")).unwrap();
    for (a, b, pred) in [
        (c, p, "Children.mid = Parents.ID"),
        (p, ph, "PhoneDir.ID = Parents.ID"),
        (c, ph, "Children.mid = PhoneDir.ID"),
    ] {
        g.add_edge(a, b, parse_expr(pred).unwrap()).unwrap();
    }
    Mapping::new(g, kids_target())
        .with_correspondence(ValueCorrespondence::identity("Children.ID", "ID"))
        .with_correspondence(ValueCorrespondence::identity("Children.name", "name"))
        .with_correspondence(ValueCorrespondence::identity(
            "Parents.affiliation",
            "affiliation",
        ))
        .with_correspondence(ValueCorrespondence::identity(
            "PhoneDir.number",
            "contactPh",
        ))
        .with_target_not_null_filters()
}

/// The alternatives for slot `slot` of `ill` as they are defined over the
/// full example population `all`: the examples satisfying every
/// requirement only the slot's example meets within the illustration,
/// the illustration's own examples excluded.
fn reference_alternatives(
    ill: &Illustration,
    slot: usize,
    all: &[Example],
    arity: usize,
) -> Vec<Example> {
    let Some(current) = ill.examples.get(slot) else {
        return Vec::new();
    };
    let shown: Vec<Signature> = ill.examples.iter().map(Example::signature).collect();
    let exclusive: Vec<Requirement> = requirements(all, arity, SufficiencyScope::mapping())
        .into_iter()
        .filter(|r| {
            satisfies(&shown[slot], r)
                && !shown
                    .iter()
                    .enumerate()
                    .any(|(i, s)| i != slot && satisfies(s, r))
        })
        .collect();
    all.iter()
        .filter(|e| {
            *e != current
                && !ill.examples.contains(e)
                && exclusive.iter().all(|r| satisfies(&e.signature(), r))
        })
        .cloned()
        .collect()
}

/// A session's alternatives for every slot are the reference's, built
/// from every example of the mapping, and a swap is accepted exactly
/// where the reference accepts it (an alternative that keeps the
/// illustration sufficient), and then shows that alternative: on the
/// Kids mapping after `confirm 1`, and on a cyclic mapping.
#[test]
fn alternatives_and_swaps_match_the_full_population_reference() {
    let mut kids = Session::new(paper_database(), kids_target());
    kids.add_correspondence("Children.ID", "ID").unwrap();
    kids.add_correspondence("Children.name", "name").unwrap();
    kids.add_correspondence("Parents.affiliation", "affiliation")
        .unwrap();
    kids.confirm(1).unwrap();
    let mut cyclic = Session::new(paper_database(), kids_target());
    cyclic.adopt_mapping(cyclic_mapping(), "cyclic").unwrap();
    let scope = SufficiencyScope::mapping();
    let mut offered = 0;
    for session in [kids, cyclic] {
        let w = session.active().unwrap();
        let all = w.mapping.examples(session.database(), &funcs()).unwrap();
        let arity = w.mapping.target.arity();
        for slot in 0..=w.illustration.len() {
            let reference = reference_alternatives(&w.illustration, slot, &all, arity);
            let got = session.example_alternatives(slot).unwrap();
            assert_eq!(got, reference, "slot {slot} of {}", w.description);
            offered += reference.len();
            for alt in 0..=reference.len() {
                let accepted = reference.get(alt).filter(|a| {
                    let mut examples = w.illustration.examples.clone();
                    examples[slot] = (*a).clone();
                    is_sufficient(&examples, &all, arity, scope)
                });
                let mut swapped = session.clone();
                let outcome = swapped.swap_example(slot, alt);
                assert_eq!(outcome.is_ok(), accepted.is_some(), "slot {slot} alt {alt}");
                if let Some(a) = accepted {
                    assert_eq!(&swapped.active().unwrap().illustration.examples[slot], a);
                }
            }
        }
    }
    assert!(offered > 0, "no slot has an alternative");
}
