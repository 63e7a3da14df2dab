//! S2-SQL — the Section-2 narrative end to end, including the generated
//! `CREATE VIEW Kids` SQL and the inner-join refinement.

use clio::prelude::*;

fn funcs() -> FuncRegistry {
    FuncRegistry::with_builtins()
}

/// The generated SQL for the final Section-2 mapping has the paper's
/// shape: a view over Children with left outer joins to Parents,
/// Parents2, PhoneDir and SBPS, and no residual WHERE (the `Kids.ID`
/// constraint is absorbed by rooting the join chain at Children).
#[test]
fn section2_sql_golden() {
    let db = paper_database();
    let m = section2_mapping();
    let sql = generate_sql(
        &m,
        &db,
        &SqlOptions {
            root: Some("Children".into()),
            create_view: true,
        },
    )
    .unwrap();

    let expected = "\
CREATE VIEW Kids AS
SELECT Children.ID AS ID,
       Children.name AS name,
       Parents.affiliation AS affiliation,
       Parents.address AS address,
       PhoneDir.number AS contactPh,
       SBPS.time AS BusSchedule,
       Parents.salary + Parents2.salary AS FamilyIncome
FROM Children
  LEFT JOIN Parents ON Children.fid = Parents.ID
  LEFT JOIN Parents AS Parents2 ON Children.mid = Parents2.ID
  LEFT JOIN SBPS ON Children.ID = SBPS.ID
  LEFT JOIN PhoneDir ON PhoneDir.ID = Parents2.ID
";
    assert_eq!(sql, expected);
}

/// Requiring BusSchedule flips its LEFT JOIN to an inner JOIN (the paper's
/// closing refinement) and removes kids without a schedule.
#[test]
fn section2_required_field_refinement() {
    let db = paper_database();
    let m = section2_mapping();
    let required = require_target_attribute(&m, "BusSchedule");

    let sql = generate_sql(
        &required,
        &db,
        &SqlOptions {
            root: Some("Children".into()),
            create_view: false,
        },
    )
    .unwrap();
    assert!(sql.contains("\n  JOIN SBPS ON Children.ID = SBPS.ID"));
    assert_eq!(sql.matches("LEFT JOIN").count(), 3);

    let out = required.evaluate(&db, &funcs()).unwrap();
    assert_eq!(out.len(), 2); // only Anna and Maya ride the bus
    for row in out.rows() {
        assert!(!row[5].is_null());
    }
}

/// Requiring an attribute whose correspondence is not null-strict keeps
/// the nodes it reads outer-joined: `coalesce` is non-null when either
/// parent is present, so motherless Tom keeps his row (his father's
/// salary), and the filter wraps the query instead of becoming a JOIN.
#[test]
fn section2_sql_keeps_outer_joins_under_a_coalesce_requirement() {
    let db = paper_database();
    let income =
        ValueCorrespondence::parse("coalesce(Parents.salary, Parents2.salary)", "FamilyIncome")
            .unwrap();
    let m = require_target_attribute(
        &section2_mapping().with_correspondence(income),
        "FamilyIncome",
    );

    let sql = generate_sql(&m, &db, &SqlOptions::default()).unwrap();
    assert!(sql.contains("FROM Children\n"), "{sql}");
    assert!(
        sql.contains("\n    LEFT JOIN Parents ON Children.fid = Parents.ID"),
        "{sql}"
    );
    assert!(
        sql.contains("\n    LEFT JOIN Parents AS Parents2 ON Children.mid = Parents2.ID"),
        "{sql}"
    );
    assert!(!sql.contains("\n    JOIN "), "no inner join: {sql}");
    assert!(sql.starts_with("SELECT * FROM (\n"), "{sql}");
    assert!(
        sql.ends_with("\n) AS Kids\nWHERE Kids.FamilyIncome IS NOT NULL\n"),
        "{sql}"
    );

    let out = m.evaluate(&db, &funcs()).unwrap();
    assert_eq!(out.len(), 4);
    let tom = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::str("004"))
        .expect("Tom kept");
    assert!(!tom[6].is_null());
}

/// The mapping query result matches the paper's semantics value by value.
#[test]
fn section2_mapping_result_values() {
    let db = paper_database();
    let out = section2_mapping().evaluate(&db, &funcs()).unwrap();
    assert_eq!(out.len(), 4);

    let get = |id: &str| {
        out.rows()
            .iter()
            .find(|r| r[0] == Value::str(id))
            .unwrap_or_else(|| panic!("kid {id} missing"))
    };

    // Anna: father 202 (UofT), mother 201's phone, bus 8:05,
    // income 85k + 90k
    let anna = get("001");
    assert_eq!(anna[2], Value::str("UofT"));
    assert_eq!(anna[3], Value::str("12 Oak St"));
    assert_eq!(anna[4], Value::str("555-0101"));
    assert_eq!(anna[5], Value::str("8:05"));
    assert_eq!(anna[6], Value::Int(175_000));

    // Tom is motherless: contactPh and FamilyIncome null, no bus
    let tom = get("004");
    assert!(tom[4].is_null());
    assert!(tom[5].is_null());
    assert!(tom[6].is_null());

    // Ben: no bus, but phone and income present
    let ben = get("009");
    assert_eq!(ben[4], Value::str("555-0106"));
    assert!(ben[5].is_null());
    assert_eq!(ben[6], Value::Int(142_000));
}

/// The full Section-2 session drive reproduces the same target contents
/// as the statically-built mapping (modulo the FamilyIncome and address
/// correspondences, which the narrative does not add).
#[test]
fn section2_session_drive_matches_static_mapping() {
    let mut session = Session::new(paper_database(), kids_target());
    session.add_correspondence("Children.ID", "ID").unwrap();
    session.add_correspondence("Children.name", "name").unwrap();

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
    let mothers = walks
        .iter()
        .find(|id| {
            let w = session.workspaces().iter().find(|w| w.id == **id).unwrap();
            w.mapping.graph.node_by_alias("Parents2").is_some() && w.description.contains("mid")
        })
        .copied()
        .unwrap();
    session.confirm(mothers).unwrap();
    session
        .add_correspondence("PhoneDir.number", "contactPh")
        .unwrap();

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

    let preview = session.target_preview().unwrap();
    let reference = section2_mapping()
        .evaluate(session.database(), &funcs())
        .unwrap();
    assert_eq!(preview.len(), reference.len());
    // ID, name, affiliation, contactPh, BusSchedule must agree
    for row in preview.rows() {
        let id = &row[0];
        let r = reference.rows().iter().find(|r| &r[0] == id).unwrap();
        assert_eq!(row[1], r[1], "name for {id}");
        assert_eq!(row[2], r[2], "affiliation for {id}");
        assert_eq!(row[4], r[4], "contactPh for {id}");
        assert_eq!(row[5], r[5], "BusSchedule for {id}");
    }
}

/// The Def-3.14 evaluation and the generated LEFT-JOIN SQL agree on the
/// paper instance: evaluate the mapping, then emulate the SQL's join
/// chain with the relational engine and compare.
#[test]
fn mapping_eval_matches_left_join_plan() {
    let db = paper_database();
    let m = section2_mapping();
    let funcs = funcs();

    // engine-level emulation of the generated SQL
    let children = db.relation("Children").unwrap().to_table("Children");
    let parents = db.relation("Parents").unwrap().to_table("Parents");
    let parents2 = db
        .relation("Parents")
        .unwrap()
        .renamed("Parents2")
        .to_table("Parents2");
    let phone = db.relation("PhoneDir").unwrap().to_table("PhoneDir");
    let sbps = db.relation("SBPS").unwrap().to_table("SBPS");

    let j1 = join(
        &children,
        &parents,
        &parse_expr("Children.fid = Parents.ID").unwrap(),
        JoinKind::LeftOuter,
        &funcs,
    )
    .unwrap();
    let j2 = join(
        &j1,
        &parents2,
        &parse_expr("Children.mid = Parents2.ID").unwrap(),
        JoinKind::LeftOuter,
        &funcs,
    )
    .unwrap();
    let j3 = join(
        &j2,
        &phone,
        &parse_expr("PhoneDir.ID = Parents2.ID").unwrap(),
        JoinKind::LeftOuter,
        &funcs,
    )
    .unwrap();
    let j4 = join(
        &j3,
        &sbps,
        &parse_expr("Children.ID = SBPS.ID").unwrap(),
        JoinKind::LeftOuter,
        &funcs,
    )
    .unwrap();

    // project the correspondences
    let outputs: Vec<(Expr, Column)> = vec![
        (
            parse_expr("Children.ID").unwrap(),
            Column::new("Kids", "ID", DataType::Str),
        ),
        (
            parse_expr("Children.name").unwrap(),
            Column::new("Kids", "name", DataType::Str),
        ),
        (
            parse_expr("Parents.affiliation").unwrap(),
            Column::new("Kids", "affiliation", DataType::Str),
        ),
        (
            parse_expr("Parents.address").unwrap(),
            Column::new("Kids", "address", DataType::Str),
        ),
        (
            parse_expr("PhoneDir.number").unwrap(),
            Column::new("Kids", "contactPh", DataType::Str),
        ),
        (
            parse_expr("SBPS.time").unwrap(),
            Column::new("Kids", "BusSchedule", DataType::Str),
        ),
        (
            parse_expr("Parents.salary + Parents2.salary").unwrap(),
            Column::new("Kids", "FamilyIncome", DataType::Int),
        ),
    ];
    let mut sql_result = clio::relational::ops::project(&j4, &outputs, &funcs).unwrap();
    sql_result.dedup();
    sql_result.sort_canonical();

    let mut eval_result = m.evaluate(&db, &funcs).unwrap();
    eval_result.sort_canonical();
    assert_eq!(sql_result.rows(), eval_result.rows());
}

/// Without a cache the Kids view runs as Section 2 writes it: `Kids.ID
/// IS NOT NULL` with `ID <- Children.ID` requires Children, so the plan
/// is the `LEFT JOIN` chain from Children that
/// `mapping_eval_matches_left_join_plan` emulates, and the SQL prints.
/// `FamilyIncome <- Parents.salary + Parents2.salary` can raise an
/// integer overflow, so with it the plan keeps every association and
/// the full outer chain.
#[test]
fn kids_plan_without_a_cache_is_the_left_join_chain_from_children() {
    let db = paper_database();
    let funcs = funcs();
    let mut m = section2_mapping();
    let full = Plan::new(&m, &db, &funcs, None).unwrap();
    assert_eq!(full.required_nodes(), 0);
    assert!(!full.explain().contains("LeftOuterJoin"));

    m.correspondences
        .retain(|v| v.target_attr != "FamilyIncome");
    let plan = Plan::new(&m, &db, &funcs, None).unwrap();
    assert_eq!(plan.required_nodes(), 0b1, "Children is node 0");
    let expected = "\
plan for Kids — outer-join (tree)
Filter (target) Kids.ID IS NOT NULL
└─ Project Kids(ID, name, affiliation, address, contactPh, BusSchedule, FamilyIncome) via 6 correspondence(s)
   └─ Rooted at Children: required by target filter Kids.ID IS NOT NULL
      └─ LeftOuterJoin ON PhoneDir.ID = Parents2.ID
         ├─ LeftOuterJoin ON Children.ID = SBPS.ID
         │  ├─ LeftOuterJoin ON Children.mid = Parents2.ID
         │  │  ├─ LeftOuterJoin ON Children.fid = Parents.ID
         │  │  │  ├─ Scan Children
         │  │  │  └─ Scan Parents
         │  │  └─ Scan Parents AS Parents2
         │  └─ Scan SBPS
         └─ Scan PhoneDir
";
    assert_eq!(plan.explain(), expected);

    // the rooted chain answers what the memoized full chain answers
    let cache = EvalCache::new();
    let rooted = m.evaluate(&db, &funcs).unwrap();
    let memoized = m.evaluate_cached(&db, &funcs, Some(&cache)).unwrap();
    assert_eq!(rooted.rows(), memoized.rows());
}
