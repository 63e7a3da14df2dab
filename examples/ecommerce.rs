//! E-commerce data integration — the domain the paper's introduction
//! motivates ("E-commerce and other data-intensive applications rely on
//! being able to re-use and integrate data from multiple, often legacy
//! sources").
//!
//! A legacy order-management schema with cryptic names (`ORD_HDR`,
//! `ORD_LN`, `CUST_MST`, `SKU_REF`, `SHIP_LOG`) is mapped onto a clean
//! `OrderSummary` target using walks, a chase into the cryptically-named
//! shipping log, verification, and aggregation for totals.
//!
//! ```sh
//! cargo run --example ecommerce
//! ```

use clio::prelude::*;

fn build_source() -> Result<Database> {
    let mut db = Database::new();
    db.add_relation(
        RelationBuilder::new("ORD_HDR") // order header
            .attr_not_null("ord_no", DataType::Str)
            .attr("cust_no", DataType::Str)
            .attr("ord_dt", DataType::Str)
            .row(vec!["O-1001".into(), "C-7".into(), "2001-05-20".into()])
            .row(vec!["O-1002".into(), "C-9".into(), "2001-05-21".into()])
            .row(vec!["O-1003".into(), "C-7".into(), "2001-05-22".into()])
            .row(vec!["O-1004".into(), Value::Null, "2001-05-23".into()]) // walk-in sale
            .build()?,
    )?;
    db.add_relation(
        RelationBuilder::new("ORD_LN") // order lines
            .attr_not_null("ord_no", DataType::Str)
            .attr_not_null("ln_no", DataType::Int)
            .attr("sku", DataType::Str)
            .attr("qty", DataType::Int)
            .attr("unit_price", DataType::Int)
            .row(vec![
                "O-1001".into(),
                1i64.into(),
                "SKU-A".into(),
                2i64.into(),
                500i64.into(),
            ])
            .row(vec![
                "O-1001".into(),
                2i64.into(),
                "SKU-B".into(),
                1i64.into(),
                1250i64.into(),
            ])
            .row(vec![
                "O-1002".into(),
                1i64.into(),
                "SKU-A".into(),
                5i64.into(),
                480i64.into(),
            ])
            .row(vec![
                "O-1003".into(),
                1i64.into(),
                "SKU-C".into(),
                1i64.into(),
                9900i64.into(),
            ])
            .build()?,
    )?;
    db.add_relation(
        RelationBuilder::new("CUST_MST") // customer master
            .attr_not_null("cust_no", DataType::Str)
            .attr("nm", DataType::Str)
            .attr("region", DataType::Str)
            .row(vec!["C-7".into(), "Acme Corp".into(), "EMEA".into()])
            .row(vec!["C-9".into(), "Globex".into(), "AMER".into()])
            .row(vec!["C-11".into(), "Initech".into(), "APAC".into()]) // no orders yet
            .build()?,
    )?;
    db.add_relation(
        RelationBuilder::new("SHIP_LOG") // the cryptic one found by chasing
            .attr_not_null("ref".to_owned() + "_no", DataType::Str)
            .attr("carrier", DataType::Str)
            .attr("shipped_dt", DataType::Str)
            .row(vec!["O-1001".into(), "FedEx".into(), "2001-05-22".into()])
            .row(vec!["O-1002".into(), "UPS".into(), "2001-05-24".into()])
            .build()?,
    )?;
    db.constraints.foreign_keys.extend([
        ForeignKey::simple("ORD_HDR", "cust_no", "CUST_MST", "cust_no"),
        ForeignKey::simple("ORD_LN", "ord_no", "ORD_HDR", "ord_no"),
    ]);
    db.check_constraints()?;
    Ok(db)
}

fn target() -> RelSchema {
    RelSchema::new(
        "OrderSummary",
        vec![
            Attribute::not_null("order_id", DataType::Str),
            Attribute::new("customer", DataType::Str),
            Attribute::new("region", DataType::Str),
            Attribute::new("carrier", DataType::Str),
            Attribute::new("total_cents", DataType::Int),
        ],
    )
    .expect("static schema")
}

fn main() -> Result<()> {
    let db = build_source()?;
    let funcs = FuncRegistry::with_builtins();

    println!("== legacy source ==");
    for rel in db.relations() {
        println!("  {}", rel.schema());
    }

    let mut session = Session::new(db.clone(), target());

    // 1. the obvious correspondences
    session.add_correspondence("ORD_HDR.ord_no", "order_id")?;
    // CUST_MST is not linked: the walk proposes the cust_no FK scenario
    let scenarios = session.add_correspondence("CUST_MST.nm", "customer")?;
    println!("\ncustomer-link scenarios: {}", scenarios.len());
    session.confirm(scenarios[0])?;
    session.add_correspondence("CUST_MST.region", "region")?;

    // 2. where is shipping info? No FK points at SHIP_LOG — chase a
    //    known order number.
    let chases = session.data_chase("ORD_HDR", "ord_no", &Value::str("O-1001"))?;
    println!("\nchase O-1001 found {} scenario(s):", chases.len());
    for id in &chases {
        let w = session.workspaces().iter().find(|w| w.id == *id).unwrap();
        println!("  workspace {}: {}", w.id, w.description);
    }
    let ship = chases
        .iter()
        .find(|id| {
            let w = session.workspaces().iter().find(|w| w.id == **id).unwrap();
            w.mapping.graph.node_by_alias("SHIP_LOG").is_some()
        })
        .copied()
        .expect("SHIP_LOG scenario");
    session.confirm(ship)?;
    session.add_correspondence("SHIP_LOG.carrier", "carrier")?;

    // 3. WYSIWYG so far: orders with customer, region, carrier
    println!("\n== target preview (before totals) ==");
    print!("{}", session.target_preview()?);

    // 4. verify: the walk-in sale O-1004 has no customer; totals unmapped
    println!("\n== verification ==");
    for f in session.verify_active(&[vec!["order_id".into()]])? {
        println!("- {f}");
    }

    // 5. order totals are SET-VALUED: sum over all order lines. Compute
    //    with the aggregation operator and register as a derived relation,
    //    then map it like any other source.
    let lines = db.relation("ORD_LN")?.to_table("L");
    let totals = group_by(
        &lines,
        &["L.ord_no"],
        &[Aggregate {
            func: AggFunc::Sum,
            expr: parse_expr("L.qty * L.unit_price")?,
            output: Column::new("T", "total_cents", DataType::Int),
        }],
        &funcs,
    )?;
    println!("\n== derived ORDER_TOTALS (sum of qty * unit_price per order) ==");
    print!("{totals}");

    // materialize the derived relation into the source and extend the DB
    let mut db2 = db.clone();
    let mut totals_rel = RelationBuilder::new("ORDER_TOTALS")
        .attr_not_null("ord_no", DataType::Str)
        .attr("total_cents", DataType::Int);
    for row in totals.rows() {
        totals_rel = totals_rel.row(row.clone());
    }
    db2.add_relation(totals_rel.build()?)?;

    // continue the session over the extended database: rebuild, reload
    // the mapping, chase the totals in
    let mapping_text = clio_lang::print_mapping(&session.active().unwrap().mapping);
    let mut session2 = Session::new(db2, target());
    session2.adopt_mapping(clio_lang::parse_map(&mapping_text)?, "resumed")?;
    let chases = session2.data_chase("ORD_HDR", "ord_no", &Value::str("O-1001"))?;
    let totals_ws = chases
        .iter()
        .find(|id| {
            let w = session2.workspaces().iter().find(|w| w.id == **id).unwrap();
            w.mapping.graph.node_by_alias("ORDER_TOTALS").is_some()
        })
        .copied()
        .expect("ORDER_TOTALS scenario");
    session2.confirm(totals_ws)?;
    session2.add_correspondence("ORDER_TOTALS.total_cents", "total_cents")?;

    println!("\n== final target ==");
    print!("{}", session2.target_preview()?);

    println!("\n== final SQL ==");
    let w = session2.active().unwrap();
    let db_ref = session2.database().clone();
    println!(
        "{}",
        generate_sql(
            &w.mapping,
            &db_ref,
            &SqlOptions {
                root: Some("ORD_HDR".into()),
                create_view: true
            }
        )?
    );
    Ok(())
}
