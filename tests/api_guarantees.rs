//! API-guideline guarantees (Rust API Guidelines): every public error type
//! implements `Error + Send + Sync + 'static` (C-GOOD-ERR), data types are
//! `Send + Sync` where expected (C-SEND-SYNC), and `Debug` never vanishes
//! from public types (C-DEBUG). These are compile-time checks: the test
//! body passing means the bounds hold.

use std::error::Error;

fn assert_error<T: Error + Send + Sync + 'static>() {}
fn assert_send_sync<T: Send + Sync>() {}
fn assert_debug<T: std::fmt::Debug>() {}

#[test]
fn error_types_are_well_behaved() {
    // C-GOOD-ERR across every crate of the workspace.
    assert_error::<hexamesh_repro::graph::GraphError>();
    assert_error::<hexamesh_repro::partition::PartitionError>();
    assert_error::<hexamesh_repro::partition::KwayError>();
    assert_error::<hexamesh_repro::layout::LayoutError>();
    assert_error::<hexamesh_repro::cost::CostError>();
    assert_error::<hexamesh_repro::phy::tech::TechnologyError>();
    assert_error::<hexamesh_repro::thermal::ThermalError>();
    assert_error::<hexamesh_repro::topo::TopologyError>();
    assert_error::<hexamesh_repro::topo::TopoEvalError>();
    assert_error::<nocsim::SimError>();
    assert_error::<nocsim::RoutingError>();
    assert_error::<hexamesh::arrangement::ArrangementError>();
    assert_error::<hexamesh::shape::ShapeError>();
    assert_error::<hexamesh::link::LinkModelError>();
    assert_error::<hexamesh::eval::EvalError>();
}

#[test]
fn core_data_types_are_send_and_sync() {
    // C-SEND-SYNC: analysis results and configurations cross threads (the
    // evaluation sweep is parallelised).
    assert_send_sync::<hexamesh_repro::graph::Graph>();
    assert_send_sync::<hexamesh::arrangement::Arrangement>();
    assert_send_sync::<hexamesh::eval::EvalParams>();
    assert_send_sync::<hexamesh::eval::EvalResult>();
    assert_send_sync::<nocsim::SimConfig>();
    assert_send_sync::<nocsim::NetworkStats>();
    assert_send_sync::<nocsim::Simulator>();
    assert_send_sync::<hexamesh_repro::phy::Technology>();
    assert_send_sync::<hexamesh_repro::phy::EyeAnalysis>();
    assert_send_sync::<hexamesh_repro::thermal::PowerMap>();
    assert_send_sync::<hexamesh_repro::thermal::ThermalSolution>();
    assert_send_sync::<hexamesh_repro::topo::Topology>();
    assert_send_sync::<hexamesh_repro::topo::TopoEval>();
    assert_send_sync::<hexamesh_repro::partition::KwayPartition>();
    assert_send_sync::<hexamesh_repro::cost::binning::BinningParams>();
}

#[test]
fn public_types_implement_debug() {
    // C-DEBUG spot checks on the extension surface.
    assert_debug::<hexamesh_repro::phy::SignalBudget>();
    assert_debug::<hexamesh_repro::phy::Modulation>();
    assert_debug::<hexamesh_repro::thermal::HotspotReport>();
    assert_debug::<hexamesh_repro::thermal::ThermalParams>();
    assert_debug::<hexamesh_repro::topo::LinkEdge>();
    assert_debug::<hexamesh_repro::topo::EvalOptions>();
    assert_debug::<nocsim::LinkSpec>();
}

#[test]
fn defaults_match_documented_constructors() {
    // C-COMMON-TRAITS: `Default` agrees with the documented `new`-style
    // constructors.
    use hexamesh_repro::phy::SignalBudget;
    use hexamesh_repro::thermal::ThermalParams;
    assert_eq!(SignalBudget::default(), SignalBudget::new());
    assert_eq!(ThermalParams::default(), ThermalParams::new());
    assert_eq!(nocsim::SimConfig::default(), nocsim::SimConfig::paper_defaults());
    assert_eq!(
        hexamesh::eval::EvalParams::default(),
        hexamesh::eval::EvalParams::paper_defaults()
    );
}
