#![warn(missing_docs)]

//! # rp-bgp
//!
//! Valley-free inter-domain routing over an [`rp_topology::Topology`].
//!
//! The paper's section 4 study ""utilizes the BGP routing tables in the
//! ASBRs of RedIRIS to determine the AS-level path ... for each of the
//! traffic flows". This crate supplies that machinery for the synthetic
//! Internet: Gao–Rexford export rules (routes learned from customers export
//! to everyone; routes learned from peers or providers export only to
//! customers) and the standard selection order (customer > peer > provider,
//! then shortest AS path, then lowest next-hop ASN).
//!
//! Two engines compute the same answer:
//!
//! - [`propagate()`] — a staged single-origin computation (a customer wave
//!   up the provider edges, a peer step, then a provider wave down the
//!   customer edges, both breadth-first by path length) that runs in
//!   linear time and is what the paper-scale experiments use;
//! - [`propagate_iterative`] — a message-passing BGP emulation that
//!   converges by fixpoint, used to cross-validate the staged engine on
//!   small topologies (see the property tests).
//!
//! Both compute, for every AS, its best route *toward* the origin AS: the
//! staged engine as a next-hop tree ([`RouteTree`]), the emulation as one
//! materialized path per AS. The study network's own forwarding view is
//! the reverse tree, exposed through [`RoutingView`]; reversing a
//! valley-free path preserves valley-freeness, and using the reverse path
//! as the forward path is the usual symmetry approximation (documented in
//! DESIGN.md).

pub mod infer;
pub mod propagate;
pub mod route;
pub mod view;

pub use infer::{collect_paths, evaluate, infer_gao, InferenceAccuracy, InferredRel};
pub use propagate::{propagate, propagate_iterative};
pub use route::{is_valley_free, Hops, RouteClass, RouteInfo, RouteTree};
pub use view::{GatewayClass, RoutingView};
